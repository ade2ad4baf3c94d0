"""Exact brute-force reference: BFS over independent-set configurations.

States are canonical sorted vertex tuples.  A state's neighbors are all
configurations reachable by sliding one token along an edge into an
unoccupied vertex while keeping the set independent.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .graphs import Graph, Move, ReconfigSequence

DEFAULT_STATE_CAP = 10_000_000

StateKey = tuple[int, ...]


def state_key(vertices: Iterable[int]) -> StateKey:
    return tuple(sorted(vertices))


def slide_neighbors(g: Graph, state: StateKey) -> list[tuple[StateKey, Move]]:
    """All states one legal slide away, with the move that reaches each."""
    occupied = set(state)
    out: list[tuple[StateKey, Move]] = []
    for u in state:
        rest = occupied - {u}
        for v in g.adj[u]:
            if v in occupied:
                continue
            if not rest.isdisjoint(g.adj[v]):
                continue
            out.append((tuple(sorted(rest | {v})), Move(u, v)))
    return out


def is_stuck(g: Graph, state: Iterable[int]) -> bool:
    return not slide_neighbors(g, state_key(state))


@dataclass(frozen=True)
class OracleResult:
    status: str  # REACHABLE | UNREACHABLE | CAP_EXCEEDED
    distance: int | None
    sequence: ReconfigSequence | None
    states_explored: int

    @property
    def reachable(self) -> bool:
        return self.status == "REACHABLE"


def bfs(
    g: Graph,
    blue: Iterable[int],
    red: Iterable[int],
    cap: int = DEFAULT_STATE_CAP,
) -> OracleResult:
    """Shortest slide sequence from blue to red by breadth-first search.

    Explores at most ``cap`` states before giving up with CAP_EXCEEDED.
    On success the sequence replays blue into red in ``distance`` moves.
    """
    start = state_key(blue)
    goal = state_key(red)
    if not g.is_independent(start):
        raise ValueError("blue set is not independent")
    if not g.is_independent(goal):
        raise ValueError("red set is not independent")
    if len(start) != len(goal):
        return OracleResult("UNREACHABLE", None, None, 0)
    if start == goal:
        return OracleResult("REACHABLE", 0, ReconfigSequence(start, ()), 1)

    parent: dict[StateKey, tuple[StateKey, Move] | None] = {start: None}
    queue = deque([(start, 0)])
    explored = 0
    while queue:
        state, dist = queue.popleft()
        explored += 1
        if explored > cap:
            return OracleResult("CAP_EXCEEDED", None, None, explored)
        for nxt, move in slide_neighbors(g, state):
            if nxt in parent:
                continue
            parent[nxt] = (state, move)
            if nxt == goal:
                moves: list[Move] = []
                cur: StateKey | None = nxt
                while parent[cur] is not None:
                    prev, mv = parent[cur]  # type: ignore[misc]
                    moves.append(mv)
                    cur = prev
                moves.reverse()
                return OracleResult(
                    "REACHABLE", dist + 1, ReconfigSequence(start, tuple(moves)), explored
                )
            queue.append((nxt, dist + 1))
    return OracleResult("UNREACHABLE", None, None, explored)


class SlideSpace:
    """Memoized view of one graph's slide-configuration space.

    Caches per-state neighbor lists and full distance maps per source, so
    sweeps that query many pairs on the same graph stay cheap.
    """

    def __init__(self, g: Graph):
        self.g = g
        self._neighbors: dict[StateKey, tuple[StateKey, ...]] = {}
        self._distances: dict[StateKey, dict[StateKey, int]] = {}

    def neighbors(self, state: StateKey) -> tuple[StateKey, ...]:
        cached = self._neighbors.get(state)
        if cached is None:
            cached = tuple(nxt for nxt, _ in slide_neighbors(self.g, state))
            self._neighbors[state] = cached
        return cached

    def distances_from(self, source: StateKey) -> dict[StateKey, int]:
        cached = self._distances.get(source)
        if cached is None:
            cached = {source: 0}
            queue = deque([source])
            while queue:
                state = queue.popleft()
                d = cached[state] + 1
                for nxt in self.neighbors(state):
                    if nxt not in cached:
                        cached[nxt] = d
                        queue.append(nxt)
            self._distances[source] = cached
        return cached

    def distance(self, blue: Iterable[int], red: Iterable[int]) -> int | None:
        """Shortest slide distance, or None if unreachable."""
        src, dst = state_key(blue), state_key(red)
        if dst in self._distances:
            return self._distances[dst].get(src)
        return self.distances_from(src).get(dst)
