"""Exact brute-force reference: BFS over independent-set configurations.

States are canonical sorted vertex tuples.  A state's neighbors are all
configurations reachable by sliding one token along an edge into an
unoccupied vertex while keeping the set independent.

There is one breadth-first loop, in ``SlideSpace``: it keeps one search
per source and resumes it for each later query, stopping as soon as the
queried target is found, the space is exhausted or the state cap is
hit.  ``bfs`` is one such query with its path rebuilt from the distance
map.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .graphs import Graph
from .results import check_tokens

DEFAULT_STATE_CAP = 10_000_000

# what SlideSpace.distance answers when its search hit the cap first
CAPPED = "CAP"

StateKey = tuple[int, ...]
# one source's search: distances in discovery order, states left to expand
_Search = tuple[dict[StateKey, int], deque[StateKey]]


def state_key(vertices: Iterable[int]) -> StateKey:
    return tuple(sorted(vertices))


def slide_neighbors(g: Graph, state: StateKey) -> list[StateKey]:
    """All states one legal slide away."""
    adj = g.adj
    occupied = set(state)
    out: list[StateKey] = []
    for u in state:
        # the token on u is lifted while its slides are tried
        occupied.remove(u)
        for v in adj[u]:
            if v not in occupied and occupied.isdisjoint(adj[v]):
                out.append(tuple(sorted((*occupied, v))))
        occupied.add(u)
    return out


@dataclass(frozen=True)
class OracleResult:
    status: str  # REACHABLE | UNREACHABLE | CAP_EXCEEDED
    distance: int | None
    moves: tuple[tuple[int, int], ...] | None
    states_explored: int

    @property
    def reachable(self) -> bool:
        return self.status == "REACHABLE"


class SlideSpace:
    """Breadth-first search over one graph's slide configurations,
    memoised by source.

    Each source keeps its distance map, in discovery order, and its
    queue, so a query resumes the search an earlier query on the same
    source stopped.  A search stops once the queried target is found,
    the space is exhausted, or ``cap`` states of that source have been
    expanded; the expanded ones are the discovered ones not queued.
    """

    def __init__(self, g: Graph, cap: int = DEFAULT_STATE_CAP):
        self.g = g
        self.cap = cap
        self._searches: dict[StateKey, _Search] = {}

    def _search(self, source: StateKey, target: StateKey | None = None) -> _Search:
        if source not in self._searches:
            self._searches[source] = ({source: 0}, deque([source]))
        dist, queue = self._searches[source]
        g, cap = self.g, self.cap
        while queue and target not in dist and len(dist) - len(queue) < cap:
            state = queue.popleft()
            d = dist[state] + 1
            for nxt in slide_neighbors(g, state):
                if nxt not in dist:
                    dist[nxt] = d
                    queue.append(nxt)
        return dist, queue

    def distances_from(
        self, source: StateKey, target: StateKey | None = None
    ) -> dict[StateKey, int]:
        """Distances from ``source`` to every state found so far.

        Without a target the search runs until the space is exhausted or
        the cap is hit; with one it stops once the target is found.
        """
        return self._search(source, target)[0]

    def distance(self, blue: Iterable[int], red: Iterable[int]) -> int | str | None:
        """Shortest slide distance, None if unreachable, or CAPPED when
        the cap was hit before either."""
        src, dst = state_key(blue), state_key(red)
        if dst in self._searches:
            back, queue = self._searches[dst]
            if src in back or not queue:
                return back.get(src)
        dist = self.distances_from(src, dst)
        if dst in dist:
            return dist[dst]
        return CAPPED if self._searches[src][1] else None


def _path(g: Graph, dist: dict[StateKey, int], goal: StateKey) -> tuple[tuple[int, int], ...]:
    """Slides from the search's source to ``goal``.  A state's parent, the
    state whose expansion discovered it, is its earliest-discovered
    neighbour one step closer to the source."""
    order = {state: i for i, state in enumerate(dist)}
    moves: list[tuple[int, int]] = []
    while dist[goal]:
        closer = [s for s in slide_neighbors(g, goal) if dist.get(s) == dist[goal] - 1]
        prev = min(closer, key=order.__getitem__)
        (src,), (dst,) = set(prev).difference(goal), set(goal).difference(prev)
        moves.append((src, dst))
        goal = prev
    return tuple(reversed(moves))


def bfs(
    g: Graph,
    blue: Iterable[int],
    red: Iterable[int],
    cap: int = DEFAULT_STATE_CAP,
) -> OracleResult:
    """Shortest slide sequence from blue to red by breadth-first search.

    Explores at most ``cap`` states before giving up with CAP_EXCEEDED.
    On success ``moves`` replays blue into red in ``distance`` moves.
    A bad token set raises SolverInputError as the solvers do.
    """
    start = state_key(check_tokens("blue", blue, g))
    goal = state_key(check_tokens("red", red, g))
    if len(start) != len(goal):
        return OracleResult("UNREACHABLE", None, None, 0)
    if start == goal:
        return OracleResult("REACHABLE", 0, (), 1)
    dist, queue = SlideSpace(g, cap)._search(start, goal)
    expanded = len(dist) - len(queue)
    if goal in dist:
        return OracleResult("REACHABLE", dist[goal], _path(g, dist, goal), expanded)
    if queue:
        # counts the state whose expansion would have crossed the cap
        return OracleResult("CAP_EXCEEDED", None, None, expanded + 1)
    return OracleResult("UNREACHABLE", None, None, expanded)
