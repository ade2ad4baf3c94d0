"""Graphs, twin detection, and slide sequence validation."""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .intervals import IntervalRepresentation


class Graph:
    """Undirected simple graph on vertices 1..n with immutable adjacency.

    Only the sorted adjacency is stored: an edge listed more than once
    counts once, and ``edges()`` and ``m`` are derived from ``adj``.
    ``edges`` is an iterable of (u, v) pairs or, for the intersection
    graph, an IntervalRepresentation of n intervals, whose adjacency is
    read off its endpoint word without listing an edge.
    """

    __slots__ = ("n", "adj", "_components")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | IntervalRepresentation):
        if isinstance(edges, IntervalRepresentation):
            if n != edges.n:
                raise ValueError(f"n={n} but the representation has {edges.n} intervals")
            adj = _interval_adjacency(edges)
        else:
            lists: list[list[int]] = [[] for _ in range(n + 1)]
            for u, v in edges:
                if not (1 <= u <= n and 1 <= v <= n):
                    raise ValueError(f"edge ({u}, {v}) out of range 1..{n}")
                if u == v:
                    raise ValueError(f"self-loop at vertex {u}")
                lists[u].append(v)
                lists[v].append(u)
            adj = tuple(tuple(sorted(set(neighbors))) for neighbors in lists)
        self.n = n
        self.adj = adj
        self._components: list[list[int]] | None = None

    @classmethod
    def from_representation(cls, rep: IntervalRepresentation) -> "Graph":
        return cls(rep.n, rep)

    @property
    def m(self) -> int:
        return sum(map(len, self.adj)) // 2

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge once as (u, v) with u < v, sorted."""
        return tuple((u, v) for u, neighbors in enumerate(self.adj) for v in neighbors if v > u)

    def components(self) -> list[list[int]]:
        if self._components is None:
            self._components = _components(self.adj, range(1, self.n + 1))
        return self._components

    def touching(self, vertices: Iterable[int]) -> tuple[int, int] | None:
        """The first adjacent pair among ``vertices``, smaller id first,
        or None for an independent set.  Costs O(min(degree, k log degree))
        per vertex for k vertices."""
        vs, adj = set(vertices), self.adj
        # bisecting a vertex costs several neighbour reads, so a short
        # adjacency is read whole
        limit = 8 * len(vs)
        for v in vs:
            near = adj[v]
            if len(near) <= limit:
                if vs.isdisjoint(near):
                    continue
                w = next(w for w in near if w in vs)
            else:
                w = _bisect_any(near, vs)
                if not w:
                    continue
            return (v, w) if v < w else (w, v)
        return None

    def bfs_distances(self, source: int) -> list[int]:
        """Distance from source to every vertex; -1 for unreachable.  Index 0 unused."""
        dist = [-1] * (self.n + 1)
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in self.adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        dist[0] = 0
        return dist

    def distance(self, u: int, v: int) -> int:
        return self.bfs_distances(u)[v]


def _interval_adjacency(rep: IntervalRepresentation) -> tuple[tuple[int, ...], ...]:
    """Sorted adjacency of the intersection graph in one pass over the
    endpoint word.

    An interval meets exactly the intervals open when it opens and those
    that open before it closes.  So each open interval holds the list of
    the first kind and its index in the left order, and on closing adds
    the slice of the left order opened since, sorted: no edge is listed,
    and a list lives only while its interval is open.
    """
    adj: list[tuple[int, ...]] = [()] * (rep.n + 1)
    opened: list[int] = []  # the left order so far
    pending: dict[int, tuple[int, list[int]]] = {}  # the open intervals, in left order
    for side, v in zip(rep.sides, rep.ids):
        if side == "L":
            pending[v] = (len(opened), list(pending))
            opened.append(v)
        else:
            at, near = pending.pop(v)
            near += opened[at + 1:]
            near.sort()
            adj[v] = tuple(near)
    return tuple(adj)


def _bisect_any(near: tuple[int, ...], vs: set[int]) -> int:
    """The smallest vertex of ``vs`` in the sorted, nonempty adjacency
    ``near``, or 0 for none, by bisecting each vertex into it."""
    last = len(near) - 1
    return min((w for w in vs if near[bisect_left(near, w, 0, last)] == w), default=0)


def _components(adj, cells: Iterable[int]) -> list[list[int]]:
    """Connected components of the subgraph induced on ``cells``, each
    sorted and ordered by smallest vertex; ``adj`` is indexed by vertex."""
    left = set(cells)
    comps: list[list[int]] = []
    for start in sorted(left):
        if start not in left:
            continue
        left.discard(start)
        comp = [start]
        for v in comp:  # the list grows while it is read: a search queue
            for w in adj[v]:
                if w in left:
                    left.discard(w)
                    comp.append(w)
        comp.sort()
        comps.append(comp)
    return comps


def find_strong_twins(g: Graph) -> list[tuple[int, int]]:
    """All pairs with identical closed neighborhoods, sorted."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for v in range(1, g.n + 1):
        key = tuple(sorted((*g.adj[v], v)))
        groups.setdefault(key, []).append(v)
    twins = []
    for members in groups.values():
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                twins.append((members[i], members[j]))
    return sorted(twins)


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    step: int | None = None
    reason: str | None = None


def _replay_adjacency(g: Graph, occupied: set[int], seq) -> tuple[int, str | None]:
    """Slide the tokens on ``occupied`` along ``seq``, moving them in the
    set, with edges from the sorted adjacency of ``g``: the last step and
    None, or the first step that breaks a rule and the rule.  A move costs
    O(log degree + min(degree, k log degree)) for k tokens."""
    adj = g.adj
    limit = 8 * len(occupied)
    step = 0
    for step, (src, dst) in enumerate(seq, start=1):
        if src not in occupied or dst in occupied:
            return step, "SOURCE_NOT_OCCUPIED" if src not in occupied else "TARGET_OCCUPIED"
        near = adj[src]
        at = bisect_left(near, dst)
        if at == len(near) or near[at] != dst:
            return step, "NOT_AN_EDGE"
        occupied.discard(src)
        # as in Graph.touching, adj[dst] is read whole when it holds at
        # most 8 vertices per token, and each token is bisected into it
        # otherwise
        near = adj[dst]
        if (not occupied.isdisjoint(near) if len(near) <= limit
                else _bisect_any(near, occupied)):
            return step, "NOT_INDEPENDENT"
        occupied.add(dst)
    return step, None


def _replay_ranks(
    rep: IntervalRepresentation, occupied: set[int], seq
) -> tuple[int, str | None]:
    """``_replay_adjacency`` with edges from the rank lists of ``rep``:
    O(n + k log k) set-up for k tokens, then O(1) per move.

    Two intervals meet iff each one's left rank lies before the other's
    right rank.  Occupied intervals are pairwise disjoint, so sorting them
    by left rank also sorts their right ranks.  An interval that meets the
    token on src and no other token takes src's place in that order, and
    one that meets a further token meets src's neighbour in the order on
    that side, so a slide compares against those two neighbours only.
    ``slot`` maps each token to its place, with ranks 0 and 2n + 1 at both
    ends; dst is looked up first, so a move (v, v) is TARGET_OCCUPIED.
    """
    n, left, right = rep.n, rep.left_rank, rep.right_rank
    order = sorted(occupied, key=left.__getitem__)
    slot = {v: at for at, v in enumerate(order, start=1)}
    lefts = [0, *map(left.__getitem__, order), 2 * n + 1]
    rights = [0, *map(right.__getitem__, order), 2 * n + 1]
    step = 0
    for step, (src, dst) in enumerate(seq, start=1):
        if src not in slot or dst in slot:
            return step, "SOURCE_NOT_OCCUPIED" if src not in slot else "TARGET_OCCUPIED"
        # src holds a token, so it is in range; dst comes straight
        # from a move and is range-checked before it indexes the ranks
        if not (1 <= dst <= n and left[src] < right[dst] and left[dst] < right[src]):
            return step, "NOT_AN_EDGE"
        lo, hi = left[dst], right[dst]
        at = slot.pop(src)
        if rights[at - 1] > lo or lefts[at + 1] < hi:
            return step, "NOT_INDEPENDENT"
        lefts[at], rights[at] = lo, hi
        slot[dst] = at
    occupied.clear()
    occupied.update(slot)
    return step, None


def validate_sequence(
    g: Graph | IntervalRepresentation,
    blue: Iterable[int],
    red: Iterable[int],
    seq,
) -> ValidationResult:
    """Replay a sequence move by move.

    ``seq`` is an iterable of (src, dst) int pairs starting from blue,
    read once and never copied.  Checks that the sequence ends at red,
    and that every step slides one token along an edge into an
    unoccupied vertex while keeping the set independent.  The step index
    of the first violation is 1-based; step 0 flags a blue set that is
    not independent, as ``g.touching`` finds it, and the last step a
    wrong final set.  A blue or red vertex outside 1..n, or listed
    twice, raises ValueError.

    ``g`` is a Graph or an IntervalRepresentation.  A representation is
    checked without building any edge: O(n + k log k) set-up for k
    tokens, then O(1) per move, as two intervals meet iff their rank
    ranges overlap.  Both give the same verdicts, each in one loop.
    """
    blue, red = tuple(blue), tuple(red)
    blue_set, red_set = set(blue), set(red)
    for label, tokens, vs in (("blue", blue, blue_set), ("red", red, red_set)):
        if len(vs) != len(tokens):
            raise ValueError(f"{label} lists a vertex twice")
        if vs and (min(vs) < 1 or max(vs) > g.n):
            raise ValueError(f"{label} vertex out of range 1..{g.n}")
    if g.touching(blue_set) is not None:
        return ValidationResult(False, 0, "NOT_INDEPENDENT")
    replay = _replay_ranks if isinstance(g, IntervalRepresentation) else _replay_adjacency
    # the replay moves the tokens in blue_set, which ends as the final set
    step, broken = replay(g, blue_set, seq)
    if broken is not None:
        return ValidationResult(False, step, broken)
    if blue_set != red_set:
        return ValidationResult(False, step, "WRONG_FINAL_SET")
    return ValidationResult(True)
