"""Shortest sliding-token schedules on trivially perfect graphs.

The intervals of a laminar representation nest into a forest where two
vertices are adjacent exactly when one is an ancestor of the other.
Tokens are paired bottom-up: each node merges the unresolved tokens of
its child subtrees, pairing a single blue with a single red at their
lowest common ancestor.  Two unresolved tokens of one color can never
get past their meeting node, and a balanced subtree that already holds
settled tokens pins every ancestor, so those merges answer NO.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .intervals import IntervalRepresentation
from .results import SolveResult, SolverInputError, check_tokens, no_result


@dataclass(frozen=True)
class ContainmentForest:
    """Nesting structure of a laminar interval family.

    Children keep parse order.  ``tin`` and ``tout`` are preorder ranges:
    u is an ancestor of v (inclusive) iff tin[u] <= tin[v] <= tout[u].
    """

    n: int
    children: tuple[tuple[int, ...], ...]
    roots: tuple[int, ...]
    tin: tuple[int, ...]
    tout: tuple[int, ...]

    def comparable(self, u: int, v: int) -> bool:
        return (
            self.tin[u] <= self.tin[v] <= self.tout[u]
            or self.tin[v] <= self.tin[u] <= self.tout[v]
        )


def containment_forest(rep: IntervalRepresentation) -> ContainmentForest:
    """Parse the nesting; partial overlap means the family is not laminar."""
    n = rep.n
    children: list[list[int]] = [[] for _ in range(n + 1)]
    roots: list[int] = []
    tin = [0] * (n + 1)
    tout = [0] * (n + 1)
    stack: list[int] = []
    clock = 0
    for side, vid in rep.events:
        if side == "L":
            clock += 1
            tin[vid] = clock
            if stack:
                children[stack[-1]].append(vid)
            else:
                roots.append(vid)
            stack.append(vid)
        else:
            if not stack or stack[-1] != vid:
                raise SolverInputError(
                    "NOT_TRIVIALLY_PERFECT",
                    f"interval {vid} partially overlaps an open interval",
                )
            tout[vid] = clock
            stack.pop()
    return ContainmentForest(
        n,
        tuple(tuple(c) for c in children),
        tuple(roots),
        tuple(tin),
        tuple(tout),
    )


def tp_twin_pairs(forest: ContainmentForest) -> tuple[tuple[int, int], ...]:
    """Strong twins of the intersection graph: every internal node with a
    sole child shares its closed neighborhood with that child."""
    pairs = []
    for v in range(1, forest.n + 1):
        if len(forest.children[v]) == 1:
            c = forest.children[v][0]
            pairs.append((v, c) if v < c else (c, v))
    return tuple(sorted(pairs))


def _postorder(forest: ContainmentForest) -> list[int]:
    order: list[int] = []
    for root in forest.roots:
        stack = [(root, False)]
        while stack:
            v, done = stack.pop()
            if done:
                order.append(v)
            else:
                stack.append((v, True))
                for c in reversed(forest.children[v]):
                    stack.append((c, False))
    return order


@dataclass(frozen=True, slots=True)
class PreparedTP:
    """Per-graph analysis shared by every token pair: the representation,
    its containment forest and the forest's postorder."""

    rep: IntervalRepresentation
    forest: ContainmentForest
    postorder: tuple[int, ...]


def prepare_tp(rep: IntervalRepresentation) -> PreparedTP:
    """Analyse the graph once; raises the structural SolverInputError
    (NOT_TRIVIALLY_PERFECT, STRONG_TWINS) that solve_tp would."""
    forest = containment_forest(rep)
    twins = tp_twin_pairs(forest)
    if twins:
        raise SolverInputError(
            "STRONG_TWINS",
            "vertices with identical closed neighborhoods present",
            twins,
        )
    return PreparedTP(rep, forest, tuple(_postorder(forest)))


def solve_tp(
    rep: IntervalRepresentation | PreparedTP, blue, red, decide: bool = False
) -> SolveResult:
    """Decide reachability and, unless ``decide`` is set, emit a shortest
    schedule.  Each pair costs at most two moves (through its meeting
    node), so YES schedules never exceed twice the token count.  ``rep``
    may be the representation or its ``prepare_tp`` value."""
    p = rep if isinstance(rep, PreparedTP) else prepare_tp(rep)
    forest = p.forest
    blue = check_tokens("blue", blue, p.rep)
    red = check_tokens("red", red, p.rep)
    if len(blue) != len(red):
        return no_result("CARDINALITY_MISMATCH", (len(blue), len(red)))

    blue_set = frozenset(blue)
    red_set = frozenset(red)
    btins = sorted(forest.tin[v] for v in blue_set)
    rtins = sorted(forest.tin[v] for v in red_set)
    for root in forest.roots:
        lo, hi = forest.tin[root], forest.tout[root]
        nb = bisect_right(btins, hi) - bisect_left(btins, lo)
        nr = bisect_right(rtins, hi) - bisect_left(rtins, lo)
        if nb != nr:
            return no_result("COMPONENT_UNBALANCED", (root,))

    # bottom-up merge; state per node: E empty, B/R one unresolved token,
    # G balanced subtree with settled tokens inside
    state: list[tuple[str, int]] = [("E", 0)] * (forest.n + 1)
    pairs: list[tuple[int, int, int]] = []
    for v in p.postorder:
        blues: list[int] = []
        reds: list[int] = []
        greens = 0
        in_blue = v in blue_set
        in_red = v in red_set
        if in_blue and in_red:
            greens += 1
        elif in_blue:
            blues.append(v)
        elif in_red:
            reds.append(v)
        for c in forest.children[v]:
            kind, x = state[c]
            if kind == "B":
                blues.append(x)
            elif kind == "R":
                reds.append(x)
            elif kind == "G":
                greens += 1
        if len(blues) >= 2 or len(reds) >= 2:
            return no_result("MERGE_CASE4", (v,))
        if greens and (blues or reds):
            return no_result("MERGE_CASE5", (v,))
        if blues and reds:
            pairs.append((blues[0], v, reds[0]))
            state[v] = ("G", v)
        elif blues:
            state[v] = ("B", blues[0])
        elif reds:
            state[v] = ("R", reds[0])
        elif greens:
            state[v] = ("G", v)

    for root in forest.roots:
        assert state[root][0] in ("E", "G"), "balanced component left a token"

    if decide:
        return SolveResult("YES")
    moves: list[tuple[int, int]] = []
    for b, lca, r in pairs:
        if lca == b or lca == r:
            moves.append((b, r))
        else:
            moves.append((b, lca))
            moves.append((lca, r))
    return SolveResult("YES", tuple(moves))
