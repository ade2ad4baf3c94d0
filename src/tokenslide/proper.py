"""Shortest sliding-token schedules on twin-free proper interval graphs.

Vertices are renumbered by left-endpoint order; each blue token is paired
with the red target of equal rank.  The block layer in ``blocks.py``
interleaves the pairs into a colored string keyed by canonical position,
cuts it into blocks and orders them across their boundaries.  Tokens
inside a block all travel the same way and every token follows its
shortest path, so the schedule meets the lower bound of summed pairwise
distances.

The graph may be disconnected.  Its components are contiguous runs of
canonical positions, and tokens never leave their component, so every
component must hold as many blue as red tokens.  Then each component
ends at height zero, no block spans two components, and blocks of
different components never wait for each other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import BLUE, RED, block_order, boundary_edges, split_blocks, travel
from .intervals import IntervalRepresentation
from .results import (
    SolveResult,
    SolverInputError,
    check_tokens,
    no_result,
    unbalanced_component,
    yes_result,
)


def _strong_twin_pairs(order, hi, lo) -> tuple[tuple[int, int], ...]:
    # equal neighborhood ranges only happen at consecutive positions
    pairs = []
    for i in range(1, len(order)):
        if hi[i] == hi[i + 1] and lo[i] == lo[i + 1]:
            a, b = order[i - 1], order[i]
            pairs.append((a, b) if a < b else (b, a))
    return tuple(pairs)


def _walk(pos, hi, lo, order, frm: int, to: int) -> tuple[int, ...]:
    """Shortest vertex path between two vertices of one component, empty
    when they match.  Each hop jumps to the farthest neighbor toward the
    target, which is optimal because neighborhoods are consecutive in
    canonical order; the last hop is clamped to the target.  O(1) a move."""
    if frm == to:
        return ()
    path, cur, tgt = [frm], pos[frm], pos[to]
    if cur < tgt:
        while (cur := hi[cur]) < tgt:
            path.append(order[cur - 1])
    else:
        while (cur := lo[cur]) > tgt:
            path.append(order[cur - 1])
    path.append(to)
    return tuple(path)


@dataclass(frozen=True, slots=True)
class PreparedProper:
    """Per-graph analysis shared by every token pair: the representation,
    canonical order, positions, neighborhood bounds, and the components
    in left order with each vertex's index among them."""

    rep: IntervalRepresentation
    order: tuple[int, ...]
    pos: dict[int, int]
    hi: list[int]
    lo: list[int]
    segments: list[list[int]]
    component: list[int]


def prepare_proper(rep: IntervalRepresentation) -> PreparedProper:
    """Analyse the graph in one pass over its endpoints; raises the
    structural SolverInputError (NOT_PROPER, STRONG_TWINS) that
    solve_proper would.  The k-th right endpoint must close the k-th
    interval opened.  hi[i] counts the left endpoints before interval i
    closes, lo[i] is one more than the right endpoints before it opens,
    and N[i] is exactly the positions lo[i]..hi[i]."""
    n = rep.n
    order: list[int] = []
    pos: dict[int, int] = {}
    hi = [0] * (n + 1)
    lo = [0] * (n + 1)
    component = [0] * (n + 1)
    ends = [0]  # the position after which each component starts
    lefts = rights = 0
    for side, vid in rep.events:
        if side == "L":
            order.append(vid)
            lefts += 1
            pos[vid] = lefts
            lo[lefts] = rights + 1
            component[vid] = len(ends) - 1
        else:
            if order[rights] != vid:
                raise SolverInputError(
                    "NOT_PROPER",
                    "left and right endpoints close in different orders",
                )
            rights += 1
            hi[rights] = lefts
            if rights == lefts:  # no interval open: a component ends
                ends.append(rights)
    twins = _strong_twin_pairs(order, hi, lo)
    if twins:
        raise SolverInputError(
            "STRONG_TWINS",
            "vertices with identical closed neighborhoods present",
            twins,
        )
    segments = [order[a:b] for a, b in zip(ends, ends[1:])]
    return PreparedProper(rep, tuple(order), pos, hi, lo, segments, component)


def solve_proper(
    rep: IntervalRepresentation | PreparedProper, blue, red, decide: bool = False
) -> SolveResult:
    """Minimum-length slide schedule moving blue onto red.

    Twin-free proper interval graphs admit one exactly when every
    component holds as many blue as red tokens; otherwise the answer is
    NO with COMPONENT_UNBALANCED and the smallest vertex id of the first
    such component in left order.  Every emitted schedule has exactly
    the summed pairwise shortest-path length.  With ``decide`` the answer
    comes without a schedule, skipping the quadratic move expansion.
    ``rep`` may be the representation or its ``prepare_proper`` value.
    """
    p = rep if isinstance(rep, PreparedProper) else prepare_proper(rep)
    blue = check_tokens("blue", blue, p.rep)
    red = check_tokens("red", red, p.rep)
    if len(blue) != len(red):
        return no_result("CARDINALITY_MISMATCH", (len(blue), len(red)))
    if len(p.segments) > 1:
        c = unbalanced_component(p.component, blue, red)
        if c is not None:
            return no_result("COMPONENT_UNBALANCED", (min(p.segments[c]),))
    if decide:
        return SolveResult("YES")
    pos, component = p.pos, p.component
    blocks = split_blocks(
        [(pos[v], BLUE, v) for v in blue] + [(pos[v], RED, v) for v in red]
    )
    # blocks of different components never wait for each other
    edges = boundary_edges(blocks, lambda l, r: component[l[2]] == component[r[2]])
    seq, broke = block_order(len(blocks), edges)
    assert not broke, "boundary constraints formed a cycle"
    moves: list[tuple[int, int]] = []
    for frm, to in travel(blocks, seq):
        path = _walk(pos, p.hi, p.lo, p.order, frm, to)
        moves.extend(zip(path, path[1:]))
    return yes_result(moves)
