"""Shortest sliding-token schedules on twin-free proper interval graphs.

Vertices are renumbered by left-endpoint order; each blue token is paired
with the red target of equal rank.  Pairs are interleaved into a colored
string whose height profile (+1 blue, -1 red) cuts it into blocks at the
zero crossings.  Tokens inside a block all travel the same way and every
token follows its shortest path, so the schedule meets the lower bound
of summed pairwise distances.

The graph may be disconnected.  Its components are contiguous runs of
canonical positions, and tokens never leave their component, so every
component must hold as many blue as red tokens.  Then each component
ends at height zero, no block spans two components, and blocks of
different components never wait for each other.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from .graphs import Move
from .intervals import GraphClass, IntervalRepresentation
from .results import (
    SolveResult,
    SolverInputError,
    check_tokens,
    no_result,
    yes_result,
)


@dataclass(frozen=True)
class ColoredString:
    """Token endpoints in canonical position order, blue before red when
    a vertex carries both colors."""

    entries: tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class Block:
    """Maximal run of the colored string between height-zero crossings.

    ``span`` and ``tokens`` are 1-based inclusive ranges of string entries
    and token indices; ``start_color`` decides the travel direction.
    """

    span: tuple[int, int]
    tokens: tuple[int, int]
    start_color: str


def canonical_order(rep: IntervalRepresentation) -> tuple[int, ...]:
    """Vertices sorted by left endpoint; the right endpoints close in the
    same order, so position in this tuple acts as a linear layout."""
    cls = rep.classify()
    if cls is not GraphClass.PROPER:
        raise SolverInputError(
            "NOT_PROPER",
            "left and right endpoints close in different orders",
        )
    return tuple(rep.left_order())


def _reach(rep: IntervalRepresentation, order: tuple[int, ...]):
    """Per-canonical-position closed neighborhood bounds.

    hi[i] counts left endpoints before interval i closes, lo[i] mirrors
    it from the right; N[i] is exactly the positions lo[i]..hi[i].
    """
    n = len(order)
    pos = {v: i for i, v in enumerate(order, start=1)}
    hi = [0] * (n + 1)
    lo = [0] * (n + 1)
    lefts = 0
    for side, vid in rep.events:
        if side == "L":
            lefts += 1
        else:
            hi[pos[vid]] = lefts
    rights = 0
    for side, vid in reversed(rep.events):
        if side == "R":
            rights += 1
        else:
            lo[pos[vid]] = n + 1 - rights
    return pos, hi, lo


def _strong_twin_pairs(order, hi, lo) -> tuple[tuple[int, int], ...]:
    # equal neighborhood ranges only happen at consecutive positions
    pairs = []
    for i in range(1, len(order)):
        if hi[i] == hi[i + 1] and lo[i] == lo[i + 1]:
            a, b = order[i - 1], order[i]
            pairs.append((a, b) if a < b else (b, a))
    return tuple(pairs)


def _touching(order, pos, hi):
    """Adjacency test for check_tokens: two tokens touch iff the later
    one by canonical position lies within the earlier one's reach."""

    def pair(tokens) -> tuple[int, int] | None:
        by_pos = sorted(pos[v] for v in tokens)
        for a, b in zip(by_pos, by_pos[1:]):
            if b <= hi[a]:
                return order[a - 1], order[b - 1]
        return None

    return pair


def build_string(pos: dict[int, int], blue, red) -> ColoredString:
    """Interleave blue starts and red targets by canonical position;
    ``pos`` maps each vertex to its position (``PreparedProper.pos``)."""
    keyed = sorted(
        [(pos[v], 0, v) for v in blue] + [(pos[v], 1, v) for v in red]
    )
    return ColoredString(
        tuple((v, "B" if c == 0 else "R") for _, c, v in keyed)
    )


def compute_heights(s: ColoredString) -> tuple[int, ...]:
    """Prefix balance of the string: +1 per blue entry, -1 per red."""
    h = [0]
    for _, color in s.entries:
        h.append(h[-1] + (1 if color == "B" else -1))
    return tuple(h)


def partition_blocks(s: ColoredString, heights) -> tuple[Block, ...]:
    """Cut the string at every return to height zero."""
    if heights[-1] != 0:
        raise ValueError("unbalanced colored string")
    blocks: list[Block] = []
    start = 1
    for i in range(1, len(s.entries) + 1):
        if heights[i] == 0:
            blocks.append(
                Block(
                    span=(start, i),
                    tokens=(start // 2 + 1, i // 2),
                    start_color=s.entries[start - 1][1],
                )
            )
            start = i + 1
    return tuple(blocks)


def block_order(
    blocks: tuple[Block, ...], s: ColoredString, component: list[int]
) -> tuple[int, ...]:
    """Processing order of blocks.

    A red target followed by a blue start across a boundary means the
    right block must vacate first; the mirrored boundary forces the left
    block first.  Same-colored boundaries are free because each color is
    an independent set, and so is a boundary between two components
    (``component`` maps each vertex to its component).  Ties break
    toward the lowest block index, so components come out left to right.
    """
    k = len(blocks)
    succs: list[list[int]] = [[] for _ in range(k)]
    indeg = [0] * k
    for i in range(k - 1):
        left, left_color = s.entries[blocks[i].span[1] - 1]
        right, right_color = s.entries[blocks[i + 1].span[0] - 1]
        if component[left] != component[right]:
            continue
        if left_color == "R" and right_color == "B":
            succs[i + 1].append(i)
            indeg[i] += 1
        elif left_color == "B" and right_color == "R":
            succs[i].append(i + 1)
            indeg[i + 1] += 1
    heap = [i for i in range(k) if indeg[i] == 0]
    heapq.heapify(heap)
    out: list[int] = []
    while heap:
        i = heapq.heappop(heap)
        out.append(i)
        for j in succs[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(heap, j)
    assert len(out) == k, "boundary constraints formed a cycle"
    return tuple(out)


def _walk(pos, hi, lo, order, frm: int, to: int) -> tuple[int, ...]:
    if frm == to:
        return ()
    path = [frm]
    cur, tgt = pos[frm], pos[to]
    while cur != tgt:
        cur = min(hi[cur], tgt) if tgt > cur else max(lo[cur], tgt)
        path.append(order[cur - 1])
    return tuple(path)


def token_path(rep: IntervalRepresentation, frm: int, to: int) -> tuple[int, ...]:
    """Shortest vertex path between two vertices, empty when they match.

    Each hop jumps to the farthest neighbor toward the target, which is
    optimal because neighborhoods are consecutive in canonical order.
    A component ends at each position whose reach stops at itself.
    """
    order = canonical_order(rep)
    pos, hi, lo = _reach(rep, order)
    a, b = sorted((pos[frm], pos[to]))
    if any(hi[i] == i for i in range(a, b)):
        raise ValueError(f"vertices {frm} and {to} lie in different components")
    return _walk(pos, hi, lo, order, frm, to)


def _block_token_sequence(blocks, seq):
    """Token indices in emission order: rightmost first in blue-start
    blocks, leftmost first in red-start blocks."""
    for bi in seq:
        first, last = blocks[bi].tokens
        if blocks[bi].start_color == "B":
            yield from range(last, first - 1, -1)
        else:
            yield from range(first, last + 1)


@dataclass(frozen=True, slots=True)
class PreparedProper:
    """Per-graph analysis shared by every token pair: canonical order,
    positions, neighborhood bounds, the token adjacency test, and the
    components in left order with each vertex's index among them."""

    n: int
    order: tuple[int, ...]
    pos: dict[int, int]
    hi: list[int]
    lo: list[int]
    touching: Callable[[tuple[int, ...]], tuple[int, int] | None]
    segments: list[list[int]]
    component: list[int]


def prepare_proper(rep: IntervalRepresentation) -> PreparedProper:
    """Analyse the graph once; raises the structural SolverInputError
    (NOT_PROPER, STRONG_TWINS) that solve_proper would."""
    order = canonical_order(rep)
    pos, hi, lo = _reach(rep, order)
    twins = _strong_twin_pairs(order, hi, lo)
    if twins:
        raise SolverInputError(
            "STRONG_TWINS",
            "vertices with identical closed neighborhoods present",
            twins,
        )
    segments = rep.component_segments()
    component = [0] * (rep.n + 1)  # the first component needs no pass
    for c, segment in enumerate(segments[1:], start=1):
        for v in segment:
            component[v] = c
    return PreparedProper(
        rep.n, order, pos, hi, lo, _touching(order, pos, hi), segments, component
    )


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
    blue = check_tokens("blue", blue, p.n, p.touching)
    red = check_tokens("red", red, p.n, p.touching)
    if len(blue) != len(red):
        return no_result("CARDINALITY_MISMATCH", (len(blue), len(red)))
    if len(p.segments) > 1:
        balance = Counter(p.component[v] for v in blue)
        balance.subtract(p.component[v] for v in red)
        unbalanced = [c for c, diff in balance.items() if diff]
        if unbalanced:
            first = p.segments[min(unbalanced)]
            return no_result("COMPONENT_UNBALANCED", (min(first),))
    if decide:
        return SolveResult("YES")
    s = build_string(p.pos, blue, red)
    blocks = partition_blocks(s, compute_heights(s))
    seq = block_order(blocks, s, p.component)
    # each color in position order; the t-th blue pairs with the t-th red
    bl = [v for v, color in s.entries if color == "B"]
    rd = [v for v, color in s.entries if color == "R"]
    moves: list[Move] = []
    for t in _block_token_sequence(blocks, seq):
        path = _walk(p.pos, p.hi, p.lo, p.order, bl[t - 1], rd[t - 1])
        moves.extend(Move(a, b) for a, b in zip(path, path[1:]))
    return yes_result(moves)

