"""Shortest sliding-token schedules on trivially perfect graphs.

The intervals of a laminar representation nest into a forest where two
vertices are adjacent exactly when one is an ancestor of the other.  An
interval's "R" event comes after everything inside it, so the endpoint
string lists the forest in postorder.  Tokens are paired bottom-up in
that order, a single blue with a single red at their lowest common
ancestor.  Two unresolved tokens of one color can never get past their
meeting node, and a balanced subtree that already holds settled tokens
pins every ancestor, so those merges answer NO.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intervals import IntervalRepresentation
from .results import (
    SolveResult,
    SolverInputError,
    check_tokens,
    no_result,
    unbalanced_component,
)


@dataclass(frozen=True, slots=True)
class PreparedTP:
    """Per-graph analysis shared by every token pair: the representation,
    each vertex's component index, and the outermost interval of each
    component in left order."""

    rep: IntervalRepresentation
    component: list[int]
    roots: tuple[int, ...]


def prepare_tp(rep: IntervalRepresentation) -> PreparedTP:
    """Analyse the graph once; raises the structural SolverInputError
    (NOT_TRIVIALLY_PERFECT, STRONG_TWINS) that solve_tp would."""
    component = [0] * (rep.n + 1)
    children = [0] * (rep.n + 1)
    last_child = [0] * (rep.n + 1)
    roots: list[int] = []
    twins: list[tuple[int, int]] = []
    stack: list[int] = []  # the open intervals, innermost last
    for side, vid in zip(rep.sides, rep.ids):
        if side == "L":
            if stack:
                up = stack[-1]
                children[up] += 1
                last_child[up] = vid
            else:
                roots.append(vid)
                c = len(roots) - 1
            component[vid] = c
            stack.append(vid)
        elif not stack or stack.pop() != vid:
            raise SolverInputError(
                "NOT_TRIVIALLY_PERFECT",
                f"interval {vid} partially overlaps an open interval",
            )
        elif children[vid] == 1:  # a sole child shares its closed neighborhood
            child = last_child[vid]
            twins.append((vid, child) if vid < child else (child, vid))
    if twins:
        raise SolverInputError(
            "STRONG_TWINS",
            "vertices with identical closed neighborhoods present",
            tuple(sorted(twins)),
        )
    return PreparedTP(rep, component, tuple(roots))


def solve_tp(
    rep: IntervalRepresentation | PreparedTP, blue, red, decide: bool = False
) -> SolveResult:
    """Decide reachability and, unless ``decide`` is set, emit a shortest
    schedule.  Each pair costs at most two moves (through its meeting
    node), so YES schedules never exceed twice the token count.  ``rep``
    may be the representation or its ``prepare_tp`` value."""
    p = rep if isinstance(rep, PreparedTP) else prepare_tp(rep)
    blue = check_tokens("blue", blue, p.rep)
    red = check_tokens("red", red, p.rep)
    if len(blue) != len(red):
        return no_result("CARDINALITY_MISMATCH", (len(blue), len(red)))
    if len(p.roots) > 1:
        c = unbalanced_component(p.component, blue, red)
        if c is not None:
            return no_result("COMPONENT_UNBALANCED", (p.roots[c],))

    # one accumulator per open interval, None until a token reaches it:
    # unresolved blue count and token, unresolved red count and token,
    # balanced subtrees with settled tokens
    blue_only = frozenset(blue).difference(red)
    red_only = frozenset(red).difference(blue)
    tokens = frozenset(blue).union(red)
    stack = [[0, 0, 0, 0, 0]]  # the bottom one collects the roots
    moves: list[tuple[int, int]] = []
    for side, v in zip(p.rep.sides, p.rep.ids):
        if side == "L":
            stack.append(None)
            continue
        acc = stack.pop()
        if acc is None and v not in tokens:
            continue
        nb, b, nr, r, greens = acc or (0, 0, 0, 0, 0)
        if v in blue_only:
            nb, b = nb + 1, v
        elif v in red_only:
            nr, r = nr + 1, v
        elif v in tokens:
            greens += 1
        if nb >= 2 or nr >= 2:
            return no_result("MERGE_CASE4", (v,))
        if greens and (nb or nr):
            return no_result("MERGE_CASE5", (v,))
        up = stack[-1]
        if up is None:
            up = stack[-1] = [0, 0, 0, 0, 0]
        if nb and nr:  # v is the pair's lowest common ancestor
            if v == b or v == r:
                moves.append((b, r))
            else:
                moves += ((b, v), (v, r))
            up[4] += 1
        elif nb:
            up[0] += 1
            up[1] = b
        elif nr:
            up[2] += 1
            up[3] = r
        elif greens:
            up[4] += 1

    assert stack[0][0] == stack[0][2] == 0, "balanced component left a token"

    return SolveResult("YES", None if decide else tuple(moves))
