"""Shared solver result and error types."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable


class SolverInputError(ValueError):
    """Input violates a solver precondition (wrong class, twins, ...).

    Distinct from a NO answer: a NO means the reconfiguration provably
    does not exist, an input error means the question was ill-posed.
    """

    def __init__(self, kind: str, message: str, details: tuple = ()):
        super().__init__(message)
        self.kind = kind
        self.details = details


class _CheckedTokens(tuple):
    """A token tuple that ``check_tokens`` accepted on the structure ``on``.

    Only ``checked_tokens`` makes one.  The structure is compared by
    identity, and a Graph or IntervalRepresentation never changes, so
    the tuple stays valid on it for its whole life.
    """

    on: object


def checked_tokens(tokens: Iterable[int], structure) -> tuple[int, ...]:
    """``check_tokens`` with an empty label, its tuple marked as checked
    on ``structure``: ``check_tokens`` and ``validate_sequence`` trust
    the mark on that structure and skip their checks."""
    out = _CheckedTokens(check_tokens("", tokens, structure))
    out.on = structure
    return out


def is_checked(tokens, structure) -> bool:
    """Whether ``tokens`` came from ``checked_tokens`` on ``structure``."""
    return type(tokens) is _CheckedTokens and tokens.on is structure


def check_tokens(label: str, tokens: Iterable[int], structure) -> tuple[int, ...]:
    """Read one token set into a tuple and check it against vertices 1..n.

    ``structure`` is the Graph or IntervalRepresentation the tokens sit
    on; its ``n`` bounds the vertex ids and its ``touching`` names an
    adjacent pair of tokens, or None.  Raises UNKNOWN_VERTEX for a
    vertex outside 1..n, and NOT_INDEPENDENT for a vertex listed twice
    or, with that pair as details, for two adjacent tokens.  ``label``
    names the set in messages and may be empty.

    A tuple that ``checked_tokens`` made on this same structure object
    is trusted and returned unchanged; a tuple checked on any other
    structure, even an equal one, is checked again.
    """
    if is_checked(tokens, structure):
        return tokens
    tokens = tuple(tokens)
    n = structure.n
    who = f"{label} " if label else ""
    seen: set[int] = set()
    for v in tokens:
        if not 1 <= v <= n:
            raise SolverInputError(
                "UNKNOWN_VERTEX", f"{who}token {v} is not a vertex", (v,)
            )
        if v in seen:
            raise SolverInputError(
                "NOT_INDEPENDENT", f"{who}lists vertex {v} twice", (v, v)
            )
        seen.add(v)
    pair = structure.touching(tokens)
    if pair is not None:
        raise SolverInputError(
            "NOT_INDEPENDENT", f"{who}tokens touch each other", pair
        )
    return tokens


def unbalanced_component(component, blue, red) -> int | None:
    """Lowest index in ``component`` with unequal blue and red counts, or None."""
    balance = Counter(component[v] for v in blue)
    balance.subtract(component[v] for v in red)
    return min((c for c, diff in balance.items() if diff), default=None)


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a solver run.

    ``moves`` holds one (src, dst) vertex pair per slide, and is None
    when solving in decision-only mode; a NO answer carries a
    machine-readable reason and the witnessing vertices.
    """

    status: str  # "YES" | "NO"
    moves: tuple[tuple[int, int], ...] | None = None
    reason: str | None = None
    witness: tuple[int, ...] = ()

    @property
    def yes(self) -> bool:
        return self.status == "YES"

    @property
    def move_count(self) -> int | None:
        return None if self.moves is None else len(self.moves)


def no_result(reason: str, witness: tuple[int, ...] = ()) -> SolveResult:
    return SolveResult("NO", None, reason, witness)


def yes_result(moves) -> SolveResult:
    return SolveResult("YES", tuple(moves))
