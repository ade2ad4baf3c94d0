"""Interval representations given as endpoint strings.

A representation of n intervals is a whitespace-separated string of 2n
tokens ``L<id>`` and ``R<id>``, one left and one right endpoint per
interval, with ids covering 1..n.  Token positions define integer ranks
1..2n for the endpoints, and intervals are closed, so two intervals
intersect iff neither ends before the other begins.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator


class GraphClass(Enum):
    PROPER = "PROPER"
    TRIVIALLY_PERFECT = "TRIVIALLY_PERFECT"
    NEITHER = "NEITHER"


class RepresentationError(ValueError):
    """Malformed endpoint string; ``position`` is the 1-based token index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"token {position}: {message}")
        self.position = position


@dataclass(frozen=True)
class IntervalRepresentation:
    """An endpoint string, stored as a tuple of ("L"|"R", vertex id) events."""

    events: tuple[tuple[str, int], ...]

    @cached_property
    def n(self) -> int:
        return len(self.events) // 2

    @cached_property
    def _ranks(self) -> dict[str, list[int]]:
        """1-based rank of each vertex's "L" and "R" endpoint, indexed by
        vertex id; one pass builds both."""
        ranks = {"L": [0] * (self.n + 1), "R": [0] * (self.n + 1)}
        for rank, (side, vid) in enumerate(self.events, start=1):
            ranks[side][vid] = rank
        return ranks

    @property
    def left_rank(self) -> list[int]:
        return self._ranks["L"]

    @property
    def right_rank(self) -> list[int]:
        return self._ranks["R"]

    def left_order(self) -> list[int]:
        """Vertex ids sorted by left endpoint rank."""
        return [vid for side, vid in self.events if side == "L"]

    def right_order(self) -> list[int]:
        return [vid for side, vid in self.events if side == "R"]

    def touching(self, vertices: Iterable[int]) -> tuple[int, int] | None:
        """The first pair of consecutive intervals in left-endpoint order
        that meet, earlier one first, or None.  If any two meet, so do two
        consecutive ones, as disjoint intervals close in their left order."""
        left, right = self.left_rank, self.right_rank
        by_left = sorted(vertices, key=left.__getitem__)
        for a, b in zip(by_left, by_left[1:]):
            if left[b] < right[a]:
                return a, b
        return None

    def serialize(self) -> str:
        return " ".join(f"{side}{vid}" for side, vid in self.events)

    def classify(self) -> GraphClass:
        """Classify the represented graph.

        PROPER iff left and right endpoints appear in the same vertex
        order.  TRIVIALLY_PERFECT iff no two intervals partially overlap
        (every pair is disjoint or nested).  A representation satisfying
        both reports PROPER.
        """
        if self.left_order() == self.right_order():
            return GraphClass.PROPER
        stack: list[int] = []
        for side, vid in self.events:
            if side == "L":
                stack.append(vid)
            elif stack and stack[-1] == vid:
                stack.pop()
            else:
                return GraphClass.NEITHER
        return GraphClass.TRIVIALLY_PERFECT

    def intersection_edges(self) -> Iterator[tuple[int, int]]:
        """Edges of the intersection graph, yielded once each as (smaller
        id, larger id) by a left-to-right sweep."""
        active: set[int] = set()
        for side, vid in self.events:
            if side == "L":
                yield from ((other, vid) if other < vid else (vid, other) for other in active)
                active.add(vid)
            else:
                active.discard(vid)


# Python's default int-string limit: int() raises a plain ValueError on a
# longer numeral, so the parsers refuse it first
MAX_DIGITS = 4300


def _is_number(field: str) -> bool:
    """True for a nonempty run of the ASCII digits 0-9, the only numerals
    the file formats take: ``int`` would also take a sign, underscores
    between digits, and the decimal digits of other scripts."""
    return len(field) <= MAX_DIGITS and field.isdigit() and field.isascii()


def parse_representation(text: str) -> IntervalRepresentation:
    """Parse an endpoint string, reporting the offending token position on error."""
    tokens = text.split()
    events: list[tuple[str, int]] = []
    for pos, tok in enumerate(tokens, start=1):
        side, digits = tok[:1], tok[1:]
        if side not in ("L", "R") or not _is_number(digits) or int(digits) < 1:
            raise RepresentationError(f"malformed endpoint token {tok!r}", pos)
        events.append((side, int(digits)))

    seen_left: dict[int, int] = {}
    seen_right: dict[int, int] = {}
    for pos, (side, vid) in enumerate(events, start=1):
        if side == "L":
            if vid in seen_left:
                raise RepresentationError(f"duplicate LEFT endpoint for vertex {vid}", pos)
            seen_left[vid] = pos
        else:
            if vid in seen_right:
                raise RepresentationError(f"duplicate RIGHT endpoint for vertex {vid}", pos)
            if vid not in seen_left:
                raise RepresentationError(f"RIGHT endpoint before LEFT for vertex {vid}", pos)
            seen_right[vid] = pos
    for vid, pos in seen_left.items():
        if vid not in seen_right:
            raise RepresentationError(f"missing RIGHT endpoint for vertex {vid}", pos)

    n = len(seen_left)
    if any(vid > n for vid in seen_left):
        pos, bad = min((seen_left[vid], vid) for vid in seen_left if vid > n)
        raise RepresentationError(f"vertex ids must cover 1..{n}, found {bad}", pos)
    return IntervalRepresentation(tuple(events))
