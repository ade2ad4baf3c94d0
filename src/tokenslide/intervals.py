"""Interval representations given as endpoint strings.

A representation of n intervals is a whitespace-separated string of 2n
tokens ``L<id>`` and ``R<id>``, one left and one right endpoint per
interval, with ids covering 1..n.  Token positions define integer ranks
1..2n for the endpoints, and intervals are closed, so two intervals
intersect iff neither ends before the other begins.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from enum import Enum
from functools import cached_property
from itertools import count
from operator import itemgetter
from typing import Iterable, Sequence


class GraphClass(Enum):
    PROPER = "PROPER"
    TRIVIALLY_PERFECT = "TRIVIALLY_PERFECT"
    NEITHER = "NEITHER"


class RepresentationError(ValueError):
    """Malformed endpoint string; ``position`` is the 1-based token index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"token {position}: {message}")
        self.position = position


class IntervalRepresentation:
    """An endpoint string, held as its side letters in one str and its
    vertex ids in one array('i'), 5 bytes an endpoint.

    The constructor takes (side, id) pairs and raises RepresentationError
    at the first one that breaks the pairing; ``from_word`` takes the two
    parts of a word known to pair up, as the parser and the generators
    build it.  ``events`` builds the pairs again on each call.
    """

    def __init__(self, events: Iterable[tuple[str, int]] = ()):
        events = tuple(events)
        sides = "".join(map(_side, events))
        if len(sides) != len(events) or sides.strip("LR"):
            pos = next(i for i, (s, _) in enumerate(events, 1) if s not in ("L", "R"))
            raise RepresentationError(f"side {events[pos - 1][0]!r} is not L or R", pos)
        ids = list(map(_vid, events))
        self.__dict__["_ranks"] = _endpoint_ranks(sides, ids)
        # every id is in 1..n now, so it fits a C int
        self.sides, self.ids = sides, array("i", ids)

    @classmethod
    def from_word(cls, sides: str, ids: array) -> IntervalRepresentation:
        rep = cls.__new__(cls)
        rep.sides, rep.ids = sides, ids
        return rep

    def __eq__(self, other):
        if not isinstance(other, IntervalRepresentation):
            return NotImplemented
        return self.sides == other.sides and self.ids == other.ids

    def __hash__(self) -> int:
        return hash((self.sides, self.ids.tobytes()))

    def __repr__(self) -> str:
        return f"IntervalRepresentation({self.events!r})"

    @property
    def events(self) -> tuple[tuple[str, int], ...]:
        return tuple(zip(self.sides, self.ids))

    @cached_property
    def n(self) -> int:
        return len(self.ids) // 2

    @cached_property
    def _ranks(self) -> tuple[list[int], list[int]]:
        """1-based rank of each vertex's "L" and "R" endpoint, indexed by
        vertex id.  The parser and the constructor leave them here; a word
        from ``from_word`` gets them from the same check on first use."""
        return _endpoint_ranks(self.sides, self.ids)

    @property
    def left_rank(self) -> list[int]:
        return self._ranks[0]

    @property
    def right_rank(self) -> list[int]:
        return self._ranks[1]

    def left_order(self) -> list[int]:
        """Vertex ids sorted by left endpoint rank."""
        return [vid for side, vid in zip(self.sides, self.ids) if side == "L"]

    def right_order(self) -> list[int]:
        return [vid for side, vid in zip(self.sides, self.ids) if side == "R"]

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
        return " ".join(f"{side}{vid}" for side, vid in zip(self.sides, self.ids))

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
        for side, vid in zip(self.sides, self.ids):
            if side == "L":
                stack.append(vid)
            elif stack and stack[-1] == vid:
                stack.pop()
            else:
                return GraphClass.NEITHER
        return GraphClass.TRIVIALLY_PERFECT


# Python's default int-string limit: int() raises a plain ValueError on a
# longer numeral, so the parsers refuse it first
MAX_DIGITS = 4300


def _is_number(field: str) -> bool:
    """True for a nonempty run of the ASCII digits 0-9, the only numerals
    the file formats take: ``int`` would also take a sign, underscores
    between digits, and the decimal digits of other scripts."""
    return len(field) <= MAX_DIGITS and field.isdigit() and field.isascii()


_side, _vid = itemgetter(0), itemgetter(1)
_numeral = itemgetter(slice(1, None))


def _endpoint_ranks(sides: str, ids: Sequence[int]) -> tuple[list[int], list[int]]:
    """Check that the endpoints ``sides[i] + str(ids[i])`` pair up: one L
    and then one R for each vertex, and ids covering 1..n.
    Returns the 1-based rank of each vertex's L and R endpoint, indexed by
    vertex id, or raises at the first token that breaks the pairing."""
    half = len(ids) // 2
    # only an id in 1..half can be valid, so only then does it index a
    # list; any other is an error, named with maps of the ids seen
    in_range = 1 <= min(ids, default=1) and max(ids, default=0) <= half
    if in_range:
        left, right = [0] * (half + 1), [0] * (half + 1)
    else:
        left, right = defaultdict(int), defaultdict(int)
    for rank, side, vid in zip(count(1), sides, ids):
        if side == "L":
            if left[vid]:
                raise RepresentationError(f"duplicate LEFT endpoint for vertex {vid}", rank)
            left[vid] = rank
        else:
            if right[vid]:
                raise RepresentationError(f"duplicate RIGHT endpoint for vertex {vid}", rank)
            if not left[vid]:
                raise RepresentationError(f"RIGHT endpoint before LEFT for vertex {vid}", rank)
            right[vid] = rank
    # every R closed an open L, so an L is left open iff there are more Ls
    if 2 * sides.count("R") != len(ids):
        rank, vid = next((rank, vid) for rank, side, vid in zip(count(1), sides, ids)
                         if side == "L" and not right[vid])
        raise RepresentationError(f"missing RIGHT endpoint for vertex {vid}", rank)
    if not in_range:
        # half vertices, each with its L first: the first id out of range is an L's
        rank, vid = next((rank, vid) for rank, vid in enumerate(ids, start=1)
                         if not 1 <= vid <= half)
        raise RepresentationError(f"vertex ids must cover 1..{half}, found {vid}", rank)
    return left, right


def parse_representation(text: str) -> IntervalRepresentation:
    """Parse an endpoint string, reporting the offending token position on error.

    One pass checks the line whole: its side letters as one string, its
    numerals joined as one run of ASCII digits, read with one ``map(int)``
    into the id array.  Only a line that fails is read again token by
    token, to name its first malformed token.  The token and numeral
    lists go before the pairing check builds the rank lists, and the
    representation keeps those as its ``left_rank`` and ``right_rank``.
    """
    tokens = text.split()
    sides = "".join(map(_side, tokens))
    numerals = list(map(_numeral, tokens))
    digits = "".join(numerals)
    ids = None
    if (not sides.strip("LR") and digits.isdigit() and digits.isascii()
            and "" not in numerals and max(map(len, numerals)) <= MAX_DIGITS):
        try:
            ids = array("i", map(int, numerals))
        except OverflowError:  # an id past a C int: the pairing check names it
            ids = list(map(int, numerals))
    if ids is None or min(ids) < 1:
        # an empty line has no bad token, and no ids
        for pos, tok in enumerate(tokens, start=1):
            side, num = tok[:1], tok[1:]
            if side not in ("L", "R") or not _is_number(num) or int(num) < 1:
                raise RepresentationError(f"malformed endpoint token {tok!r}", pos)
        ids = array("i")
    del tokens, numerals, digits
    ranks = _endpoint_ranks(sides, ids)
    # ids in 1..n fit a C int, so ids is the array
    rep = IntervalRepresentation.from_word(sides, ids)
    rep.__dict__["_ranks"] = ranks  # what the cached property would build
    return rep
