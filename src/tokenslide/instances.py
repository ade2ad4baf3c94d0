"""Instance and sequence file formats.

Instance files::

    # comments and blank lines are ignored
    n 5
    rep L1 L2 R1 L3 R2 L4 R3 L5 R4 R5     # exactly one of "rep" / "edges"
    blue 1 2
    red 4 5

or with an explicit edge list::

    n 4
    edges 3
    1 2
    2 3
    3 4
    blue 1
    red 4

Sequence files::

    MOVES 2
    1 2
    2 3
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from operator import eq

from .graphs import Graph
from .intervals import (
    MAX_DIGITS,
    IntervalRepresentation,
    RepresentationError,
    _is_number,
    parse_representation,
)


MAX_N = 10**6  # Graph(n, ...) allocates n + 1 lists straight from the n line


class InstanceFormatError(ValueError):
    pass


@dataclass(frozen=True)
class Instance:
    n: int
    rep: IntervalRepresentation | None
    edge_list: tuple[tuple[int, int], ...] | None
    blue: tuple[int, ...]
    red: tuple[int, ...]

    @cached_property
    def graph(self) -> Graph:
        if self.rep is not None:
            return Graph.from_representation(self.rep)
        return Graph(self.n, self.edge_list or ())


def _meaningful_lines(text: str) -> list[str]:
    """The text's lines without comments and surrounding blanks, empty ones dropped."""
    if "#" not in text:
        return list(filter(None, map(str.strip, text.splitlines())))
    return [line for raw in text.splitlines() if (line := raw.partition("#")[0].strip())]


def _parse_vertex_list(parts: list[str], n: int, label: str) -> tuple[int, ...]:
    if not all(map(_is_number, parts)):
        raise InstanceFormatError(f"non-integer vertex id in {label} line")
    ids = list(map(int, parts))
    for vid in ids:
        if not 1 <= vid <= n:
            raise InstanceFormatError(f"{label} vertex {vid} out of range 1..{n}")
    if len(set(ids)) != len(ids):
        raise InstanceFormatError(f"duplicate vertex in {label} line")
    return tuple(sorted(ids))


def _parse_edges(block: list[str], n: int) -> list[tuple[int, int]]:
    """The lines of an ``edges`` section as (u, v) pairs, checked as one
    field list; only a block that fails is read again line by line, to
    name its first bad line."""
    fields = " ".join(block).split()
    digits = "".join(fields)
    # fields are digit runs, so a line of one field is all digits: with
    # none such and two fields a line in all, each line has two
    if (len(fields) == 2 * len(block) and digits.isdigit() and digits.isascii()
            and not any(map(str.isdigit, block)) and max(map(len, fields)) <= MAX_DIGITS):
        ends = list(map(int, fields))
        us, vs = ends[0::2], ends[1::2]
        if min(ends) >= 1 and max(ends) <= n and not any(map(eq, us, vs)):
            return list(zip(us, vs))
    edge_list = []
    for line in block:
        edge_parts = line.split()
        if len(edge_parts) != 2 or not all(map(_is_number, edge_parts)):
            raise InstanceFormatError(f"bad edge line: {line!r}")
        u, v = map(int, edge_parts)
        if not (1 <= u <= n and 1 <= v <= n) or u == v:
            raise InstanceFormatError(f"bad edge ({u}, {v}) for n={n}")
        edge_list.append((u, v))
    return edge_list


def parse_instance(text: str) -> Instance:
    """Read an instance file; an ``n`` above ``MAX_N`` is a format error.
    An ``edges m`` count needs no such bound: m edge lines must follow it."""
    lines = _meaningful_lines(text)
    if not lines:
        raise InstanceFormatError("empty instance file")

    n: int | None = None
    rep: IntervalRepresentation | None = None
    edge_list: list[tuple[int, int]] | None = None
    tokens: dict[str, tuple[int, ...]] = {}  # the blue and red lines by key

    i = 0
    while i < len(lines):
        line = lines[i]
        key = line.split(maxsplit=1)[0]
        if key not in ("n", "rep", "edges", "blue", "red"):
            raise InstanceFormatError(f"unknown line: {line!r}")
        if n is None and key != "n":
            raise InstanceFormatError(f"{key} line before n line")
        # the rep line goes to its parser whole, unsplit here
        parts = line.split() if key != "rep" else []
        if key == "n":
            if n is not None:
                raise InstanceFormatError("duplicate n line")
            if len(parts) != 2 or not _is_number(parts[1]) or int(parts[1]) < 1:
                raise InstanceFormatError("n line must be 'n <positive integer>'")
            n = int(parts[1])
            if n > MAX_N:
                raise InstanceFormatError(f"n={n} exceeds the limit of {MAX_N}")
        elif key in ("blue", "red"):
            if key in tokens:
                raise InstanceFormatError(f"duplicate {key} line")
            tokens[key] = _parse_vertex_list(parts[1:], n, key)
        elif rep is not None or edge_list is not None:
            raise InstanceFormatError("multiple rep/edges sections")
        elif key == "rep":
            try:
                rep = parse_representation(line[len(key):])
            except RepresentationError as err:
                raise InstanceFormatError(f"rep line, {err}") from None
            if rep.n != n:
                raise InstanceFormatError(f"rep has {rep.n} intervals, expected n={n}")
        else:  # edges
            if len(parts) != 2 or not _is_number(parts[1]):
                raise InstanceFormatError("edges line must be 'edges <count>'")
            m = int(parts[1])
            if m > len(lines) - i - 1:
                raise InstanceFormatError(f"expected {m} edge lines")
            edge_list = _parse_edges(lines[i + 1 : i + m + 1], n)
            i += m
        i += 1

    # every other line needs n before it, so a file that got here has one
    if rep is None and edge_list is None:
        raise InstanceFormatError("missing rep or edges section")
    if "blue" not in tokens or "red" not in tokens:
        raise InstanceFormatError("missing blue or red line")
    edges = tuple(edge_list) if edge_list is not None else None
    return Instance(n, rep, edges, tokens["blue"], tokens["red"])


def serialize_instance(inst: Instance) -> str:
    out = [f"n {inst.n}"]
    if inst.rep is not None:
        out.append(f"rep {inst.rep.serialize()}")
    else:
        edges = inst.edge_list or ()
        out.append(f"edges {len(edges)}")
        out.extend(f"{u} {v}" for u, v in edges)
    out.append("blue " + " ".join(map(str, inst.blue)))
    out.append("red " + " ".join(map(str, inst.red)))
    return "\n".join(out) + "\n"


def parse_sequence(text: str) -> tuple[tuple[int, int], ...]:
    """Read a sequence file into (src, dst) int pairs; repeated move lines
    share one pair."""
    lines = _meaningful_lines(text)
    if not lines:
        raise InstanceFormatError("empty sequence file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "MOVES" or not _is_number(head[1]):
        raise InstanceFormatError("sequence file must start with 'MOVES <count>'")
    count = int(head[1])
    if len(lines) - 1 != count:
        raise InstanceFormatError(f"expected {count} move lines, found {len(lines) - 1}")
    # a schedule slides along the graph's edges again and again, so most
    # of its lines repeat: each distinct line is checked and converted
    # once, in the order of its first copy, so the first bad line is still
    # the one named.  Line by line, unlike an edges block: a list of every
    # field, or a repeated-group regex over the body, would raise verify's
    # peak memory
    pairs = dict.fromkeys(islice(lines, 1, None))
    for line in pairs:
        try:
            src, dst = line.split()
        except ValueError:
            raise InstanceFormatError(f"bad move line: {line!r}") from None
        # _is_number on both fields, checking the whole line where it can
        if not (src.isdigit() and dst.isdigit()
                and (line.isascii() or src.isascii() and dst.isascii())
                and (len(line) <= MAX_DIGITS or max(len(src), len(dst)) <= MAX_DIGITS)):
            raise InstanceFormatError(f"bad move line: {line!r}")
        pairs[line] = (int(src), int(dst))
    return tuple(map(pairs.__getitem__, islice(lines, 1, None)))


def serialize_sequence(moves: tuple[tuple[int, int], ...]) -> str:
    # one format call over the flattened pairs: no string per move
    if not set(map(len, moves)) <= {2}:
        raise ValueError("every move must be a (src, dst) pair")
    count = len(moves)
    return f"MOVES {count}\n" + ("%s %s\n" * count) % tuple(chain.from_iterable(moves))
