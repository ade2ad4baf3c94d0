"""The sequence file format against a per-line reference parser, and
round trips of every solver's schedules through it."""

import random

import pytest

from tokenslide.caterpillar import solve_caterpillar
from tokenslide.generate import gen_instance
from tokenslide.instances import InstanceFormatError, parse_sequence, serialize_sequence
from tokenslide.oracle import bfs
from tokenslide.proper import solve_proper
from tokenslide.trivially_perfect import solve_tp


def reference_parse_sequence(text):
    """The per-line parser that ``parse_sequence`` replaced, kept as the
    reference; it reads fields with ``int``, so it also takes signs,
    underscores and other scripts' digits, which the format refuses."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise InstanceFormatError("empty sequence file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "MOVES" or not head[1].isdigit():
        raise InstanceFormatError("sequence file must start with 'MOVES <count>'")
    count = int(head[1])
    if len(lines) - 1 != count:
        raise InstanceFormatError(f"expected {count} move lines, found {len(lines) - 1}")
    moves = []
    for line in lines[1:]:
        parts = line.split()
        try:
            src, dst = int(parts[0]), int(parts[1])
        except (ValueError, IndexError):
            raise InstanceFormatError(f"bad move line: {line!r}") from None
        if len(parts) != 2:
            raise InstanceFormatError(f"bad move line: {line!r}")
        moves.append((src, dst))
    return tuple(moves)


def outcome(parse, text):
    try:
        return parse(text)
    except InstanceFormatError as err:
        return f"InstanceFormatError: {err}"


# ASCII tokens int() refuses too, so both parsers reject them alike
NON_DIGITS = ("x", "1.5", "1e3", "0x1", "1,2", "--", "*", "YES", "MOVES")
BLANKS = ("", "   ", "\t", " \t ")
COMMENTS = ("# note", "#", "  # café", "#MOVES 9")
SEPARATORS = (" ", "  ", "\t", " \t", "\xa0", "　")


def valid_lines(rng):
    """A well-formed file as a header and move lines."""
    count = rng.randint(0, 6)
    numbers = lambda: rng.choice((str(rng.randint(0, 999)), "007", "0", "65536"))
    return [f"MOVES {count}"] + [f"{numbers()} {numbers()}" for _ in range(count)]


def mutate(lines, rng):
    """Apply one seeded mutation to a list of lines; returns the new list."""
    lines = list(lines) or [""]
    at = rng.randrange(len(lines))
    fields = lines[at].split() or ["7"]  # a blank line gets a field back
    kind = rng.randrange(12)
    if kind == 0:  # missing field
        lines[at] = fields[rng.randrange(len(fields))]
    elif kind == 1:  # extra field
        lines[at] += " " + rng.choice(("3", "x", "0"))
    elif kind == 2:  # non-digit field
        fields[rng.randrange(len(fields))] = rng.choice(NON_DIGITS)
        lines[at] = " ".join(fields)
    elif kind == 3:  # count mismatch: a line dropped or doubled
        lines.insert(at, lines[at]) if rng.random() < 0.5 else lines.pop(at)
    elif kind == 4:  # count mismatch: the header's count changed
        lines[0] = f"MOVES {max(0, len(lines) - 1 + rng.choice((-2, -1, 1, 2)))}"
    elif kind == 5:  # trailing comment
        lines[at] += rng.choice(COMMENTS)
    elif kind == 6:  # comment-only or blank line anywhere
        lines.insert(rng.randint(0, len(lines)), rng.choice(COMMENTS + BLANKS))
    elif kind == 7:  # surrounding blanks
        lines[at] = rng.choice(BLANKS) + lines[at] + rng.choice(BLANKS)
    elif kind == 8:  # other field separators
        lines[at] = rng.choice(SEPARATORS).join(fields)
    elif kind == 9:  # a leading YES, as `solve` writes it
        lines.insert(0, rng.choice(("YES", " YES ")))
    elif kind == 10:  # a comment that swallows a field
        lines[at] = " ".join(fields[:-1]) + " # " + fields[-1]
    else:  # a malformed header
        lines[0] = rng.choice(("moves 1", "MOVES", "MOVES 1 2", "MOVES x", "MOVE 1", "1"))
    return lines


def join(lines, rng):
    ending = rng.choice(("\n", "\n", "\r\n", "\r"))
    text = ending.join(lines)
    return text + ending if rng.random() < 0.8 else text


def test_parser_matches_reference_on_seeded_mutations():
    rng = random.Random("sequence-format")
    seen = set()
    for case in range(6000):
        lines = valid_lines(rng)
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            lines = mutate(lines, rng)
        text = join(lines, rng)
        expected = outcome(reference_parse_sequence, text)
        assert outcome(parse_sequence, text) == expected, (case, text)
        if isinstance(expected, tuple):
            seen.add(("ok", text.isascii(), "\r" in text, "#" in text))
        else:
            seen.add(expected.split()[1])
    # every message, and accepted files with non-ASCII text, CR endings
    # and comments
    assert {"sequence", "expected", "bad"} <= seen, seen
    assert {("ok", False), ("ok", True)} <= {s[:2] for s in seen if s[0] == "ok"}
    assert any(s[0] == "ok" and s[2] for s in seen) and any(s[0] == "ok" and s[3] for s in seen)


def test_parser_refuses_only_numerals_int_takes_beyond_ascii_digits():
    """Where the reference read a numeral with ``int`` that is not a run
    of ASCII digits, the parser rejects that line with the message the
    reference gives any other bad move line; otherwise they agree."""
    rng = random.Random("sequence-numerals")
    for _ in range(500):
        lines = valid_lines(rng)
        if len(lines) == 1:
            continue
        i = rng.randrange(1, len(lines))
        fields = lines[i].split()
        fields[rng.randrange(2)] = rng.choice(("1_0", "١", "３", "+3", "-3", "²", "0_0"))
        lines[i] = " ".join(fields)
        text = join(lines, rng)
        expected = outcome(reference_parse_sequence, text)
        if isinstance(expected, tuple):
            expected = f"InstanceFormatError: bad move line: {lines[i]!r}"
        assert outcome(parse_sequence, text) == expected, text


def test_parser_matches_reference_on_the_examples():
    for text in ("", "\n\n", "# only\n", "MOVES 0", "MOVES 0\n", "MOVES 2\n1 2\n2 3\n"):
        assert outcome(parse_sequence, text) == outcome(reference_parse_sequence, text)


def reference_serialize_sequence(moves):
    return f"MOVES {len(moves)}\n" + "".join(f"{a} {b}\n" for a, b in moves)


def walked_red(g, blue, rng, steps=30):
    """The token set a seeded walk of legal slides reaches from blue."""
    occupied = set(blue)
    for _ in range(steps):
        src = rng.choice(sorted(occupied))
        free = [w for w in g.adj[src] if w not in occupied
                and all(x == src or x not in occupied for x in g.adj[w])]
        if free:
            occupied.remove(src)
            occupied.add(rng.choice(free))
    return tuple(sorted(occupied))


def schedules():
    """(label, moves or None for a NO) from every solver
    class and the oracle, each solving towards a red that a walk of
    slides reaches."""
    rng = random.Random("sequence-round-trip")
    solvers = (("proper", solve_proper), ("tp", solve_tp), ("caterpillar", solve_caterpillar))
    for cls, solve in solvers:
        for seed in range(4):
            inst = gen_instance(cls, 40, 3, seed)
            red = walked_red(inst.graph, inst.blue, rng)
            structure = inst.graph if cls == "caterpillar" else inst.rep
            res = solve(structure, inst.blue, red)
            yield f"{cls}-{seed}", res.moves if res.yes else None
    for seed in range(4):
        inst = gen_instance("caterpillar", 12, 2, seed)
        res = bfs(inst.graph, inst.blue, walked_red(inst.graph, inst.blue, rng))
        yield f"oracle-{seed}", res.moves


SCHEDULES = list(schedules())


@pytest.mark.parametrize("moves", [case[1] for case in SCHEDULES],
                         ids=[case[0] for case in SCHEDULES])
def test_solver_schedules_round_trip(moves):
    assert moves
    assert all(type(move) is tuple and len(move) == 2 for move in moves)
    assert all(type(v) is int for move in moves for v in move)
    text = serialize_sequence(moves)
    assert text == reference_serialize_sequence(moves)
    assert parse_sequence(text) == moves
