"""The sequence file format against a per-line reference parser, and
round trips of every solver's schedules through it."""

import builtins
import gc
import random
import tracemalloc

import pytest

from tokenslide import instances
from tokenslide.caterpillar import solve_caterpillar
from tokenslide.generate import gen_instance, quadratic_path_instance
from tokenslide.instances import InstanceFormatError, parse_sequence, serialize_sequence
from tokenslide.oracle import bfs
from tokenslide.proper import solve_proper
from tokenslide.trivially_perfect import solve_tp
from walks import comb


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


# numerals ``int`` reads that the format refuses, and one digit too many
REFUSED_NUMERALS = ("+3", "١", "３", "7" * 4301)
LONG_NUMERAL = "7" * 4300  # the longest numeral the format takes
LINE_BREAKS = ("\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029")  # every boundary str.splitlines knows
WIDE_BLANKS = ("", " ", "\t", "\xa0", "\u3000", " \xa0\u3000 ")


def repeated_body(rng):
    """Move lines drawn from a small pool, one of them copied to a later
    place; returns the lines and the index of that later copy."""
    pool = [f"{rng.randint(0, 30)} {rng.randint(0, 30)}" for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.2:
        pool[0] = f"{LONG_NUMERAL} {rng.randint(0, 30)}"
    body = [rng.choice(pool) for _ in range(rng.randint(1, 10))]
    first = rng.randrange(len(body))
    later = rng.randint(first + 1, len(body))
    body.insert(later, body[first])
    return body, first, later


def change_copy(body, first, later, rng, comments=True):
    """Change the later copy of a repeated line in one seeded way; returns
    the kind of change."""
    fields = body[later].split()
    kinds = ["extra", "missing", "non-digit", "refused", "spacing", "same"]
    kinds += ["comment"] if comments else []
    kind = rng.choice(kinds)
    if kind == "extra":
        body[later] += " " + rng.choice(("3", "x", "0", fields[0]))
    elif kind == "missing":
        body[later] = fields[rng.randrange(2)]
    elif kind == "non-digit":
        fields[rng.randrange(2)] = rng.choice(NON_DIGITS)
        body[later] = " ".join(fields)
    elif kind == "refused":
        at = 0 if fields[0] == LONG_NUMERAL else rng.randrange(2)
        fields[at] = rng.choice(REFUSED_NUMERALS)
        body[later] = " ".join(fields)
    elif kind == "spacing":
        body[later] = rng.choice(("  ".join(fields), "\t" + " ".join(fields),
                                  rng.choice(SEPARATORS).join(fields)))
    elif kind == "comment":  # on either copy, so one copy has a note
        body[rng.choice((first, later))] += rng.choice(COMMENTS)
    return kind


def expected_outcome(text, changed):
    """The reference's outcome, except that a file it takes with a numeral
    the format refuses fails on the changed line, the only one that can
    hold one."""
    expected = outcome(reference_parse_sequence, text)
    line = changed.split("#", 1)[0].strip()
    refused = any(not (f.isdigit() and f.isascii() and len(f) <= 4300) for f in line.split())
    if isinstance(expected, tuple) and refused:
        return f"InstanceFormatError: bad move line: {line!r}"
    return expected


def test_parser_matches_reference_on_changed_repeats():
    """Files in which a valid move line repeats and its later copy is
    changed: the parser must not take the change for the earlier copy."""
    rng = random.Random("sequence-repeats")
    seen = set()
    for case in range(5000):
        body, first, later = repeated_body(rng)
        kind = change_copy(body, first, later, rng)
        text = join([f"MOVES {len(body)}"] + body, rng)
        expected = expected_outcome(text, body[later])
        assert outcome(parse_sequence, text) == expected, (case, text)
        seen.add((kind, isinstance(expected, tuple), "\r\n" in text))
    kinds = {kind for kind, _, _ in seen}
    assert {"extra", "missing", "non-digit", "refused", "spacing", "comment", "same"} <= kinds
    assert {(ok, crlf) for _, ok, crlf in seen} == {(False, False), (False, True),
                                                     (True, False), (True, True)}


def test_parser_matches_reference_without_comments():
    """Files with no ``#``, their lines broken at every boundary
    str.splitlines knows and padded with wide blanks, repeats included."""
    rng = random.Random("sequence-no-comments")
    seen = set()
    for case in range(2000):
        body, first, later = repeated_body(rng)
        change_copy(body, first, later, rng, comments=False)
        lines = [f"MOVES {len(body)}"] + body
        for _ in range(rng.randint(0, 2)):
            lines.insert(rng.randint(0, len(lines)), rng.choice(WIDE_BLANKS))
        text = "".join(rng.choice(WIDE_BLANKS) + line + rng.choice(WIDE_BLANKS)
                       + rng.choice(LINE_BREAKS) for line in lines)
        assert "#" not in text
        expected = expected_outcome(text, body[later])
        assert outcome(parse_sequence, text) == expected, (case, text)
        seen.update(brk for brk in LINE_BREAKS if brk in text)
        seen.add(isinstance(expected, tuple))
    assert set(LINE_BREAKS) | {True, False} <= seen


def test_parser_matches_reference_on_the_examples():
    for text in ("", "\n\n", "# only\n", "MOVES 0", "MOVES 0\n", "MOVES 2\n1 2\n2 3\n"):
        assert outcome(parse_sequence, text) == outcome(reference_parse_sequence, text)


def test_parser_converts_each_distinct_line_once(monkeypatch):
    """A 10,000-line file of 20 distinct lines costs at most two numeral
    conversions per distinct line and one for the header, counted by
    shadowing ``int`` in the parser's module; repeated moves share one
    pair."""
    calls = 0

    def counting_int(*args):
        nonlocal calls
        calls += 1
        return builtins.int(*args)

    rng = random.Random("sequence-distinct")
    pool = [f"{src} {rng.randint(100, 999)}" for src in range(1, 21)]
    body = pool + [rng.choice(pool) for _ in range(10_000 - len(pool))]
    monkeypatch.setattr(instances, "int", counting_int, raising=False)
    moves = parse_sequence(f"MOVES {len(body)}\n" + "\n".join(body) + "\n")
    assert calls <= 2 * len(pool) + 1, calls
    assert moves == tuple(tuple(map(int, line.split())) for line in body)
    assert len(set(map(id, moves))) == len(pool)


def traced_parse(text):
    """Memory ``parse_sequence`` holds after the call and at its peak, in
    MB, traced by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        moves = parse_sequence(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert moves
    return held / 1e6, peak / 1e6


def test_parser_memory_on_repeated_and_distinct_lines():
    """The quadratic path at k = 100 (60,100 move lines, 799 distinct)
    peaks at no more than 6 MB and holds no more than 1 MB, where one
    pair per line took 10.7 and 6.3 MB; a 2,000-block comb, whose 8,000
    lines are all distinct, peaks at no more than 1.8 MB, where one pair
    per line took 1.55 MB."""
    inst = quadratic_path_instance(100)
    held, peak = traced_parse(serialize_sequence(solve_proper(inst.rep, inst.blue, inst.red).moves))
    assert peak <= 6.0 and held <= 1.0, (held, peak)
    moves = solve_caterpillar(*comb(2_000)).moves
    assert len(set(moves)) == len(moves) == 8_000
    held, peak = traced_parse(serialize_sequence(moves))
    assert peak <= 1.8, (held, peak)


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
