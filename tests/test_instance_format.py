"""Endpoint words and instance files against per-token reference parsers.

The references are the per-token ``parse_representation`` and the
per-line ``parse_instance`` that read every token and edge line with its
own checks; the parsers must accept what they accept with the same
events, ranks and edges, and refuse what they refuse with the same
message and token position.
"""

import random
from types import SimpleNamespace

from tokenslide.intervals import IntervalRepresentation, RepresentationError, parse_representation
from tokenslide.instances import Instance, InstanceFormatError, parse_instance


def reference_is_number(field):
    return len(field) <= 4300 and field.isdigit() and field.isascii()


def reference_parse_representation(text):
    tokens = text.split()
    events = []
    for pos, tok in enumerate(tokens, start=1):
        side, digits = tok[:1], tok[1:]
        if side not in ("L", "R") or not reference_is_number(digits) or int(digits) < 1:
            raise RepresentationError(f"malformed endpoint token {tok!r}", pos)
        events.append((side, int(digits)))

    seen_left = {}
    seen_right = {}
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
    ranks = {"L": [0] * (n + 1), "R": [0] * (n + 1)}
    for rank, (side, vid) in enumerate(events, start=1):
        ranks[side][vid] = rank
    return SimpleNamespace(n=n, events=tuple(events), left_rank=ranks["L"], right_rank=ranks["R"])


def reference_parse_vertex_list(parts, n, label):
    if not all(map(reference_is_number, parts)):
        raise InstanceFormatError(f"non-integer vertex id in {label} line")
    ids = [int(p) for p in parts]
    for vid in ids:
        if not 1 <= vid <= n:
            raise InstanceFormatError(f"{label} vertex {vid} out of range 1..{n}")
    if len(set(ids)) != len(ids):
        raise InstanceFormatError(f"duplicate vertex in {label} line")
    return tuple(sorted(ids))


def reference_parse_instance(text):
    lines = [line for raw in text.splitlines() if (line := raw.partition("#")[0].strip())]
    if not lines:
        raise InstanceFormatError("empty instance file")
    n = rep = edge_list = blue = red = None
    i = 0
    while i < len(lines):
        parts = lines[i].split()
        key = parts[0]
        if key == "n":
            if n is not None:
                raise InstanceFormatError("duplicate n line")
            if len(parts) != 2 or not reference_is_number(parts[1]) or int(parts[1]) < 1:
                raise InstanceFormatError("n line must be 'n <positive integer>'")
            n = int(parts[1])
            if n > 10**6:
                raise InstanceFormatError(f"n={n} exceeds the limit of {10**6}")
        elif key == "rep":
            if n is None:
                raise InstanceFormatError("rep line before n line")
            if rep is not None or edge_list is not None:
                raise InstanceFormatError("multiple rep/edges sections")
            try:
                rep = IntervalRepresentation(reference_parse_representation(" ".join(parts[1:])).events)
            except RepresentationError as err:
                raise InstanceFormatError(f"rep line, {err}") from None
            if rep.n != n:
                raise InstanceFormatError(f"rep has {rep.n} intervals, expected n={n}")
        elif key == "edges":
            if n is None:
                raise InstanceFormatError("edges line before n line")
            if rep is not None or edge_list is not None:
                raise InstanceFormatError("multiple rep/edges sections")
            if len(parts) != 2 or not reference_is_number(parts[1]):
                raise InstanceFormatError("edges line must be 'edges <count>'")
            m = int(parts[1])
            if m > len(lines) - i - 1:
                raise InstanceFormatError(f"expected {m} edge lines")
            edge_list = []
            for line in lines[i + 1 : i + m + 1]:
                edge_parts = line.split()
                if len(edge_parts) != 2 or not all(map(reference_is_number, edge_parts)):
                    raise InstanceFormatError(f"bad edge line: {line!r}")
                u, v = map(int, edge_parts)
                if not (1 <= u <= n and 1 <= v <= n) or u == v:
                    raise InstanceFormatError(f"bad edge ({u}, {v}) for n={n}")
                edge_list.append((u, v))
            i += m
        elif key in ("blue", "red"):
            if n is None:
                raise InstanceFormatError(f"{key} line before n line")
            if (blue if key == "blue" else red) is not None:
                raise InstanceFormatError(f"duplicate {key} line")
            ids = reference_parse_vertex_list(parts[1:], n, key)
            blue, red = (ids, red) if key == "blue" else (blue, ids)
        else:
            raise InstanceFormatError(f"unknown line: {lines[i]!r}")
        i += 1
    if rep is None and edge_list is None:
        raise InstanceFormatError("missing rep or edges section")
    if blue is None or red is None:
        raise InstanceFormatError("missing blue or red line")
    return Instance(n, rep, tuple(edge_list) if edge_list is not None else None, blue, red)


def word_outcome(parse, text):
    """Events and rank lists, or the error's message and position."""
    try:
        rep = parse(text)
    except RepresentationError as err:
        return "error", str(err), err.position
    return "ok", rep.events, (rep.left_rank, rep.right_rank)


def instance_outcome(parse, text):
    try:
        inst = parse(text)
    except InstanceFormatError as err:
        return f"InstanceFormatError: {err}"
    ranks = (inst.rep.left_rank, inst.rep.right_rank) if inst.rep is not None else None
    return inst, ranks


def random_word(rng, n):
    """Tokens of a seeded endpoint word on ids 1..n, each L before its R."""
    events = []
    for vid in rng.sample(range(1, n + 1), n):
        at = rng.randint(0, len(events))
        events.insert(at, f"L{vid}")
        events.insert(rng.randint(at + 1, len(events)), f"R{vid}")
    return events


LONG = "9" * 4301
# numerals after a side letter: zeros, what int() takes beyond ASCII digits,
# ids past any n, a numeral at and past the digit limit, none at all
NUMERALS = ("0", "00", "01", "+3", "-1", "1_0", "١", "３", "²", "9", "5000000000",
            "9" * 4300, LONG, "0" * 4300 + "1", "")
TOKENS = ("L", "R", "L0", "L00", "+3", "1_0", "١", "３", "x", "l1", "r2", "LL1", "L1R1",
          "X2", "L" + LONG, "R" + "9" * 4300)
SEPARATORS = (" ", " ", "  ", "\t", "\xa0", "　", "\x1c", "\n", " \t ")


def mutate_word(tokens, rng):
    tokens = list(tokens)
    at = rng.randrange(len(tokens)) if tokens else 0
    kind = rng.randrange(10)
    if kind == 0 and tokens:  # dropped
        tokens.pop(at)
    elif kind == 1 and tokens:  # duplicated
        tokens.insert(rng.randint(0, len(tokens)), tokens[at])
    elif kind == 2 and tokens:  # swapped
        other = rng.randrange(len(tokens))
        tokens[at], tokens[other] = tokens[other], tokens[at]
    elif kind == 3 and tokens:  # another numeral
        tokens[at] = tokens[at][:1] + rng.choice(NUMERALS)
    elif kind == 4 and tokens:  # another side letter
        tokens[at] = rng.choice(("X", "l", "r", "", "LL", "RL", "R", "L")) + tokens[at][1:]
    elif kind == 5:  # a stray token
        tokens.insert(at, rng.choice(TOKENS))
    elif kind == 6 and tokens:  # another id in or just past range
        tokens[at] = tokens[at][:1] + str(rng.randint(1, len(tokens) // 2 + 2))
    elif kind == 7 and len(tokens) > 1:  # two tokens glued
        tokens[at - 1 : at + 1] = ["".join(tokens[at - 1 : at + 1])]
    elif kind == 8 and tokens:  # a vertex renamed past the others
        new = rng.choice((str(len(tokens)), "5000000000", "9" * 4300))
        tokens = [tok[:1] + new if tok[1:] == tokens[at][1:] else tok for tok in tokens]
    else:  # the other side of an endpoint
        if tokens:
            tokens[at] = {"L": "R", "R": "L"}.get(tokens[at][:1], "L") + tokens[at][1:]
    return tokens


def join_word(tokens, rng):
    sep = rng.choice(SEPARATORS)
    text = "".join(tok + (sep if rng.random() < 0.9 else rng.choice(SEPARATORS)) for tok in tokens)
    return rng.choice(("", " ", "\t")) + text.rstrip(sep) + rng.choice(("", " ", "\xa0"))


def test_endpoint_word_matches_reference_on_seeded_mutations():
    rng = random.Random("endpoint-word")
    seen = set()
    for case in range(24000):
        tokens = random_word(rng, rng.randint(0, 8))
        for _ in range(rng.choice((0, 1, 1, 1, 2, 3))):
            tokens = mutate_word(tokens, rng)
        text = join_word(tokens, rng)
        expected = word_outcome(reference_parse_representation, text)
        assert word_outcome(parse_representation, text) == expected, (case, text)
        seen.add(expected[0] if expected[0] == "ok" else expected[1].split(": ", 1)[1].split()[0])
    assert seen == {"ok", "malformed", "duplicate", "RIGHT", "missing", "vertex"}, seen


def test_endpoint_word_matches_reference_on_the_named_cases():
    cases = ["", " ", "L1 R1", "L1 L0 R1", "L00 R00", "L+3", "L1_0 R1_0", "L١ R١", "L３ R３",
             "L1 R1 L", "L", "R", "L1\tR1", "L1\xa0L2　R1\x1cR2", "L01 R001",
             "L1 R1 L" + LONG + " R" + LONG, "L1 R1 L" + "9" * 4300 + " R" + "9" * 4300,
             "L5000000000 L1 R1 L5000000000", "L1 L2 R1", "R1 L1", "L1 L1 R1 R1",
             "L1 R1 R1", "L1 L3 R1 R3", "L2 R2", "L1 R2 L2 R1"]
    for text in cases:
        expected = word_outcome(reference_parse_representation, text)
        assert word_outcome(parse_representation, text) == expected, text


def random_instance(rng):
    """Lines of a seeded, well-formed edge-list or rep instance file."""
    n = rng.randint(1, 8)
    if rng.random() < 0.25:
        body = ["rep " + " ".join(random_word(rng, n))]
    else:
        pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
        edges = rng.sample(pairs, rng.randint(0, min(len(pairs), 10)))
        body = [f"edges {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    return [f"n {n}", *body, f"blue {rng.randint(1, n)}", f"red {rng.randint(1, n)}"]


EDGE_FIELDS = ("0", "9", "5000000000", "١", "３", "²", "+1", "1_0", "-2", LONG,
               "0" * 4301 + "1", "00" + "1", "x")


def mutate_instance(lines, rng):
    lines = list(lines)
    at = rng.randrange(len(lines))
    fields = lines[at].split() or ["7"]  # a blank line gets a field back
    kind = rng.randrange(10)
    if kind == 0:  # a self-loop
        lines[at] = f"{fields[-1]} {fields[-1]}"
    elif kind == 1:  # a field out of range or malformed
        fields[rng.randrange(len(fields))] = rng.choice(EDGE_FIELDS)
        lines[at] = " ".join(fields)
    elif kind == 2:  # a third field
        lines[at] += " " + rng.choice(("3", "x", "1"))
    elif kind == 3:  # one field only
        lines[at] = fields[0]
    elif kind == 4:  # other separators, a line break among them
        lines[at] = rng.choice(SEPARATORS).join(fields)
    elif kind == 5:  # a dropped or doubled line
        lines.insert(at, lines[at]) if rng.random() < 0.5 else lines.pop(at)
    elif kind == 6:  # an edge count changed, or edges 0
        for i, line in enumerate(lines):
            if line.startswith("edges ") and line[6:].isdigit():
                lines[i] = f"edges {rng.choice((0, max(0, int(line[6:]) + rng.choice((-1, 1)))))}"
    elif kind == 7:  # a comment after a line, or one swallowing a field
        lines[at] = rng.choice((lines[at] + " # note", " ".join(fields[:-1]) + " # " + fields[-1]))
    elif kind == 8:  # blank and comment lines
        lines.insert(at, rng.choice(("", "# c", "   ")))
    else:  # a mutated endpoint word
        if fields[0] == "rep":
            lines[at] = "rep " + join_word(mutate_word(fields[1:], rng), rng)
    return lines


def test_instance_matches_reference_on_seeded_mutations():
    rng = random.Random("instance-edges")
    seen = set()
    for case in range(8000):
        lines = random_instance(rng)
        for _ in range(rng.choice((0, 1, 1, 2))):
            lines = mutate_instance(lines, rng)
        text = "\n".join(lines) + "\n"
        expected = instance_outcome(reference_parse_instance, text)
        assert instance_outcome(parse_instance, text) == expected, (case, text)
        if isinstance(expected, tuple):
            seen.add("rep" if expected[0].rep is not None else "edges")
        else:
            seen.add(expected.split(": ", 1)[1])
    assert {"rep", "edges"} <= seen  # accepted files of both kinds
    for start in ("bad edge line: ", "bad edge (", "expected ", "rep line, token ", "rep has "):
        assert any(message.startswith(start) for message in seen), start


def test_edge_section_matches_reference_on_the_named_cases():
    head = "n 4\nedges {}\n"
    tail = "blue 1\nred 4\n"
    blocks = ["", "1 2", "1 1", "2 2\n1 2", "1 5", "0 1", "1 2 3", "1", "1 2\n3",
              "١ 2", "1 ３", "1 2\n2 ²", f"1 {LONG}", f"{LONG} 1", "1 " + "0" * 4301 + "2",
              "1\t2\n2\xa03\n3　4", "1\x1c2", "1 2\n1 2", "1 2\n2 3 # c\n3 4",
              "x y", "+1 2", "1 2_0"]
    for block in blocks:
        lines = block.split("\n") if block else []
        for count in {len(lines), 0}:
            text = head.format(count) + "".join(line + "\n" for line in lines) + tail
            expected = instance_outcome(reference_parse_instance, text)
            assert instance_outcome(parse_instance, text) == expected, text


UNKNOWN_LINES = ("foo 1", "N 3", "nn 2", "blues 1", "Red 1", "reps L1 R1", "edge 1", "n3")


def move_lines(lines, rng):
    """The lines with one moved, one section of the other kind added, an
    unknown key added or an n, blue or red line doubled."""
    lines = list(lines)
    kind = rng.randrange(4)
    if kind == 0:  # a line moved
        lines.insert(rng.randint(0, len(lines) - 1), lines.pop(rng.randrange(len(lines))))
    elif kind == 1:  # a section of the other kind
        if any(line.startswith("rep") for line in lines):
            section = rng.choice((["edges 1", "1 2"], ["edges 0"]))
        else:
            section = ["rep " + " ".join(random_word(rng, rng.randint(1, 3)))]
        at = rng.randint(0, len(lines))
        lines[at:at] = section
    elif kind == 2:  # an unknown key
        lines.insert(rng.randint(0, len(lines)), rng.choice(UNKNOWN_LINES))
    else:  # a second n, blue or red line
        lines.insert(rng.randint(0, len(lines)), rng.choice(("n 2", "blue 1", "red 1")))
    return lines


def test_instance_line_order_matches_reference_on_seeded_mutations():
    rng = random.Random("instance-order")
    seen = set()
    for case in range(4000):
        lines = random_instance(rng)
        for _ in range(rng.choice((1, 1, 2))):
            lines = move_lines(lines, rng)
        text = "\n".join(lines) + "\n"
        expected = instance_outcome(reference_parse_instance, text)
        assert instance_outcome(parse_instance, text) == expected, (case, text)
        if not isinstance(expected, tuple):
            seen.add(expected.split(": ", 1)[1].split(":")[0])
    assert seen >= {
        "rep line before n line", "edges line before n line",
        "blue line before n line", "red line before n line", "unknown line",
        "multiple rep/edges sections", "duplicate n line", "duplicate blue line",
        "duplicate red line",
    }, seen


def test_instance_line_order_matches_reference_on_the_named_cases():
    n, rep, edges = "n 3", "rep L1 L2 R1 L3 R2 R3", "edges 2\n1 2\n2 3"
    blue, red = "blue 1", "red 3"
    cases = [
        [rep, n, blue, red], [edges, n, blue, red], [blue, n, rep, red],
        [red, n, rep, blue], ["foo 1", n, rep, blue, red], [n, "foo 1", rep, blue, red],
        [n, rep, blue, red, "foo 1"], ["foo 1"], [n, rep, edges, blue, red],
        [n, edges, rep, blue, red], [n, rep, rep, blue, red], [n, edges, blue, red, "edges 0"],
        [n, rep, blue, red, blue], [n, rep, blue, red, red], [n, rep, blue, blue, red],
        [n, blue, red, rep], [n, blue, red, edges], [n, rep, blue, n, red],
        [n, rep, blue], [n, rep, red], [n, blue, red], [n, edges, "red 4", red],
    ]
    for lines in cases:
        text = "\n".join(lines) + "\n"
        expected = instance_outcome(reference_parse_instance, text)
        assert instance_outcome(parse_instance, text) == expected, text
