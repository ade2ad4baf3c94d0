"""Instance and sequence file formats."""

import pytest

from tokenslide.instances import (
    MAX_N,
    InstanceFormatError,
    parse_instance,
    parse_sequence,
    serialize_instance,
    serialize_sequence,
)

REP_TEXT = """\
# a path on five vertices
n 5
rep L1 L2 R1 L3 R2 L4 R3 L5 R4 R5
blue 1 3
red 2 4
"""

EDGE_TEXT = """\
n 4
edges 3
1 2
2 3
3 4
blue 1
red 4
"""


def test_parse_rep_instance():
    inst = parse_instance(REP_TEXT)
    assert inst.n == 5
    assert inst.rep is not None
    assert inst.blue == (1, 3)
    assert inst.red == (2, 4)
    assert inst.graph.m == 4


def test_parse_edge_instance():
    inst = parse_instance(EDGE_TEXT)
    assert inst.rep is None
    assert inst.edge_list == ((1, 2), (2, 3), (3, 4))
    assert inst.graph.distance(1, 4) == 3


def test_comments_and_blanks_ignored():
    text = "\n# hi\nn 2\n\nrep L1 R1 L2 R2  # inline\nblue 1\nred 2\n"
    inst = parse_instance(text)
    assert inst.n == 2


def test_round_trip_rep():
    inst = parse_instance(REP_TEXT)
    assert parse_instance(serialize_instance(inst)) == inst


def test_round_trip_edges():
    inst = parse_instance(EDGE_TEXT)
    assert parse_instance(serialize_instance(inst)) == inst


@pytest.mark.parametrize(
    "mutation",
    [
        ("n 5", "n 0"),
        ("blue 1 3", "blue 1 9"),
        ("blue 1 3", "blue 1 1"),
        ("red 2 4", ""),
        ("rep L1 L2 R1 L3 R2 L4 R3 L5 R4 R5", "rep L1 R1"),
        ("rep L1 L2 R1 L3 R2 L4 R3 L5 R4 R5", "edges xyz"),
    ],
)
def test_malformed_instances_rejected(mutation):
    old, new = mutation
    with pytest.raises(InstanceFormatError):
        parse_instance(REP_TEXT.replace(old, new))


def test_duplicate_sections_rejected():
    with pytest.raises(InstanceFormatError):
        parse_instance(REP_TEXT + "blue 2\n")


def test_missing_edge_lines_rejected():
    with pytest.raises(InstanceFormatError):
        parse_instance("n 3\nedges 5\n1 2\nblue 1\nred 3\n")


def test_sequence_round_trip():
    moves = parse_sequence("MOVES 2\n1 2\n2 3\n")
    assert moves == ((1, 2), (2, 3))
    assert serialize_sequence(moves) == "MOVES 2\n1 2\n2 3\n"


@pytest.mark.parametrize("moves", [((1, 2, 3), (4,)), ((1,),), ((1, 2), (3, 4, 5)), ((),)])
def test_serialize_sequence_refuses_a_move_that_is_not_a_pair(moves):
    # ((1, 2, 3), (4,)) flattens to two well-formed pairs; it must not be written
    with pytest.raises(ValueError, match="pair"):
        serialize_sequence(moves)


def test_serialize_sequence_writes_non_int_vertices_as_given():
    """A float or bool is written as ``str`` shows it, not truncated to
    another vertex, so reading the file back fails instead of differing."""
    text = serialize_sequence(((2.7, 3), (True, 4)))
    assert text == "MOVES 2\n2.7 3\nTrue 4\n"
    with pytest.raises(InstanceFormatError, match="bad move line"):
        parse_sequence(text)


def test_sequence_count_mismatch_rejected():
    with pytest.raises(InstanceFormatError):
        parse_sequence("MOVES 3\n1 2\n")


def test_sequence_bad_header_rejected():
    with pytest.raises(InstanceFormatError):
        parse_sequence("2\n1 2\n2 3\n")


# Numerals int() takes but the formats refuse: a superscript (int() raises
# on it), Arabic-Indic and fullwidth digits, an underscore, and signs.
BAD_NUMERALS = ("²", "١", "３", "1_0", "+3", "-3")

# field: (file text with {} in that field, a numeral that parses there,
# the message every bad numeral gets); "MOVES" texts are sequence files
NUMERIC_FIELDS = {
    "n": ("n {}\nedges 0\nblue 1\nred 1\n", "1", "n line must be 'n <positive integer>'"),
    "rep": (
        "n 2\nrep L{} L2 R1 R2\nblue 1\nred 1\n",
        "1",
        "rep line, token 1: malformed endpoint token 'L{}'",
    ),
    "edges": ("n 3\nedges {}\n1 2\nblue 1\nred 1\n", "1", "edges line must be 'edges <count>'"),
    "edge": ("n 3\nedges 1\n1 {}\nblue 1\nred 1\n", "2", "bad edge line: '1 {}'"),
    "blue": ("n 3\nedges 1\n1 2\nblue {}\nred 1\n", "3", "non-integer vertex id in blue line"),
    "red": ("n 3\nedges 1\n1 2\nblue 1\nred {}\n", "3", "non-integer vertex id in red line"),
    "MOVES": ("MOVES {}\n2 3\n", "1", "sequence file must start with 'MOVES <count>'"),
    "move": ("MOVES 1\n2 {}\n", "3", "bad move line: '2 {}'"),
}


@pytest.mark.parametrize("field", sorted(NUMERIC_FIELDS))
def test_numeric_field_takes_ascii_digits_only(field):
    template, good, message = NUMERIC_FIELDS[field]
    parse = parse_sequence if field in ("MOVES", "move") else parse_instance
    parse(template.format(good))
    for bad in BAD_NUMERALS:
        with pytest.raises(InstanceFormatError) as err:
            parse(template.format(bad))
        assert str(err.value) == message.format(bad), bad


def test_n_above_the_limit_is_a_format_error():
    """The n line is checked before any list of n entries is built."""
    text = "n {}\nedges 1\n1 2\nblue 1\nred 2\n"
    assert parse_instance(text.format(MAX_N)).n == MAX_N
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(text.format(MAX_N + 1))
    assert str(err.value) == f"n={MAX_N + 1} exceeds the limit of {MAX_N}"


def test_bad_rep_token_is_a_format_error_with_its_position():
    with pytest.raises(InstanceFormatError) as err:
        parse_instance("n 2\nrep L1 X2 R1 R2\nblue 1\nred 1\n")
    assert str(err.value) == "rep line, token 2: malformed endpoint token 'X2'"
