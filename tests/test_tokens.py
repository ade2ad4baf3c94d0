"""The token-set check shared by all solvers and the oracle: token sets
may arrive as any iterable, and each one is read exactly once."""

import pytest

from tokenslide.caterpillar import mark_locked, solve_caterpillar
from tokenslide.generate import path_representation
from tokenslide.graphs import Graph, ValidationResult, validate_sequence
from tokenslide.intervals import parse_representation
from tokenslide.oracle import bfs
from tokenslide.proper import solve_proper
from tokenslide.results import SolverInputError, check_tokens, checked_tokens
from tokenslide.trivially_perfect import solve_tp

P6 = path_representation(6)
P6_GRAPH = Graph.from_representation(P6)
# interval 1 holds 2, 3 and 4: the star K_{1,3}
STAR = parse_representation("L1 L2 R2 L3 R3 L4 R4 R1")
# spine 1-2-3 with end leaves 4 and 5; leaf, middle, leaf is a wall
WALL5 = Graph(5, [(1, 2), (2, 3), (1, 4), (3, 5)])
P4_GRAPH = Graph.from_representation(path_representation(4))

CASES = [
    (solve_proper, P6, (1, 3), (4, 6)),
    (solve_proper, P6, (1, 2), (4, 6)),
    (solve_proper, P6, (1, 3), (4, 7)),
    (solve_caterpillar, P6_GRAPH, (1, 3), (4, 6)),
    (solve_caterpillar, P6_GRAPH, (1, 2), (4, 6)),
    (solve_caterpillar, P6_GRAPH, (1, 3), (4, 4)),
    (solve_tp, STAR, (2, 3), (3, 4)),
    (solve_tp, STAR, (1, 2), (3, 4)),
    (solve_tp, STAR, (2, 3), (0, 4)),
    (bfs, P6_GRAPH, (1, 3), (4, 6)),
    (bfs, P6_GRAPH, (1, 2), (4, 6)),
    (bfs, P6_GRAPH, (1, 3), (4, 7)),
]


def outcome(solver, structure, blue, red):
    try:
        return solver(structure, blue, red)
    except SolverInputError as err:
        return err.kind, str(err), err.details


@pytest.mark.parametrize("solver, structure, blue, red", CASES)
def test_iterators_answer_like_tuples(solver, structure, blue, red):
    expected = outcome(solver, structure, blue, red)
    assert outcome(solver, structure, iter(blue), iter(red)) == expected


def test_touching_blue_is_rejected_from_an_iterator():
    for solver, structure in ((solve_proper, P6), (solve_caterpillar, P6_GRAPH)):
        with pytest.raises(SolverInputError) as exc:
            solver(structure, iter([1, 2]), iter([4, 6]))
        assert exc.value.kind == "NOT_INDEPENDENT"
        assert exc.value.details == (1, 2)


def test_mark_locked_reads_an_iterator():
    assert mark_locked(WALL5, iter((2, 4, 5))) == frozenset({1, 2, 3, 4, 5})


@pytest.mark.parametrize(
    "tokens, kind",
    [
        ((2, 6), "UNKNOWN_VERTEX"),
        ((4, 4), "NOT_INDEPENDENT"),
        ((1, 4), "NOT_INDEPENDENT"),
    ],
)
def test_mark_locked_checks_the_token_set(tokens, kind):
    with pytest.raises(SolverInputError) as exc:
        mark_locked(WALL5, tokens)
    assert exc.value.kind == kind


@pytest.mark.parametrize(
    "tokens, kind",
    [
        ((1, 1), "NOT_INDEPENDENT"),
        ((0,), "UNKNOWN_VERTEX"),
        ((5,), "UNKNOWN_VERTEX"),
        ((-1,), "UNKNOWN_VERTEX"),
        ((1, 2), "NOT_INDEPENDENT"),
    ],
)
def test_bfs_rejects_a_bad_set_like_the_solvers(tokens, kind):
    good = (1, 3) if len(tokens) == 2 else (1,)
    for blue, red in ((tokens, good), (good, tokens)):
        with pytest.raises(SolverInputError) as exc:
            bfs(P4_GRAPH, blue, red)
        assert exc.value.kind == kind
        expected = outcome(solve_caterpillar, P4_GRAPH, blue, red)
        assert outcome(bfs, P4_GRAPH, blue, red) == expected


# (1, 3) is independent on each first structure and touches on each second:
# paths against stars centred on 1
@pytest.mark.parametrize("home, other, solver", [
    (P6, STAR, solve_tp),
    (Graph(3, [(1, 2), (2, 3)]), Graph.from_representation(STAR), solve_caterpillar),
    (P6_GRAPH, Graph.from_representation(STAR), solve_caterpillar),
])
def test_a_set_checked_on_one_structure_is_checked_again_on_another(home, other, solver):
    tokens = checked_tokens((1, 3), home)
    assert check_tokens("blue", tokens, home) is tokens
    with pytest.raises(SolverInputError) as exc:
        check_tokens("blue", tokens, other)
    assert (exc.value.kind, str(exc.value), exc.value.details) == (
        "NOT_INDEPENDENT", "blue tokens touch each other", (1, 3)
    )
    with pytest.raises(SolverInputError, match="blue tokens touch"):
        solver(other, tokens, tokens)
    touching = ValidationResult(False, 0, "NOT_INDEPENDENT")
    assert validate_sequence(other, tokens, tokens, []) == touching
    # a set checked on the structure itself does not vouch for the other one
    assert validate_sequence(other, tokens, checked_tokens((1,), other), []) == touching
    assert validate_sequence(home, tokens, tokens, []) == ValidationResult(True)


def test_a_checked_set_keeps_the_range_check_elsewhere():
    tokens = checked_tokens((1, 5), P6_GRAPH)
    with pytest.raises(SolverInputError, match="token 5 is not a vertex"):
        check_tokens("red", tokens, P4_GRAPH)
    with pytest.raises(ValueError, match="blue vertex out of range 1..4"):
        validate_sequence(P4_GRAPH, tokens, tokens, [])
