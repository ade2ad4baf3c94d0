"""Tests for the trivially perfect solver.

Every expected status and move count below was produced by the
brute-force BFS oracle before the solver was written.
"""

import tracemalloc

import pytest

from tokenslide.generate import (
    enumerate_independent_sets,
    enumerate_tp_representations,
    gen_instance,
)
from tokenslide.graphs import Graph, validate_sequence
from tokenslide.intervals import parse_representation
from tokenslide.oracle import SlideSpace
from tokenslide.results import SolverInputError
from tokenslide.trivially_perfect import prepare_tp, solve_tp

K13 = "L1 L2 R2 L3 R3 L4 R4 R1"
K14 = "L1 L2 R2 L3 R3 L4 R4 L5 R5 R1"
STAR5 = "L1 L2 L3 R3 L4 R4 R2 L5 R5 R1"
TWO_PAIRS = "L1 L2 L3 R3 L4 R4 R2 L5 L6 R6 L7 R7 R5 R1"
TWO_COMPONENTS = "L1 L2 R2 L3 R3 R1 L4 L5 R5 L6 R6 R4"


def rep(text):
    return parse_representation(text)


class TestForestParse:
    """prepare_tp reads the nesting from the endpoint string."""

    def test_star_of_stars(self):
        p = prepare_tp(rep(STAR5))
        assert p.roots == (1,)
        assert p.component == [0] * 6
        # 3 and 4 lie in 2, and 2 and 5 lie in 1: each pair meets there
        assert solve_tp(p, (3,), (4,)).moves == ((3, 2), (2, 4))
        assert solve_tp(p, (2,), (5,)).moves == ((2, 1), (1, 5))
        assert solve_tp(p, (3,), (2,)).moves == ((3, 2),)
        assert solve_tp(p, (2,), (1,)).moves == ((2, 1),)

    def test_isolated_roots(self):
        p = prepare_tp(rep("L1 R1 L2 R2"))
        assert p.roots == (1, 2)
        assert p.component == [0, 0, 1]

    def test_two_components(self):
        p = prepare_tp(rep(TWO_COMPONENTS))
        assert p.roots == (1, 4)
        assert p.component == [0, 0, 0, 0, 1, 1, 1]
        assert solve_tp(p, (2,), (3,)).moves == ((2, 1), (1, 3))
        assert solve_tp(p, (5,), (6,)).moves == ((5, 4), (4, 6))

    def test_partial_overlap_rejected(self):
        with pytest.raises(SolverInputError) as exc:
            prepare_tp(rep("L1 L2 R1 R2"))
        assert exc.value.kind == "NOT_TRIVIALLY_PERFECT"
        assert str(exc.value) == "interval 1 partially overlaps an open interval"


class TestTwinPairs:
    def twins(self, text):
        with pytest.raises(SolverInputError) as exc:
            prepare_tp(rep(text))
        assert exc.value.kind == "STRONG_TWINS"
        return exc.value.details

    def test_nested_pair(self):
        assert self.twins("L1 L2 R2 R1") == ((1, 2),)

    def test_chain(self):
        assert self.twins("L1 L2 L3 R3 R2 R1") == ((1, 2), (2, 3))

    def test_sorted_across_the_word(self):
        assert self.twins("L4 L3 R3 L1 L2 R2 R1 R4") == ((1, 2),)
        assert self.twins("L5 L4 R4 R5 L1 L3 R3 R1 L2 R2") == ((1, 3), (4, 5))

    def test_star_is_twin_free(self):
        assert prepare_tp(rep(K13)).roots == (1,)

    def test_laminarity_checked_before_twins(self):
        with pytest.raises(SolverInputError) as exc:
            prepare_tp(rep("L1 L2 R2 R1 L3 L4 R3 R4"))
        assert exc.value.kind == "NOT_TRIVIALLY_PERFECT"


class TestSolveYes:
    def test_leaf_to_leaf_through_root(self):
        res = solve_tp(rep(K13), (2,), (3,))
        assert res.yes and res.moves == ((2, 1), (1, 3))

    def test_root_to_leaf_direct(self):
        res = solve_tp(rep(K13), (1,), (3,))
        assert res.yes and res.moves == ((1, 3),)

    def test_sibling_leaves_via_parent(self):
        res = solve_tp(rep(STAR5), (3,), (4,))
        assert res.yes and res.moves == ((3, 2), (2, 4))

    def test_deep_to_shallow(self):
        res = solve_tp(rep(STAR5), (3,), (5,))
        assert res.yes and res.moves == ((3, 1), (1, 5))

    def test_internal_start(self):
        res = solve_tp(rep(STAR5), (2,), (5,))
        assert res.yes and res.moves == ((2, 1), (1, 5))

    def test_two_sibling_pairs(self):
        res = solve_tp(rep(TWO_PAIRS), (3, 6), (4, 7))
        assert res.yes and res.move_count == 4
        assert res.moves == ((3, 2), (2, 4), (6, 5), (5, 7))
        g = Graph.from_representation(rep(TWO_PAIRS))
        assert validate_sequence(g, (3, 6), (4, 7), res.moves).ok

    def test_two_components(self):
        res = solve_tp(rep(TWO_COMPONENTS), (2, 5), (3, 6))
        assert res.yes and res.moves == ((2, 1), (1, 3), (5, 4), (4, 6))

    def test_identity(self):
        res = solve_tp(rep(STAR5), (3, 5), (3, 5))
        assert res.yes and res.moves == ()

    def test_isolated_identity(self):
        res = solve_tp(rep("L1 R1 L2 R2"), (1,), (1,))
        assert res.yes and res.moves == ()

    def test_empty_sets(self):
        res = solve_tp(rep(K13), (), ())
        assert res.yes and res.moves == ()


class TestSolveNo:
    def test_settled_subtree_blocks_crossing(self):
        """A balanced child subtree pins the root for every other token."""
        r = rep("L1 L2 L3 R3 L4 R4 R2 L5 R5 L6 R6 R1")
        res = solve_tp(r, (3, 5), (4, 6))
        assert not res.yes
        assert res.reason == "MERGE_CASE5"
        assert res.witness == (1,)

    def test_overlapping_sets_on_star(self):
        res = solve_tp(rep(K13), (2, 3), (3, 4))
        assert not res.yes and res.reason == "MERGE_CASE5" and res.witness == (1,)

    def test_two_blues_at_root(self):
        res = solve_tp(rep(K14), (2, 3), (4, 5))
        assert not res.yes and res.reason == "MERGE_CASE4" and res.witness == (1,)

    def test_own_token_counts_toward_case4(self):
        r = rep("L1 L2 R2 L3 R3 L4 L5 R5 L6 R6 R4 R1")
        res = solve_tp(r, (4, 2), (5, 6))
        assert not res.yes and res.reason == "MERGE_CASE4" and res.witness == (4,)

    def test_cross_component(self):
        res = solve_tp(rep("L1 R1 L2 R2"), (1,), (2,))
        assert not res.yes and res.reason == "COMPONENT_UNBALANCED"
        assert res.witness == (1,)

    def test_unbalanced_components(self):
        res = solve_tp(rep(TWO_COMPONENTS), (2, 3), (5, 6))
        assert not res.yes and res.reason == "COMPONENT_UNBALANCED"
        assert res.witness == (1,)

    def test_unbalanced_witness_is_the_outermost_interval(self):
        # the first component's root, 3, is not its smallest id, 1
        res = solve_tp(rep("L3 L1 R1 L2 R2 R3 L4 R4"), (1,), (4,))
        assert (res.yes, res.reason, res.witness) == (False, "COMPONENT_UNBALANCED", (3,))

    def test_cardinality_mismatch(self):
        res = solve_tp(rep(K13), (2,), (3, 4))
        assert not res.yes and res.reason == "CARDINALITY_MISMATCH"


class TestSolveErrors:
    def test_twins_rejected(self):
        with pytest.raises(SolverInputError) as exc:
            solve_tp(rep("L1 L2 R2 R1"), (1,), (2,))
        assert exc.value.kind == "STRONG_TWINS"
        assert exc.value.details == ((1, 2),)

    def test_not_laminar_rejected(self):
        with pytest.raises(SolverInputError) as exc:
            solve_tp(rep("L1 L2 R1 R2"), (1,), (2,))
        assert exc.value.kind == "NOT_TRIVIALLY_PERFECT"

    def test_comparable_blue_rejected(self):
        with pytest.raises(SolverInputError) as exc:
            solve_tp(rep(K13), (1, 2), (3, 4))
        assert exc.value.kind == "NOT_INDEPENDENT"

    def test_unknown_vertex(self):
        with pytest.raises(SolverInputError) as exc:
            solve_tp(rep(K13), (9,), (3,))
        assert exc.value.kind == "UNKNOWN_VERTEX"


class TestDecideMode:
    def test_yes_without_moves(self):
        res = solve_tp(rep(TWO_PAIRS), (3, 6), (4, 7), decide=True)
        assert res.yes and res.moves is None

    def test_no_matches_full_mode(self):
        res = solve_tp(rep(K14), (2, 3), (4, 5), decide=True)
        assert not res.yes and res.reason == "MERGE_CASE4"

    def test_statuses_agree_on_random_instances(self):
        for seed in range(20):
            inst = gen_instance("tp", 30, 4, seed=seed)
            full = solve_tp(inst.rep, inst.blue, inst.red)
            quick = solve_tp(inst.rep, inst.blue, inst.red, decide=True)
            assert full.status == quick.status
            assert full.reason == quick.reason


class TestMoveBound:
    def test_random_yes_instances_stay_under_two_per_token(self):
        yes_seen = 0
        for n, k in [(10, 2), (12, 2), (16, 2), (20, 3)]:
            for seed in range(40):
                inst = gen_instance("tp", n, k, seed=seed)
                res = solve_tp(inst.rep, inst.blue, inst.red)
                if not res.yes:
                    continue
                yes_seen += 1
                assert res.move_count <= 2 * len(inst.blue)
                g = inst.graph
                assert validate_sequence(g, inst.blue, inst.red, res.moves).ok
        assert yes_seen > 20


class TestAgainstOracle:
    def test_exhaustive_small(self):
        """Status and count match BFS on every shape with up to 7 intervals."""
        checked = yes_count = 0
        for n in range(1, 8):
            for r in enumerate_tp_representations(n):
                g = Graph.from_representation(r)
                space = SlideSpace(g)
                for k in (1, 2, 3):
                    sets = list(enumerate_independent_sets(g, k))
                    for blue in sets:
                        for red in sets:
                            res = solve_tp(r, blue, red)
                            dist = space.distance(blue, red)
                            if dist is None:
                                assert not res.yes, (r.serialize(), blue, red)
                            else:
                                assert res.yes, (r.serialize(), blue, red)
                                assert res.move_count == dist
                                check = validate_sequence(g, blue, red, res.moves)
                                assert check.ok, (r.serialize(), blue, red)
                                yes_count += 1
                            checked += 1
        assert checked > 2000
        assert yes_count > 400


def test_prepared_value_holds_no_forest():
    # a component index per vertex takes about 8 bytes here; children
    # tuples, preorder ranges and a stored postorder took about 65
    rep = gen_instance("tp", 10_000, 30, seed=30).rep
    tracemalloc.start()
    try:
        p = prepare_tp(rep)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert p.roots == (1,)
    assert held <= 24 * rep.n, held / rep.n
