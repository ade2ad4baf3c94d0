"""Sliding-token solver tests for caterpillar trees.

Expected statuses, move counts, and witnesses in this file were computed
with the exhaustive breadth-first oracle before the solver existed.
"""

import pytest

from tokenslide.caterpillar import mark_locked, prepare_caterpillar, solve_caterpillar
from tokenslide.generate import (
    enumerate_caterpillar_graphs,
    enumerate_independent_sets,
    quadratic_path_instance,
)
from tokenslide.graphs import Graph, validate_sequence
from tokenslide.oracle import bfs
from tokenslide.results import SolverInputError


def path(n):
    return Graph(n, ((i, i + 1) for i in range(1, n)))


def has_legal_move(g, tokens):
    """Adjacency-level check that some token can slide right now."""
    ts = set(tokens)
    for t in ts:
        for u in g.adj[t]:
            if u in ts:
                continue
            if all(w == t or w not in ts for w in g.adj[u]):
                return True
    return False


# spine 1-2-3-4 with one leaf per spine vertex: 5@1, 6@2, 7@3, 8@4
COMB = Graph(8, [(1, 2), (2, 3), (3, 4), (1, 5), (2, 6), (3, 7), (4, 8)])

# spine 1-2-3 with leaves 4@1, 5@2, 6@3
PARK = Graph(6, [(1, 2), (2, 3), (1, 4), (2, 5), (3, 6)])

# spine 1-2-3-4, leaves 6@1 and 7@3, path tail 5 hanging off 4
LOCK = Graph(7, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 6), (3, 7)])

# spine 1-2-3, leaves 4@1 and 5@3
WALL5 = Graph(5, [(1, 2), (2, 3), (1, 4), (3, 5)])

STAR4 = Graph(4, [(1, 2), (1, 3), (1, 4)])


class TestSolveYes:
    def test_path_swap(self):
        res = solve_caterpillar(path(4), (1, 3), (2, 4))
        assert res.yes
        assert res.moves == ((3, 4), (1, 2))

    def test_path_pipeline(self):
        res = solve_caterpillar(path(8), (1,), (8,))
        assert res.move_count == 7
        assert res.moves == tuple((i, i + 1) for i in range(1, 8))

    def test_path_pull_in_from_both_ends(self):
        res = solve_caterpillar(path(5), (1, 5), (2, 4))
        assert res.yes
        assert res.moves == ((1, 2), (5, 4))

    def test_leaf_to_leaf_inside_one_group(self):
        g = Graph(5, [(1, 2), (1, 3), (1, 4), (2, 5)])
        res = solve_caterpillar(g, (3,), (4,))
        assert res.moves == ((3, 1), (1, 4))

    def test_park_and_return(self):
        res = solve_caterpillar(PARK, (4, 2), (5, 3))
        assert res.move_count == 6
        assert res.moves == ((2, 3), (4, 1), (3, 6), (1, 2), (2, 5), (6, 3))
        check = validate_sequence(PARK, (4, 2), (5, 3), res.moves)
        assert check.ok, check.reason

    def test_cascade_forces_two_detours(self):
        # distance sum is 7; both spine exits of the middle token start
        # blocked, so two park-and-return detours are unavoidable
        res = solve_caterpillar(COMB, (5, 2, 7), (6, 3, 8))
        assert res.move_count == 11
        check = validate_sequence(COMB, (5, 2, 7), (6, 3, 8), res.moves)
        assert check.ok, check.reason

    def test_cascade_reverse_same_count(self):
        res = solve_caterpillar(COMB, (6, 3, 8), (5, 2, 7))
        assert res.move_count == 11
        check = validate_sequence(COMB, (6, 3, 8), (5, 2, 7), res.moves)
        assert check.ok, check.reason

    def test_leaf_shift_needs_no_detour(self):
        res = solve_caterpillar(COMB, (5, 6, 7), (6, 7, 8))
        assert res.move_count == 9
        assert res.moves == (
            (7, 3), (3, 4), (4, 8),
            (6, 2), (2, 3), (3, 7),
            (5, 1), (1, 2), (2, 6),
        )

    def test_shoves_follow_chained_block_order(self):
        # spine 1..11 with leaf 11 + i on spine cell i; the block of the
        # 18 -> 17 token precedes the 3 -> 14 one only through a chain of
        # order constraints.  Both orders take the oracle's 22 moves; this
        # pins the one the scheduler picks.
        g = Graph(22, [(i, i + 1) for i in range(1, 11)] + [(i, 11 + i) for i in range(1, 12)])
        blue, red = (3, 12, 15, 18, 19, 20, 22), (5, 8, 10, 14, 15, 17, 18)
        res = solve_caterpillar(g, blue, red)
        assert res.move_count == 22
        assert res.moves[:4] == ((18, 7), (7, 6), (6, 17), (3, 2))
        check = validate_sequence(g, blue, red, res.moves)
        assert check.ok, check.reason

    def test_identical_twin_group_splits_the_spine(self):
        g = Graph(7, [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6), (3, 7)])
        res = solve_caterpillar(g, (6, 7, 1), (6, 7, 2))
        assert res.yes
        assert res.moves == ((1, 2),)

    def test_forest_solves_components_independently(self):
        g = Graph(6, [(1, 2), (2, 3), (4, 5), (5, 6)])
        res = solve_caterpillar(g, (1, 4), (3, 6))
        assert res.moves == ((1, 2), (2, 3), (4, 5), (5, 6))

    def test_star_identity(self):
        res = solve_caterpillar(STAR4, (2, 3), (2, 3))
        assert res.yes and res.moves == ()

    def test_locked_identity_is_yes(self):
        res = solve_caterpillar(WALL5, (2, 4, 5), (2, 4, 5))
        assert res.yes and res.moves == ()

    def test_no_tokens(self):
        res = solve_caterpillar(path(3), (), ())
        assert res.yes and res.moves == ()

    def test_single_vertex(self):
        res = solve_caterpillar(Graph(1, ()), (1,), (1,))
        assert res.yes and res.moves == ()

    @pytest.mark.parametrize("k,count", [(1, 7), (2, 26), (3, 57)])
    def test_quadratic_family(self, k, count):
        inst = quadratic_path_instance(k)
        res = solve_caterpillar(inst.graph, inst.blue, inst.red)
        assert res.yes
        assert res.move_count == count
        check = validate_sequence(inst.graph, inst.blue, inst.red, res.moves)
        assert check.ok, check.reason


class TestSolveNo:
    def test_twin_leaves_blocked_on_star(self):
        res = solve_caterpillar(STAR4, (2, 3), (2, 4))
        assert not res.yes
        assert res.reason == "TWIN_LEAVES_BLOCKED"
        assert res.witness == (1,)

    def test_two_red_leaves_in_one_group(self):
        g = Graph(6, [(1, 2), (2, 3), (3, 4), (1, 5), (3, 6)])
        res = solve_caterpillar(g, (5, 2), (6, 4))
        assert res.reason == "TWIN_LEAVES_BLOCKED"
        assert res.witness == (3,)

    def test_lock_mismatch(self):
        # blue is frozen solid but red can dissolve through the free
        # leaf 7, so the two frozen regions differ
        res = solve_caterpillar(LOCK, (6, 2, 7), (6, 2, 5))
        assert res.reason == "LOCK_MISMATCH"
        assert res.witness == (1, 2, 3, 6, 7)

    def test_component_unbalanced_in_forest(self):
        g = Graph(6, [(1, 2), (2, 3), (4, 5), (5, 6)])
        res = solve_caterpillar(g, (1, 3), (4, 6))
        assert res.reason == "COMPONENT_UNBALANCED"
        assert res.witness == (1,)

    def test_component_unbalanced_after_split(self):
        g = Graph(7, [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6), (3, 7)])
        res = solve_caterpillar(g, (6, 7, 1), (6, 7, 5))
        assert res.reason == "COMPONENT_UNBALANCED"
        assert res.witness == (1,)

    def test_cardinality_mismatch(self):
        res = solve_caterpillar(path(5), (1,), (3, 5))
        assert res.reason == "CARDINALITY_MISMATCH"
        assert res.witness == (1, 2)


class TestSolveErrors:
    def test_single_edge_graph_is_a_twin_pair(self):
        with pytest.raises(SolverInputError) as err:
            solve_caterpillar(Graph(2, [(1, 2)]), (1,), (2,))
        assert err.value.kind == "STRONG_TWINS"
        assert err.value.details == ((1, 2),)

    def test_twin_pair_component_inside_forest(self):
        g = Graph(5, [(1, 2), (3, 4), (4, 5)])
        with pytest.raises(SolverInputError) as err:
            solve_caterpillar(g, (1,), (2,))
        assert err.value.kind == "STRONG_TWINS"
        assert err.value.details == ((1, 2),)

    def test_cycle_rejected(self):
        with pytest.raises(SolverInputError) as err:
            solve_caterpillar(Graph(3, [(1, 2), (2, 3), (1, 3)]), (1,), (3,))
        assert err.value.kind == "CYCLIC"

    def test_spider_rejected(self):
        g = Graph(7, [(1, 2), (2, 3), (1, 4), (4, 5), (1, 6), (6, 7)])
        with pytest.raises(SolverInputError) as err:
            solve_caterpillar(g, (3,), (5,))
        assert err.value.kind == "NOT_CATERPILLAR"

    def test_adjacent_blue_tokens(self):
        with pytest.raises(SolverInputError) as err:
            solve_caterpillar(path(4), (1, 2), (3, 4))
        assert err.value.kind == "NOT_INDEPENDENT"

    def test_duplicate_token(self):
        with pytest.raises(SolverInputError) as err:
            solve_caterpillar(path(5), (2, 2), (4, 5))
        assert err.value.kind == "NOT_INDEPENDENT"

    def test_unknown_vertex(self):
        with pytest.raises(SolverInputError) as err:
            solve_caterpillar(path(3), (7,), (1,))
        assert err.value.kind == "UNKNOWN_VERTEX"


class TestMarkLocked:
    def test_wall_between_two_leaf_anchors(self):
        assert mark_locked(WALL5, (2, 4, 5)) == frozenset({1, 2, 3, 4, 5})

    def test_no_anchor_means_no_marks(self):
        assert mark_locked(WALL5, (2, 4)) == frozenset()

    def test_star_with_two_leaf_tokens(self):
        assert mark_locked(STAR4, (2, 3)) == frozenset({1, 2, 3})

    def test_wall_continues_past_free_leaf_group(self):
        g = Graph(8, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 6), (3, 7), (5, 8)])
        assert not has_legal_move(g, {6, 2, 4, 8})
        assert mark_locked(g, (6, 2, 4, 8)) == frozenset({1, 2, 3, 4, 5, 6, 8})

    def test_free_leaf_kills_short_wall(self):
        assert mark_locked(LOCK, (6, 2, 5)) == frozenset()

    def test_single_spine_token(self):
        assert mark_locked(path(5), (3,)) == frozenset()

    def test_isolated_vertex_token(self):
        assert mark_locked(Graph(1, ()), (1,)) == frozenset({1})

    def test_single_edge_is_a_twin_pair(self):
        # mark_locked prepares the graph as solve_caterpillar does
        with pytest.raises(SolverInputError) as err:
            mark_locked(Graph(2, [(1, 2)]), (1,))
        assert err.value.kind == "STRONG_TWINS"
        assert err.value.details == ((1, 2),)

    def test_prepared_value_marks_like_the_graph(self):
        prepared = prepare_caterpillar(WALL5)
        assert mark_locked(prepared, (2, 4, 5)) == frozenset({1, 2, 3, 4, 5})
        assert mark_locked(prepared, (2, 4)) == frozenset()

    def test_stuck_iff_all_tokens_marked(self):
        checked = 0
        for n in range(3, 9):
            for g in enumerate_caterpillar_graphs(n):
                for k in range(1, 4):
                    for tokens in enumerate_independent_sets(g, k):
                        marked = mark_locked(g, tokens)
                        stuck = not has_legal_move(g, tokens)
                        assert stuck == set(tokens).issubset(marked), (
                            g.edges, tokens, sorted(marked))
                        checked += 1
        assert checked > 1500


class TestDecideMode:
    def test_decide_skips_the_schedule(self):
        res = solve_caterpillar(COMB, (5, 2, 7), (6, 3, 8), decide=True)
        assert res.yes and res.moves is None

    def test_decide_keeps_no_answers(self):
        res = solve_caterpillar(STAR4, (2, 3), (2, 4), decide=True)
        assert res.reason == "TWIN_LEAVES_BLOCKED"

    def test_decide_agrees_with_full_solve(self):
        for n in range(3, 7):
            for g in enumerate_caterpillar_graphs(n):
                sets = list(enumerate_independent_sets(g, 2))
                for blue in sets:
                    for red in sets:
                        full = solve_caterpillar(g, blue, red)
                        fast = solve_caterpillar(g, blue, red, decide=True)
                        assert fast.status == full.status
                        assert fast.reason == full.reason


class TestAgainstOracle:
    def test_exhaustive_small_caterpillars(self):
        checked = yes_count = 0
        for n in range(3, 8):
            for g in enumerate_caterpillar_graphs(n):
                for k in (1, 2):
                    sets = list(enumerate_independent_sets(g, k))
                    for blue in sets:
                        for red in sets:
                            res = solve_caterpillar(g, blue, red)
                            ref = bfs(g, blue, red)
                            assert res.yes == (ref.status == "REACHABLE"), (
                                g.edges, blue, red, res.reason)
                            if res.yes:
                                assert res.move_count == ref.distance, (
                                    g.edges, blue, red,
                                    res.move_count, ref.distance)
                                check = validate_sequence(g, blue, red, res.moves)
                                assert check.ok, (g.edges, blue, red, check.reason)
                                yes_count += 1
                            checked += 1
        assert checked > 3500
        assert yes_count > 1000

    def test_exhaustive_three_tokens(self):
        checked = 0
        for n in range(4, 7):
            for g in enumerate_caterpillar_graphs(n):
                sets = list(enumerate_independent_sets(g, 3))
                for blue in sets:
                    for red in sets:
                        res = solve_caterpillar(g, blue, red)
                        ref = bfs(g, blue, red)
                        assert res.yes == (ref.status == "REACHABLE")
                        if res.yes:
                            assert res.move_count == ref.distance
                            check = validate_sequence(g, blue, red, res.moves)
                            assert check.ok, (g.edges, blue, red, check.reason)
                        checked += 1
        assert checked > 100
