"""Tests for the proper interval solver.

Expected move counts were computed with the brute-force BFS oracle
before the solver existed; the wide path example is checked against
per-token distance sums and full sequence validation.  The colored
string, block and block-order classes check the shared block layer
(``tokenslide.blocks``) on the strings the proper solver builds: keyed
by canonical position, with boundaries linked inside one component.
"""

import random

import pytest
from walks import reference_walk

from tokenslide import proper

from tokenslide.generate import (
    enumerate_independent_sets,
    enumerate_proper_representations,
    gen_instance,
    path_representation,
    quadratic_path_instance,
)
from tokenslide.blocks import BLUE, RED, block_order, boundary_edges, split_blocks
from tokenslide.graphs import Graph, find_strong_twins, validate_sequence
from tokenslide.intervals import GraphClass, IntervalRepresentation, parse_representation
from tokenslide.oracle import SlideSpace, bfs
from tokenslide.proper import _walk, prepare_proper, solve_proper
from tokenslide.results import SolverInputError

# Path on 36 vertices with nine tokens per side, chosen so the colored
# string splits into four runs between zeroes of the height profile.
WIDE_N = 36
WIDE_BLUE = (2, 4, 10, 18, 22, 26, 30, 32, 34)
WIDE_RED = (6, 8, 12, 14, 16, 20, 24, 28, 36)


# two disjoint three-vertex paths, 1-2-3 and 4-5-6
TWO_PATHS = "L1 L2 R1 L3 R2 R3 L4 L5 R4 L6 R5 R6"


def wide_rep():
    return path_representation(WIDE_N)


def proper_blocks(rep, blue, red):
    """The blocks of the colored string ``solve_proper`` builds: blue
    starts and red targets keyed by canonical position: the left order,
    as ``prepare_proper`` maps it."""
    pos = {v: i for i, v in enumerate(rep.left_order(), start=1)}
    return split_blocks([(pos[v], BLUE, v) for v in blue] + [(pos[v], RED, v) for v in red])


def colored_string(rep, blue, red):
    """The whole string as (vertex, "B" or "R") entries."""
    return tuple(
        (v, "B" if color == BLUE else "R")
        for block in proper_blocks(rep, blue, red)
        for _, color, v in block
    )


def compute_heights(entries) -> tuple[int, ...]:
    """Prefix balance of the string: +1 per blue entry, -1 per red."""
    h = [0]
    for _, color in entries:
        h.append(h[-1] + (1 if color == "B" else -1))
    return tuple(h)


def spans(blocks):
    """1-based inclusive ranges of string entries, one per block."""
    out, end = [], 0
    for block in blocks:
        out.append((end + 1, end + len(block)))
        end += len(block)
    return out


def token_ranges(blocks):
    """1-based inclusive ranges of token indices (blue ranks), one per block."""
    out, last = [], 0
    for block in blocks:
        count = sum(1 for e in block if e[1] == BLUE)
        out.append((last + 1, last + count))
        last += count
    return out


def start_colors(blocks):
    return ["B" if block[0][1] == BLUE else "R" for block in blocks]


def processing_order(rep, blue, red):
    blocks = proper_blocks(rep, blue, red)
    component = prepare_proper(rep).component
    edges = boundary_edges(blocks, lambda l, r: component[l[2]] == component[r[2]])
    order, broke = block_order(len(blocks), edges)
    assert not broke
    return tuple(order)


class TestCanonicalOrder:
    """The canonical order is the left order of a proper representation;
    ``prepare_proper`` keeps it for a twin-free one."""

    def test_path_is_identity(self):
        assert prepare_proper(path_representation(5)).order == (1, 2, 3, 4, 5)

    def test_relabeled_path(self):
        rep = parse_representation("L2 L3 R2 L1 R3 R1")
        assert prepare_proper(rep).order == (2, 3, 1)

    def test_relabeled_edge(self):
        # an edge is a twin pair, so only the representation gives its order
        rep = parse_representation("L2 L1 R2 R1")
        assert rep.classify() is GraphClass.PROPER
        assert tuple(rep.left_order()) == (2, 1)

    def test_rejects_nested(self):
        rep = parse_representation("L1 L2 R2 R1")
        with pytest.raises(SolverInputError) as exc:
            prepare_proper(rep)
        assert exc.value.kind == "NOT_PROPER"

    def test_accepts_disconnected(self):
        # 3 and 1 are a twin pair next to the isolated 2
        rep = parse_representation("L2 R2 L3 L1 R3 R1")
        assert rep.classify() is GraphClass.PROPER
        assert tuple(rep.left_order()) == (2, 3, 1)


class TestBuildString:
    def test_single_vertex_both_colors(self):
        """A vertex in both sets contributes blue before red."""
        rep = parse_representation("L1 R1")
        assert colored_string(rep, (1,), (1,)) == ((1, "B"), (1, "R"))

    def test_orders_by_position(self):
        rep = path_representation(4)
        s = colored_string(rep, (1, 3), (2, 4))
        assert s == ((1, "B"), (2, "R"), (3, "B"), (4, "R"))

    def test_relabeled_positions(self):
        rep = parse_representation("L2 L3 R2 L1 R3 R1")
        assert colored_string(rep, (1,), (2,)) == ((2, "R"), (1, "B"))

    def test_empty(self):
        assert colored_string(path_representation(3), (), ()) == ()


class TestHeights:
    def test_alternating(self):
        rep = path_representation(4)
        s = colored_string(rep, (1, 3), (2, 4))
        assert compute_heights(s) == (0, 1, 0, 1, 0)
        assert [end for _, end in spans(proper_blocks(rep, (1, 3), (2, 4)))] == [2, 4]

    def test_wide_example_returns_to_zero_four_times(self):
        s = colored_string(wide_rep(), WIDE_BLUE, WIDE_RED)
        h = compute_heights(s)
        assert len(h) == 19
        assert h[0] == 0 and h[-1] == 0
        assert [i for i in range(1, 19) if h[i] == 0] == [4, 6, 16, 18]
        # every return to zero ends a block
        blocks = proper_blocks(wide_rep(), WIDE_BLUE, WIDE_RED)
        assert [end for _, end in spans(blocks)] == [4, 6, 16, 18]

    def test_red_start_goes_negative(self):
        rep = path_representation(2)
        s = colored_string(rep, (2,), (1,))
        assert compute_heights(s) == (0, -1, 0)


class TestBlocks:
    def test_wide_example_spans(self):
        blocks = proper_blocks(wide_rep(), WIDE_BLUE, WIDE_RED)
        assert spans(blocks) == [(1, 4), (5, 6), (7, 16), (17, 18)]
        assert token_ranges(blocks) == [(1, 2), (3, 3), (4, 8), (9, 9)]
        assert start_colors(blocks) == ["B", "B", "R", "B"]

    def test_single_token_block(self):
        blocks = proper_blocks(path_representation(2), (2,), (1,))
        assert len(blocks) == 1
        assert spans(blocks) == [(1, 2)]
        assert start_colors(blocks) == ["R"]

    def test_no_tokens_no_blocks(self):
        assert proper_blocks(path_representation(3), (), ()) == []


class TestBlockOrder:
    def test_wide_example(self):
        """Only the red/blue boundary between the first two runs binds."""
        assert processing_order(wide_rep(), WIDE_BLUE, WIDE_RED) == (1, 0, 2, 3)

    def test_swap_on_path(self):
        assert processing_order(path_representation(4), (1, 3), (2, 4)) == (1, 0)

    def test_blue_then_red_boundary_keeps_left_first(self):
        rep = path_representation(6)
        assert start_colors(proper_blocks(rep, (2, 6), (1, 4))) == ["R", "R"]
        assert processing_order(rep, (2, 6), (1, 4)) == (0, 1)

    def test_no_constraint_between_components(self):
        # red 3 ends the first path's block and blue 4 starts the second
        # path's: on one path the right block would have to go first
        rep = parse_representation(TWO_PATHS)
        blocks = proper_blocks(rep, (1, 4), (3, 6))
        assert [(b[0][2], b[0][1]) for b in blocks] == [(1, BLUE), (4, BLUE)]
        assert (blocks[0][-1][2], blocks[0][-1][1]) == (3, RED)
        assert processing_order(rep, (1, 4), (3, 6)) == (0, 1)
        # the component test is what frees that boundary
        assert boundary_edges(blocks, lambda l, r: True) == [(1, 0)]


def token_path(rep, frm, to):
    """The vertices one token visits on its way in solve_proper's schedule."""
    res = solve_proper(rep, (frm,), (to,))
    assert res.yes, (res.reason, res.witness)
    return (frm, *(dst for _, dst in res.moves)) if res.moves else ()


# the square of the path 1-2-3-4-5: each vertex meets those at most two
# steps away along the path, and no two vertices are twins
PATH_SQUARE = "L1 L2 L3 R1 L4 R2 L5 R3 R4 R5"


class TestTokenPath:
    def test_same_vertex_empty(self):
        assert token_path(path_representation(8), 3, 3) == ()

    def test_path_end_to_end(self):
        assert token_path(path_representation(8), 1, 8) == (1, 2, 3, 4, 5, 6, 7, 8)

    def test_leftward(self):
        assert token_path(path_representation(5), 4, 2) == (4, 3, 2)

    def test_across_components_rejected(self):
        rep = parse_representation(TWO_PATHS)
        assert token_path(rep, 6, 4) == (6, 5, 4)
        res = solve_proper(rep, (3,), (4,))
        assert (res.yes, res.reason, res.witness) == (False, "COMPONENT_UNBALANCED", (1,))

    def test_triangle_direct_hop(self):
        rep = parse_representation(PATH_SQUARE)
        assert token_path(rep, 1, 3) == (1, 3)

    def test_skips_through_overlaps(self):
        # vertices 1,2,3 mutually adjacent, 3-4 adjacent: 1 can hop to 3
        rep = parse_representation(PATH_SQUARE)
        assert token_path(rep, 1, 4) == (1, 3, 4)
        assert token_path(rep, 5, 1) == (5, 3, 1)

    def test_matches_bfs_distance(self):
        for seed in range(8):
            inst = gen_instance("proper", 14, 3, seed=seed)
            g = inst.graph
            for u in (1, 5, 9):
                for v in (2, 7, 14):
                    path = token_path(inst.rep, u, v)
                    hops = max(len(path) - 1, 0)
                    assert hops == g.distance(u, v)


class TestSchedule:
    def test_wide_example(self):
        # tokens in emission order with their direction; each token walks
        # its whole path before the next one starts
        emission = (
            (3, "R"),
            (2, "R"),
            (1, "R"),
            (4, "L"),
            (5, "L"),
            (6, "L"),
            (7, "L"),
            (8, "L"),
            (9, "R"),
        )
        expected = []
        for t, direction in emission:
            b, r = WIDE_BLUE[t - 1], WIDE_RED[t - 1]
            step = 1 if direction == "R" else -1
            expected.extend((v, v + step) for v in range(b, r, step))
        res = solve_proper(wide_rep(), WIDE_BLUE, WIDE_RED)
        assert res.moves == tuple(expected)

    def test_identity_tokens_stay(self):
        # red-then-blue at each boundary forces right-to-left block order
        rep = path_representation(5)
        assert processing_order(rep, (1, 3), (1, 3)) == (1, 0)
        assert solve_proper(rep, (1, 3), (1, 3)).moves == ()

    def test_empty(self):
        assert solve_proper(path_representation(3), (), ()).moves == ()


class TestSolve:
    def test_wide_example_count_and_prefix(self):
        res = solve_proper(wide_rep(), WIDE_BLUE, WIDE_RED)
        assert res.yes
        assert res.move_count == 38
        assert res.moves[:6] == (
            (10, 11),
            (11, 12),
            (4, 5),
            (5, 6),
            (6, 7),
            (7, 8),
        )
        g = Graph.from_representation(wide_rep())
        check = validate_sequence(g, WIDE_BLUE, WIDE_RED, res.moves)
        assert check.ok, check.reason

    def test_single_token_along_path(self):
        res = solve_proper(path_representation(8), (1,), (8,))
        assert res.yes and res.move_count == 7
        assert res.moves == ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8))

    def test_swap_needs_right_block_first(self):
        res = solve_proper(path_representation(4), (1, 3), (2, 4))
        assert res.yes and res.moves == ((3, 4), (1, 2))

    def test_identity_zero_moves(self):
        res = solve_proper(path_representation(6), (2, 5), (2, 5))
        assert res.yes and res.move_count == 0

    def test_no_tokens(self):
        res = solve_proper(path_representation(3), (), ())
        assert res.yes and res.moves == ()

    @pytest.mark.parametrize("k,count", [(1, 7), (2, 26), (3, 57)])
    def test_quadratic_family(self, k, count):
        inst = quadratic_path_instance(k)
        res = solve_proper(inst.rep, inst.blue, inst.red)
        assert res.yes
        assert res.move_count == count
        check = validate_sequence(inst.graph, inst.blue, inst.red, res.moves)
        assert check.ok, check.reason

    def test_cardinality_mismatch_is_no(self):
        res = solve_proper(path_representation(5), (1,), (3, 5))
        assert not res.yes
        assert res.reason == "CARDINALITY_MISMATCH"

    def test_reversal_has_same_count(self):
        for seed in range(6):
            inst = gen_instance("proper", 18, 4, seed=seed)
            fwd = solve_proper(inst.rep, inst.blue, inst.red)
            bwd = solve_proper(inst.rep, inst.red, inst.blue)
            assert fwd.yes and bwd.yes
            assert fwd.move_count == bwd.move_count

    def test_random_instances_validate(self):
        for seed in range(10):
            inst = gen_instance("proper", 25, 6, seed=seed)
            res = solve_proper(inst.rep, inst.blue, inst.red)
            assert res.yes
            check = validate_sequence(inst.graph, inst.blue, inst.red, res.moves)
            assert check.ok, check.reason


class TestSolveErrors:
    def test_twins_rejected(self):
        rep = parse_representation("L1 L2 R1 R2")
        with pytest.raises(SolverInputError) as exc:
            solve_proper(rep, (1,), (2,))
        assert exc.value.kind == "STRONG_TWINS"
        assert exc.value.details == ((1, 2),)

    def test_triangle_rejected(self):
        rep = parse_representation("L1 L2 L3 R1 R2 R3")
        with pytest.raises(SolverInputError) as exc:
            solve_proper(rep, (1,), (3,))
        assert exc.value.kind == "STRONG_TWINS"

    def test_not_proper_rejected(self):
        rep = parse_representation("L1 L2 R2 R1")
        with pytest.raises(SolverInputError) as exc:
            solve_proper(rep, (2,), (2,))
        assert exc.value.kind == "NOT_PROPER"

    def test_dependent_blue_rejected(self):
        with pytest.raises(SolverInputError) as exc:
            solve_proper(path_representation(4), (1, 2), (3, 4))
        assert exc.value.kind == "NOT_INDEPENDENT"

    def test_unknown_vertex_on_a_forest(self):
        # the same vertex outside the graph in both sets is still rejected
        rep = parse_representation(TWO_PATHS)
        for decide in (False, True):
            with pytest.raises(SolverInputError) as exc:
                solve_proper(rep, (1, 99), (3, 99), decide)
            assert exc.value.kind == "UNKNOWN_VERTEX"
            assert exc.value.details == (99,)


def _joined(a: IntervalRepresentation, b: IntervalRepresentation):
    """``a`` and ``b`` side by side, ``b``'s ids shifted past ``a``'s."""
    shifted = tuple((side, v + a.n) for side, v in b.events)
    return IntervalRepresentation(a.events + shifted)


class TestWalk:
    """``_walk`` gives the reference walk's path on every ordered pair of
    vertices in one component."""

    @staticmethod
    def check_every_pair(p):
        pairs = 0
        for segment in p.segments:
            for frm in segment:
                for to in segment:
                    got = _walk(p.pos, p.hi, p.lo, p.order, frm, to)
                    assert got == reference_walk(p.pos, p.hi, p.lo, p.order, frm, to), (frm, to)
                    pairs += 1
        return pairs

    def test_every_small_proper_representation(self, monkeypatch):
        # the walk needs no twin-free graph, so twins are let through
        monkeypatch.setattr(proper, "_strong_twin_pairs", lambda *bounds: ())
        parts = [rep for n in range(1, 8) for rep in enumerate_proper_representations(n)]
        reps = parts + [_joined(a, b) for a in parts for b in parts if a.n + b.n <= 7]
        assert sum(self.check_every_pair(prepare_proper(rep)) for rep in reps) > 10_000

    def test_seeded_instance_with_several_components(self):
        rng = random.Random(2000)
        sizes = []
        while 2000 - sum(sizes) > 150:
            sizes.append(rng.randint(30, 120))
        sizes.append(2000 - sum(sizes))
        rep = IntervalRepresentation(())
        for seed, size in enumerate(sizes):
            rep = _joined(rep, gen_instance("proper", size, 1, seed=seed).rep)
        p = prepare_proper(rep)
        assert p.rep.n == 2000 and len(p.segments) == len(sizes) > 10
        assert self.check_every_pair(p) == sum(size * size for size in sizes)


class TestForests:
    def test_unbalanced_component_is_no(self):
        rep = parse_representation(TWO_PATHS)
        res = solve_proper(rep, (1, 3), (4, 6))
        assert (res.status, res.reason, res.witness) == ("NO", "COMPONENT_UNBALANCED", (1,))
        # the first component is balanced, the second is not
        rep = parse_representation(TWO_PATHS + " L7 R7")
        res = solve_proper(rep, (1, 4), (3, 7))
        assert (res.status, res.reason, res.witness) == ("NO", "COMPONENT_UNBALANCED", (4,))

    def test_components_solved_left_to_right(self):
        res = solve_proper(parse_representation(TWO_PATHS), (1, 4), (3, 6))
        assert res.moves == ((1, 2), (2, 3), (4, 5), (5, 6))

    def test_two_components_against_oracle(self):
        """Every pair of twin-free connected proper graphs with at most
        seven vertices in all, every equal-size token pair up to three:
        the shortest schedule in full mode and the same answer in decide
        mode, and NO exactly when a component is unbalanced."""
        parts = [
            rep
            for n in range(1, 7)
            for rep in enumerate_proper_representations(n)
            if not find_strong_twins(Graph.from_representation(rep))
        ]
        yes = no = 0
        for a in parts:
            for b in parts:
                if a.n + b.n > 7:
                    continue
                rep = _joined(a, b)
                g = Graph.from_representation(rep)
                space = SlideSpace(g)
                prepared = prepare_proper(rep)
                for k in (1, 2, 3):
                    sets = list(enumerate_independent_sets(g, k))
                    for blue in sets:
                        for red in sets:
                            full = solve_proper(prepared, blue, red)
                            decided = solve_proper(prepared, blue, red, decide=True)
                            case = (rep.serialize(), blue, red)
                            assert (decided.status, decided.reason, decided.witness) == (
                                full.status,
                                full.reason,
                                full.witness,
                            ), case
                            dist = space.distance(blue, red)
                            if dist is None:
                                assert full.reason == "COMPONENT_UNBALANCED", case
                                no += 1
                                continue
                            assert full.yes and full.move_count == dist, case
                            check = validate_sequence(rep, blue, red, full.moves)
                            assert check.ok, (case, check.reason)
                            yes += 1
        assert yes > 1000 and no > 1000


class TestAgainstOracle:
    def test_exhaustive_small(self):
        """Move counts agree with BFS on every small twin-free instance."""
        checked = 0
        for n in range(2, 7):
            for rep in enumerate_proper_representations(n):
                g = Graph.from_representation(rep)
                if len(g.components()) > 1 or find_strong_twins(g):
                    continue
                space = SlideSpace(g)
                for k in (1, 2):
                    sets = list(enumerate_independent_sets(g, k))
                    for blue in sets:
                        for red in sets:
                            res = solve_proper(rep, blue, red)
                            assert res.yes
                            dist = space.distance(blue, red)
                            assert dist == res.move_count, (
                                n,
                                rep.serialize(),
                                blue,
                                red,
                            )
                            checked += 1
        assert checked > 300

    def test_medium_path_against_oracle(self):
        g = Graph.from_representation(path_representation(9))
        blue, red = (1, 4, 7), (3, 6, 9)
        res = solve_proper(path_representation(9), blue, red)
        oracle = bfs(g, blue, red)
        assert oracle.reachable
        assert res.move_count == oracle.distance == 6
