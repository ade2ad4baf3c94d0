"""Graph model, twins, caterpillar recognition, and sequence validation."""

import random
import tracemalloc

import pytest
from walks import intersection_edges, nesting

from tokenslide.caterpillar import prepare_caterpillar, solve_caterpillar
from tokenslide.generate import (
    enumerate_proper_representations,
    enumerate_tp_representations,
    gen_instance,
    quadratic_path_instance,
)
from tokenslide.graphs import (
    Graph,
    ValidationResult,
    find_strong_twins,
    validate_sequence,
)
from tokenslide.intervals import (
    GraphClass,
    IntervalRepresentation,
    RepresentationError,
    parse_representation,
)
from tokenslide.proper import solve_proper
from tokenslide.results import SolverInputError


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def star_graph(leaves):
    return Graph(leaves + 1, [(1, i) for i in range(2, leaves + 2)])


def test_adjacency_sorted_and_symmetric():
    g = Graph(4, [(3, 1), (1, 2), (2, 3)])
    assert g.adj[1] == (2, 3)
    assert g.adj[3] == (1, 2)
    assert g.adj[4] == ()
    assert g.m == 3


def test_duplicate_edges_collapsed():
    g = Graph(2, [(1, 2), (2, 1), (1, 2)])
    assert g.m == 1


def random_representation(n, rng):
    """A seeded endpoint string: each id's first occurrence is its left end."""
    ids = [v for v in range(1, n + 1) for _ in "LR"]
    rng.shuffle(ids)
    opened = set()
    events = []
    for v in ids:
        events.append(f"{'R' if v in opened else 'L'}{v}")
        opened.add(v)
    return parse_representation(" ".join(events))


def test_edges_and_m_derive_from_adjacency():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(2, 12)
        pairs = [tuple(rng.sample(range(1, n + 1), 2)) for _ in range(rng.randint(0, 3 * n))]
        # every pair again in both orientations, shuffled in
        listed = pairs + [(v, u) for u, v in pairs] + rng.choices(pairs, k=len(pairs) // 2)
        rng.shuffle(listed)
        g = Graph(n, listed)
        assert g.edges() == tuple(sorted({(min(e), max(e)) for e in listed}))
        assert g.m == len(g.edges())
        assert Graph(g.n, g.edges()).adj == g.adj
    reps = [random_representation(rng.randint(1, 14), rng) for _ in range(200)]
    reps += list(enumerate_proper_representations(6)) + list(enumerate_tp_representations(6))
    for rep in reps:
        g = Graph.from_representation(rep)
        assert list(g.edges()) == sorted(set(intersection_edges(rep)))
        assert g.m == len(g.edges())


def test_from_representation_matches_the_edge_sweep():
    rng = random.Random(21)
    reps = [random_representation(rng.randint(1, 40), rng) for _ in range(300)]
    reps += [gen_instance(cls, n, 1, seed=seed).rep
             for cls in ("proper", "tp") for n in (3, 50, 400) for seed in range(5)]
    for n in range(1, 8):
        reps += [*enumerate_proper_representations(n), *enumerate_tp_representations(n)]
    reps.append(nesting(300))
    for rep in reps:
        assert Graph.from_representation(rep).adj == Graph(rep.n, intersection_edges(rep)).adj


@pytest.mark.parametrize("word", [
    "L1 L1 R1 R1",  # a second L while open
    "L1 R1 L1 R1",  # an id used twice
    "R1 L1",  # an R before its L
    "L1 L2 R2 R2 R1 L3",  # a second R
    "L1 L2 R1",  # an L never closed
    "L1 L3 R1 R3",  # an id above n
    "L0 L1 R0 R1",  # an id below 1
    "L-1 L2 R2 R-1",  # a negative id, which would index from the end
])
def test_malformed_word_built_in_code_rejected(word):
    events = tuple((tok[0], int(tok[1:])) for tok in word.split())
    with pytest.raises(RepresentationError) as expected:
        IntervalRepresentation(events).left_rank
    with pytest.raises(RepresentationError) as got:
        Graph.from_representation(IntervalRepresentation(events))
    assert (str(got.value), got.value.position) == (str(expected.value), expected.value.position)


@pytest.mark.parametrize("events, position", [
    ((("LR", 1), ("R", 1)), 1),  # two sides in one token
    ((("L", 1), ("X", 1)), 2),  # a side that is neither
])
def test_side_other_than_l_or_r_rejected(events, position):
    for build in (lambda rep: rep.left_rank, Graph.from_representation):
        with pytest.raises(RepresentationError, match="is not L or R") as got:
            build(IntervalRepresentation(events))
        assert got.value.position == position


def test_representation_of_another_size_rejected():
    with pytest.raises(ValueError, match="n=3 but the representation has 2 intervals"):
        Graph(3, parse_representation("L1 L2 R1 R2"))


def test_from_representation_holds_no_edge_list():
    # the adjacency and the open intervals' lists take about 29 bytes per
    # edge here; building every edge tuple and deduping each vertex's list
    # took 49, and a sorted edge tuple with a dedupe set beside it 216
    rep = gen_instance("tp", 2000, 3, seed=0).rep
    assert rep.n == 2000
    tracemalloc.start()
    try:
        g = Graph.from_representation(rep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.m == 16_215
    assert peak <= 36 * g.m, peak / g.m


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        Graph(2, [(1, 1)])


def test_out_of_range_edge_rejected():
    with pytest.raises(ValueError):
        Graph(2, [(1, 3)])


def test_from_representation_k3():
    g = Graph.from_representation(parse_representation("L1 L2 L3 R1 R2 R3"))
    assert g.m == 3
    assert len(g.components()) == 1


def test_components_and_connectivity():
    g = Graph(5, [(1, 2), (4, 5)])
    assert g.components() == [[1, 2], [3], [4, 5]]
    assert len(g.components()) > 1
    assert len(path_graph(4).components()) == 1


def test_touching_names_an_adjacent_pair():
    g = path_graph(4)
    assert g.touching({1, 3}) is None
    assert g.touching({1, 4}) is None
    assert g.touching({3, 2}) == (2, 3)
    assert g.touching({1, 3, 4}) == (3, 4)
    assert g.touching(set()) is None


def test_bfs_distances():
    g = path_graph(8)
    assert g.distance(1, 8) == 7
    assert g.distance(3, 3) == 0
    disconnected = Graph(3, [(1, 2)])
    assert disconnected.bfs_distances(1)[3] == -1


def test_strong_twins_k3():
    g = Graph.from_representation(parse_representation("L1 L2 L3 R1 R2 R3"))
    assert find_strong_twins(g) == [(1, 2), (1, 3), (2, 3)]


def test_strong_twins_p3_empty():
    assert find_strong_twins(path_graph(3)) == []


def test_strong_twins_k2():
    g = Graph.from_representation(parse_representation("L1 L2 R1 R2"))
    assert find_strong_twins(g) == [(1, 2)]


def test_sibling_leaves_are_not_strong_twins():
    # two leaves under one star center share open but not closed neighborhoods
    assert find_strong_twins(star_graph(3)) == []


# -- sequence validation -----------------------------------------------------

def test_validate_single_token_walk():
    g = path_graph(3)
    seq = ((1, 2), (2, 3))
    assert validate_sequence(g, [1], [3], seq).ok


def test_validate_rejects_non_edge():
    g = path_graph(3)
    seq = ((1, 3),)
    res = validate_sequence(g, [1], [3], seq)
    assert not res.ok
    assert res.step == 1
    assert res.reason == "NOT_AN_EDGE"


def test_validate_order_sensitivity_on_p4():
    g = path_graph(4)
    good = ((3, 4), (1, 2))
    assert validate_sequence(g, [1, 3], [2, 4], good).ok
    bad = ((1, 2), (3, 4))
    res = validate_sequence(g, [1, 3], [2, 4], bad)
    assert not res.ok
    assert res.step == 1
    assert res.reason == "NOT_INDEPENDENT"


def test_validate_wrong_final_set():
    g = path_graph(3)
    res = validate_sequence(g, [1], [3], ())
    assert res.reason == "WRONG_FINAL_SET"
    # the last step is flagged, also for moves read once from an iterator
    res = validate_sequence(g, [1], [3], iter([(1, 2)]))
    assert res == ValidationResult(False, 1, "WRONG_FINAL_SET")


def test_validate_source_and_target_occupancy():
    g = path_graph(4)
    res = validate_sequence(g, [1, 3], [1, 3], ((2, 3),))
    assert res.reason == "SOURCE_NOT_OCCUPIED"
    res = validate_sequence(g, [1, 4], [1, 4], ((4, 4),))
    assert res.reason in ("TARGET_OCCUPIED", "NOT_AN_EDGE")


def random_general_representation(n, rng):
    """A seeded endpoint word with partial overlaps and unequal orders."""
    while True:
        ids = rng.sample(range(1, n + 1), n)
        events, open_ids = [], []
        while ids or open_ids:
            if ids and (not open_ids or rng.random() < 0.5):
                open_ids.append(ids.pop())
                events.append(("L", open_ids[-1]))
            else:
                events.append(("R", open_ids.pop(rng.randrange(len(open_ids)))))
        rep = IntervalRepresentation(tuple(events))
        if rep.classify() is GraphClass.NEITHER:
            return rep


def random_slides(g, tokens, steps, rng):
    """A legal slide walk from an independent token set."""
    occupied, moves = set(tokens), []
    for _ in range(steps):
        src = rng.choice(sorted(occupied))
        free = [w for w in g.adj[src] if w not in occupied
                and all(x == src or x not in occupied for x in g.adj[w])]
        if free:
            dst = rng.choice(free)
            occupied.remove(src)
            occupied.add(dst)
            moves.append((src, dst))
    return moves, occupied


def differential_cases(g, rng):
    """(blue, red, seq) triples: valid walks, then seeded corruptions that
    reach every rejection, including move targets off the vertex range."""
    n = g.n
    for _ in range(6):
        k = rng.randint(1, min(3, n))
        blue = set()
        for v in rng.sample(range(1, n + 1), n):
            if len(blue) < k and all(w not in blue for w in g.adj[v]):
                blue.add(v)
        moves, final = random_slides(g, blue, rng.randint(0, 8), rng)
        yield blue, final, tuple(moves)
        yield blue, final, moves
        yield blue, set(rng.sample(range(1, n + 1), len(blue))), moves
        for target in (0, -1, n + 1):
            at = rng.randint(0, len(moves))
            src = moves[at - 1][1] if at else rng.choice(sorted(blue))
            yield blue, final, moves[:at] + [(src, target)] + moves[at:]
        for _ in range(4):
            at = rng.randint(0, len(moves))
            bad = (rng.randint(1, n), rng.randint(-1, n + 1))
            yield blue, final, moves[:at] + [bad] + moves[at:]
        if g.m:
            u, v = rng.choice(g.edges())
            yield {u, v}, {u, v}, []


def slides_onto_hubs(g, rng):
    """(blue, red, seq) triples that slide a token onto a vertex of degree
    above 16 while a second token sits on a random vertex: a neighbour of
    the hub or not, so the slide is rejected or legal."""
    for hub in range(1, g.n + 1):
        near = g.adj[hub]
        if len(near) <= 16:
            continue
        src = rng.choice(near)
        others = [v for v in range(1, g.n + 1)
                  if v != hub and v != src and v not in g.adj[src]]
        if others:
            other = rng.choice(others)
            yield {src, other}, {hub, other}, [(src, hub)]


def test_representation_and_graph_verdicts_agree():
    rng = random.Random(20151101)
    reps = [rep for n in range(1, 7) for rep in enumerate_proper_representations(n)]
    reps += [rep for n in range(1, 7) for rep in enumerate_tp_representations(n)]
    reps += [random_general_representation(rng.randint(3, 9), rng) for _ in range(150)]
    # these have vertices of degree above 8 per token, whose adjacency a
    # Graph replay bisects
    reps += [random_general_representation(rng.randint(40, 70), rng) for _ in range(40)]
    reasons = set()
    long_rejections = set()
    cases = 0
    for rep in reps:
        g = Graph.from_representation(rep)
        for blue, red, seq in [*differential_cases(g, rng), *slides_onto_hubs(g, rng)]:
            expected = validate_sequence(g, blue, red, seq)
            assert validate_sequence(rep, blue, red, seq) == expected, (rep.serialize(), blue, red, seq)
            if expected.reason in ("NOT_AN_EDGE", "NOT_INDEPENDENT") and expected.step:
                src, dst = list(seq)[expected.step - 1]
                if len(g.adj[src if expected.reason == "NOT_AN_EDGE" else dst]) > 8 * len(blue):
                    long_rejections.add(expected.reason)
            for tokens in (blue, red):
                pairs = rep.touching(tokens), g.touching(tokens)
                assert (pairs[0] is None) == (pairs[1] is None), (rep.serialize(), tokens)
                for pair in pairs:
                    assert pair is None or pair[1] in g.adj[pair[0]]
            reasons.add((expected.reason, expected.step == 0))
            cases += 1
    assert cases > 10_000
    assert reasons >= {
        (None, False),
        ("NOT_INDEPENDENT", True),
        ("NOT_INDEPENDENT", False),
        ("SOURCE_NOT_OCCUPIED", False),
        ("TARGET_OCCUPIED", False),
        ("NOT_AN_EDGE", False),
        ("WRONG_FINAL_SET", False),
    }
    assert long_rejections >= {"NOT_AN_EDGE", "NOT_INDEPENDENT"}, long_rejections


def test_long_adjacency_verdicts():
    """Spine 1-2-3-4-5 with leaves 6..45 on vertex 2 and 46..85 on vertex
    4: both adjacencies hold more than 8 vertices per token, so a Graph
    replay bisects them in the edge and the independence tests."""
    rep = parse_representation(" ".join(
        ["L1 L2 R1"] + [f"L{v} R{v}" for v in range(6, 46)] + ["L3 R2 L4 R3"]
        + [f"L{v} R{v}" for v in range(46, 86)] + ["L5 R4 R5"]))
    g = Graph.from_representation(rep)
    assert len(g.adj[2]) == len(g.adj[4]) == 42
    cases = [
        ({2}, {2}, [(2, 5)], ValidationResult(False, 1, "NOT_AN_EDGE")),
        ({2}, {2}, [(2, 4)], ValidationResult(False, 1, "NOT_AN_EDGE")),
        ({2}, {2}, [(2, 46)], ValidationResult(False, 1, "NOT_AN_EDGE")),
        ({2}, {2}, [(2, 86)], ValidationResult(False, 1, "NOT_AN_EDGE")),
        ({2}, {2}, [(2, 0)], ValidationResult(False, 1, "NOT_AN_EDGE")),
        ({1, 5}, {6, 5}, [(1, 2), (2, 6)], ValidationResult(True)),
        ({1, 85}, {45, 85}, [(1, 2), (2, 45)], ValidationResult(True)),
        ({1, 3}, {1, 3}, [(1, 2)], ValidationResult(False, 1, "NOT_INDEPENDENT")),
        ({1, 45}, {1, 45}, [(1, 2)], ValidationResult(False, 1, "NOT_INDEPENDENT")),
        ({6, 5, 85}, {6, 5, 85}, [(6, 2), (5, 4)], ValidationResult(False, 2, "NOT_INDEPENDENT")),
        ({6, 46, 85}, {6, 46, 85}, [(46, 4)], ValidationResult(False, 1, "NOT_INDEPENDENT")),
    ]
    for blue, red, seq, expected in cases:
        for structure in (g, rep):
            assert validate_sequence(structure, blue, red, seq) == expected, (structure, blue, seq)


def long_walk(g, k, rng):
    """Up to k independent tokens and a legal slide walk of at least 200
    moves from them, or None when the draw gets stuck."""
    blue = set()
    for v in rng.sample(range(1, g.n + 1), g.n):
        if len(blue) < k and blue.isdisjoint(g.adj[v]):
            blue.add(v)
    moves, _ = random_slides(g, blue, 400, rng)
    return (blue, moves) if len(moves) >= 200 else None


def corruptions(g, occupied, rng):
    """(bad move, rule it breaks) for the tokens on ``occupied``: a move
    (v, v) from a token and from a free vertex, targets off the vertex
    range, a non-edge and a target that touches a further token."""
    n, tokens = g.n, sorted(occupied)
    v = rng.choice(tokens)
    free = [w for w in range(1, n + 1) if w not in occupied]
    yield (v, v), "TARGET_OCCUPIED"
    yield (rng.choice(free),) * 2, "SOURCE_NOT_OCCUPIED"
    for target in (0, -1, n + 1):
        yield (v, target), "NOT_AN_EDGE"
    far = [w for w in free if w not in g.adj[v]]
    if far:
        yield (v, rng.choice(far)), "NOT_AN_EDGE"
    touching = [(u, w) for u in tokens for w in g.adj[u] if w not in occupied
                and any(x != u and x in occupied for x in g.adj[w])]
    if touching:
        yield rng.choice(touching), "NOT_INDEPENDENT"


def test_long_walk_verdicts_match_the_graph_replay():
    """Seeded legal walks of at least 200 moves with up to 10 tokens on
    40 to 200 intervals, each corrupted at a step past 100: the rank
    replay gives the Graph replay's verdict at the corrupted step."""
    rng = random.Random(23)
    reps = []
    for seed in range(8):
        n = rng.randint(40, 200)
        reps += [random_general_representation(n, rng),
                 gen_instance("proper", n, 1, seed=seed).rep,
                 gen_instance("tp", n, 1, seed=seed).rep]
    seen, walks = set(), 0
    for rep in reps:
        g = Graph.from_representation(rep)
        for _ in range(3):
            drawn = long_walk(g, rng.randint(2, 10), rng)
            if drawn is None:
                continue
            blue, moves = drawn
            walks += 1
            final = set(blue)
            for src, dst in moves:
                final.remove(src)
                final.add(dst)
            assert validate_sequence(rep, blue, final, moves) == ValidationResult(True)
            at = rng.randint(100, len(moves))
            occupied = set(blue)
            for src, dst in moves[:at]:
                occupied.remove(src)
                occupied.add(dst)
            for bad, reason in corruptions(g, occupied, rng):
                seq = moves[:at] + [bad] + moves[at:]
                expected = ValidationResult(False, at + 1, reason)
                assert validate_sequence(g, blue, final, seq) == expected, (rep.serialize(), bad)
                assert validate_sequence(rep, blue, final, iter(seq)) == expected, (rep.serialize(), bad)
                seen.add((bad[0] == bad[1], reason))
    assert walks >= 40, walks
    assert seen == {
        (True, "TARGET_OCCUPIED"),
        (True, "SOURCE_NOT_OCCUPIED"),
        (False, "NOT_AN_EDGE"),
        (False, "NOT_INDEPENDENT"),
    }


def test_move_onto_its_own_token_is_target_occupied():
    """A move (v, v) from a token is TARGET_OCCUPIED for both replays,
    also from a slot another token has moved into."""
    rep = parse_representation("L1 L2 R1 L3 R2 L4 R3 L5 R4 L6 R5 L7 R6 R7")
    cases = [
        ({1, 4}, [(1, 1)], 1),
        ({1, 4}, [(4, 4)], 1),
        ({1, 4}, [(1, 2), (2, 2)], 2),
        ({1, 4}, [(4, 5), (1, 2), (5, 5)], 3),
    ]
    for blue, seq, step in cases:
        for structure in (rep, Graph.from_representation(rep)):
            res = validate_sequence(structure, blue, blue, seq)
            assert res == ValidationResult(False, step, "TARGET_OCCUPIED"), (structure, seq)


def test_rank_replay_does_not_bisect(monkeypatch):
    """A representation is replayed without a bisect per move."""
    def refuse(*args):
        raise AssertionError("bisect_left called")

    monkeypatch.setattr("tokenslide.graphs.bisect_left", refuse)
    for inst in (quadratic_path_instance(10), gen_instance("proper", 200, 10, seed=3)):
        res = solve_proper(inst.rep, inst.blue, inst.red)
        assert res.yes and res.move_count > 20
        assert validate_sequence(inst.rep, inst.blue, inst.red, res.moves).ok
    with pytest.raises(AssertionError, match="bisect_left called"):
        validate_sequence(Graph.from_representation(inst.rep), inst.blue, inst.red, res.moves)


@pytest.mark.parametrize("target", [0, -1, 9])
def test_off_range_target_is_not_an_edge(target):
    rep = parse_representation("L1 L2 R1 L3 R2 L4 R3 L5 R4 L6 R5 L7 R6 L8 R7 R8")
    for structure in (rep, Graph.from_representation(rep)):
        res = validate_sequence(structure, [1], [1], [(1, target)])
        assert res == ValidationResult(False, 1, "NOT_AN_EDGE")


@pytest.mark.parametrize("blue", [[0], [-1], [4]])
def test_off_range_blue_rejected(blue):
    rep = parse_representation("L1 L2 R1 L3 R2 R3")
    for structure in (rep, Graph.from_representation(rep)):
        with pytest.raises(ValueError):
            validate_sequence(structure, blue, blue, [])


@pytest.mark.parametrize("red", [[0], [-1], [4]])
def test_off_range_red_rejected(red):
    rep = parse_representation("L1 L2 R1 L3 R2 R3")
    for structure in (rep, Graph.from_representation(rep)):
        with pytest.raises(ValueError, match="red vertex out of range"):
            validate_sequence(structure, [1], red, [])


@pytest.mark.parametrize("blue, red, colour", [([1, 1], [1], "blue"), ([1], [4, 4], "red")])
def test_vertex_listed_twice_rejected(blue, red, colour):
    for structure in (path_graph(4), parse_representation("L1 L2 R1 L3 R2 L4 R3 R4")):
        with pytest.raises(ValueError, match=f"{colour} lists a vertex twice"):
            validate_sequence(structure, blue, red, [])


def test_touching_blue_stays_a_step_zero_verdict():
    res = validate_sequence(path_graph(4), [1, 2], [1, 3], [])
    assert res == ValidationResult(False, 0, "NOT_INDEPENDENT")


# -- caterpillar recognition -------------------------------------------------

def spine_and_leaves(g):
    [(_, _, struct)] = prepare_caterpillar(g).pieces
    return struct.spine, struct.leaves


def test_recognize_star():
    assert spine_and_leaves(star_graph(3)) == ((1,), ((2, 3, 4),))


def test_recognize_bare_path_endpoints_become_leaves():
    assert spine_and_leaves(path_graph(5)) == ((2, 3, 4), ((1,), (), (5,)))


def test_recognize_orients_from_lower_end():
    g = Graph(5, [(5, 4), (4, 3), (3, 2), (2, 1)])
    assert spine_and_leaves(g)[0] == (2, 3, 4)


def test_recognize_classic_caterpillar():
    g = Graph(6, [(1, 2), (2, 3), (1, 4), (2, 5), (3, 6)])
    assert spine_and_leaves(g) == ((1, 2, 3), ((4,), (5,), (6,)))


def test_recognize_rejects_spider():
    edges = [(1, 2), (2, 3), (1, 4), (4, 5), (1, 6), (6, 7)]
    with pytest.raises(SolverInputError) as exc:
        solve_caterpillar(Graph(7, edges), (), ())
    assert exc.value.kind == "NOT_CATERPILLAR"


def test_recognize_rejects_cycle_and_disconnection():
    with pytest.raises(SolverInputError) as exc:
        solve_caterpillar(Graph(3, [(1, 2), (2, 3), (3, 1)]), (), ())
    assert exc.value.kind == "CYCLIC"
    # a forest of caterpillars is accepted: each component is a piece
    forest = Graph(6, [(1, 2), (2, 3), (4, 5), (5, 6)])
    res = solve_caterpillar(forest, (1, 4), (3, 6))
    assert res.yes and res.move_count == 4


def test_recognize_degenerate_small():
    # components below three vertices have no spine
    [(comp, cells, struct)] = prepare_caterpillar(Graph(1, ())).pieces
    assert (comp, set(cells), struct) == ([1], {1}, None)
    with pytest.raises(SolverInputError) as exc:
        solve_caterpillar(Graph(2, [(1, 2)]), (1,), (2,))
    assert exc.value.kind == "STRONG_TWINS"
