"""End-to-end acceptance checks for the whole solver suite.

One test per guarantee the package makes: totality on proper interval
graphs, exact agreement with exhaustive search on all three classes,
the quadratic path family, the two-slides-per-token bound on trivially
perfect graphs, the stuck-iff-locked characterisation on caterpillars,
reversibility, coarse linear scaling of the decision mode, of
verification and of full caterpillar solves, and a per-pair caterpillar
decide that does not grow with n.  Each is written against the public
API only.
"""

import gc
import random
import time

from tokenslide.caterpillar import mark_locked, prepare_caterpillar, solve_caterpillar
from tokenslide.crosscheck import crosscheck
from tokenslide.generate import (
    GenerationError,
    enumerate_caterpillar_graphs,
    enumerate_independent_sets,
    enumerate_tp_representations,
    gen_instance,
    quadratic_path_instance,
)
from tokenslide.graphs import Graph, validate_sequence
from tokenslide.instances import parse_sequence, serialize_sequence
from tokenslide.oracle import bfs, slide_neighbors, state_key
from tokenslide.proper import solve_proper
from tokenslide.trivially_perfect import solve_tp
from walks import comb, leafy_crossing, walk_red


def is_stuck(g, tokens):
    """No legal slide leaves the token set."""
    return not slide_neighbors(g, state_key(tokens))


def test_random_proper_instances_all_reachable():
    """10,000 seeded connected proper instances, n <= 50, k <= n/3: every
    one is solvable and the emitted sequence replays cleanly, within 60 s."""
    start = time.perf_counter()
    rng = random.Random("acceptance-totality")
    for i in range(10_000):
        n = rng.randint(3, 50)
        k = rng.randint(1, max(1, n // 3))
        inst = gen_instance("proper", n, k, seed=i)
        res = solve_proper(inst.rep, inst.blue, inst.red)
        assert res.yes, (n, k, i)
        check = validate_sequence(inst.graph, inst.blue, inst.red, res.moves)
        assert check.ok, (n, k, i, check.reason)
    assert time.perf_counter() - start < 60.0


def test_solvers_agree_with_exhaustive_search():
    """Exhaustive sweep: proper n <= 9 and trivially perfect n <= 10 with
    k <= 5, and caterpillars n <= 9 with k <= 5 and n <= 10 with k <= 3,
    all ordered independent-set pairs.  Decisions and move counts must
    match breadth-first search exactly.  Two workers share each sweep;
    sharding leaves the report unchanged."""
    start = time.perf_counter()
    totals = {}
    boxes = (("proper", 9, 5), ("tp", 10, 5), ("caterpillar", 9, 5), ("caterpillar", 10, 3))
    for cls, n_max, k_max in boxes:
        report = crosscheck(cls, n_max, k_max=k_max, jobs=2)
        assert report.mismatches == (), report.render()
        totals[cls, n_max] = report.checked
    assert totals["proper", 9] >= 98_755
    assert totals["tp", 10] >= 308_028
    assert totals["caterpillar", 9] >= 170_342
    assert totals["caterpillar", 10] > 400_000
    assert time.perf_counter() - start < 600.0


def test_quadratic_path_family_move_counts():
    """Paths on 8k vertices with k tokens crossing end to end need exactly
    k*(6k+1) moves (60,100 at k = 100), from both the interval solver and
    the tree solver."""
    for k in (1, 2, 3, 100):
        inst = quadratic_path_instance(k)
        want = k * (6 * k + 1)
        res_a = solve_proper(inst.rep, inst.blue, inst.red)
        assert res_a.yes and res_a.move_count == want, k
        res_b = solve_caterpillar(inst.graph, inst.blue, inst.red)
        assert res_b.yes and res_b.move_count == want, k


def test_tp_schedules_slide_each_token_at_most_twice():
    """On trivially perfect graphs every solvable instance finishes within
    2k moves: each token detours at most once before settling."""
    solvable = 0
    for n in range(1, 9):
        for rep in enumerate_tp_representations(n):
            g = Graph.from_representation(rep)
            for k in (1, 2, 3):
                sets = list(enumerate_independent_sets(g, k))
                for blue in sets:
                    for red in sets:
                        res = solve_tp(rep, blue, red)
                        if res.yes:
                            assert res.move_count <= 2 * k, (rep.serialize(), blue, red)
                            solvable += 1
    assert solvable > 2_000


def test_stuck_states_are_exactly_locked_token_sets():
    """A caterpillar position admits no slide at all iff every token sits
    on a vertex the locked-path marker reports; all n <= 12, k <= 4."""
    checked = 0
    for n in range(3, 13):
        for g in enumerate_caterpillar_graphs(n):
            for k in range(1, 5):
                for s in enumerate_independent_sets(g, k):
                    assert is_stuck(g, s) == (set(s) <= mark_locked(g, s)), (g.n, s)
                    checked += 1
    assert checked > 100_000


def test_reversal_preserves_distance():
    """Slides are undoable, so blue-to-red and red-to-blue take equally
    many moves; checked on 1,000 random solvable instances, all classes."""
    rng = random.Random("acceptance-reversal")
    solvers = {
        "proper": lambda inst, b, r: solve_proper(inst.rep, b, r),
        "tp": lambda inst, b, r: solve_tp(inst.rep, b, r),
        "caterpillar": lambda inst, b, r: solve_caterpillar(inst.graph, b, r),
    }
    yes = seed = 0
    while yes < 1_000:
        for cls in ("proper", "tp", "caterpillar"):
            seed += 1
            n = rng.randint(5, 9)
            k = rng.randint(1, 3)
            try:
                inst = gen_instance(cls, n, k, seed=seed)
            except GenerationError:
                continue
            fwd = bfs(inst.graph, inst.blue, inst.red)
            if not fwd.reachable:
                continue
            bwd = bfs(inst.graph, inst.red, inst.blue)
            assert bwd.reachable and bwd.distance == fwd.distance, (cls, seed)
            res_f = solvers[cls](inst, inst.blue, inst.red)
            res_b = solvers[cls](inst, inst.red, inst.blue)
            assert res_f.yes and res_b.yes, (cls, seed)
            assert res_f.move_count == res_b.move_count, (cls, seed)
            yes += 1


def test_decision_mode_runs_in_linear_time():
    """Decision-only solving at n = 100,000 stays under a second and less
    than triples when n doubles, for both linear-time solvers.

    The box this runs on has a drifting clock, so each trial times the
    two sizes back to back (the drift cancels inside one pair) and the
    cleanest pair decides the growth ratio; the absolute budget uses the
    best wall-clock run.
    """
    for cls in ("proper", "caterpillar"):
        runs = {}
        for n in (100_000, 200_000):
            inst = gen_instance(cls, n, 50, seed=3)
            g = inst.graph  # build outside the timed region
            g.adj
            if cls == "proper":
                rep = inst.rep
                runs[n] = lambda rep=rep, inst=inst: solve_proper(
                    rep, inst.blue, inst.red, decide=True
                )
            else:
                runs[n] = lambda g=g, inst=inst: solve_caterpillar(
                    g, inst.blue, inst.red, decide=True
                )
        best_small = float("inf")
        best_ratio = float("inf")
        for _ in range(9):
            cpu = {}
            for n, fn in runs.items():
                gc.collect()
                gc.disable()
                w = time.perf_counter()
                c = time.process_time()
                res = fn()
                cpu[n] = time.process_time() - c
                wall = time.perf_counter() - w
                gc.enable()
                assert res.yes
                if n == 100_000:
                    best_small = min(best_small, wall)
            best_ratio = min(best_ratio, cpu[200_000] / cpu[100_000])
        assert best_small < 1.0, (cls, best_small)
        assert best_ratio < 3.0, (cls, best_ratio)


def test_decision_mode_stays_linear_on_many_frozen_groups():
    """A caterpillar whose every other group is frozen falls apart into
    one piece per free group once the frozen groups are cut out; deciding
    it less than triples when n doubles.

    The spine carries two leaves per group, every even group holds a
    token on both of its leaves on both sides, and one token moves
    between the two leaves of the first group.  Timed like
    test_decision_mode_runs_in_linear_time.
    """
    runs = {}
    for n in (24_000, 48_000):
        groups = n // 3
        edges = [(i, i + 1) for i in range(1, groups)]
        edges += [(i, groups + 2 * i - 1) for i in range(1, groups + 1)]
        edges += [(i, groups + 2 * i) for i in range(1, groups + 1)]
        g = Graph(n, edges)
        frozen = [groups + 2 * i - j for i in range(2, groups + 1, 2) for j in (0, 1)]
        blue = [groups + 1, *frozen]
        red = [groups + 2, *frozen]
        res = solve_caterpillar(g, blue, red)
        assert res.yes and res.moves == ((groups + 1, 1), (1, groups + 2)), n
        runs[n] = lambda g=g, blue=blue, red=red: solve_caterpillar(
            g, blue, red, decide=True
        )
    best_ratio = float("inf")
    for _ in range(9):
        cpu = {}
        for n, fn in runs.items():
            gc.collect()
            gc.disable()
            c = time.process_time()
            res = fn()
            cpu[n] = time.process_time() - c
            gc.enable()
            assert res.yes
        best_ratio = min(best_ratio, cpu[48_000] / cpu[24_000])
    assert best_ratio < 3.0, best_ratio


def test_decision_mode_stays_linear_on_a_star():
    """A star is a caterpillar whose one spine cell holds every other
    vertex as a leaf, so its leaf group has n - 1 members; deciding a
    one-token pair on the raw graph takes less than 20x the CPU time at
    n = 100,000 that it takes at n = 10,000.  Timed like
    test_decision_mode_runs_in_linear_time.
    """
    runs = {}
    for n in (10_000, 100_000):
        g = Graph(n, [(1, v) for v in range(2, n + 1)])
        runs[n] = lambda g=g, red=[n]: solve_caterpillar(g, [2], red, decide=True)
    best_ratio = float("inf")
    for _ in range(9):
        cpu = {}
        for n, fn in runs.items():
            gc.collect()
            gc.disable()
            c = time.process_time()
            res = fn()
            cpu[n] = time.process_time() - c
            gc.enable()
            assert res.yes
        best_ratio = min(best_ratio, cpu[100_000] / max(cpu[10_000], 1e-9))
    assert best_ratio < 20.0, best_ratio


def test_prepared_decide_cost_does_not_grow_with_n():
    """Deciding one token pair on a prepared caterpillar costs O(k log k),
    not O(n): with k = 50 and random-walk reds, a prepared n = 100,000
    caterpillar answers in less than three times the CPU time of a
    prepared n = 10,000 one.  Timed like
    test_decision_mode_runs_in_linear_time, over twenty reds per size.
    """
    runs = {}
    for n in (10_000, 100_000):
        inst = gen_instance("caterpillar", n, 50, seed=3)
        prepared = prepare_caterpillar(inst.graph)
        rng = random.Random(f"prepared {n}")
        reds = [walk_red(inst.graph, inst.blue, 300, rng) for _ in range(20)]
        runs[n] = lambda p=prepared, blue=inst.blue, reds=reds: [
            solve_caterpillar(p, blue, red, decide=True) for red in reds
        ]
    best_ratio = float("inf")
    for _ in range(9):
        cpu = {}
        for n, fn in runs.items():
            gc.collect()
            gc.disable()
            c = time.process_time()
            answers = fn()
            cpu[n] = time.process_time() - c
            gc.enable()
            assert all(res.yes for res in answers)
        best_ratio = min(best_ratio, cpu[100_000] / max(cpu[10_000], 1e-9))
    assert best_ratio < 3.0, best_ratio


def test_prepared_decide_with_a_token_on_a_star_centre_does_not_grow_with_n():
    """A token on a star's centre has n - 1 neighbours, many more than
    there are tokens, so the token check bisects each token into the
    centre's adjacency instead of reading it: deciding the pair on the
    prepared star takes less than 3x the CPU time at n = 100,000 that it
    takes at n = 10,000.  Timed like test_decision_mode_runs_in_linear_time,
    over 200 calls per size."""
    runs = []
    for n in (10_000, 100_000):
        p = prepare_caterpillar(Graph(n, [(1, v) for v in range(2, n + 1)]))

        def run(p=p):
            for _ in range(200):
                assert solve_caterpillar(p, (1,), (1,), decide=True).yes

        runs.append(run)
    ratio = best_cpu_ratio(*runs)
    assert ratio < 3.0, ratio


def test_verify_grows_linearly_in_moves():
    """Parsing and replaying the quadratic path's schedule, by rank
    overlap and by adjacency, takes less than 6x the CPU time at k = 100
    (60,100 moves) that it takes at k = 50 (15,050 moves, a quarter).
    Timed like test_decision_mode_runs_in_linear_time.
    """
    for by_graph in (False, True):
        runs = {}
        for k in (50, 100):
            inst = quadratic_path_instance(k)
            res = solve_proper(inst.rep, inst.blue, inst.red)
            assert res.move_count == k * (6 * k + 1)
            text = serialize_sequence(res.moves)
            structure = inst.graph if by_graph else inst.rep
            runs[k] = lambda s=structure, inst=inst, text=text: validate_sequence(
                s, inst.blue, inst.red, parse_sequence(text)
            )
        best_ratio = float("inf")
        for _ in range(9):
            cpu = {}
            for k, fn in runs.items():
                gc.collect()
                gc.disable()
                c = time.process_time()
                check = fn()
                cpu[k] = time.process_time() - c
                gc.enable()
                assert check.ok
            best_ratio = min(best_ratio, cpu[100] / cpu[50])
        assert best_ratio < 6.0, (by_graph, best_ratio)


def test_verify_does_not_grow_with_degree():
    """On the spine 1-2-3 with L leaves on vertex 2, one token bounces
    between the last leaf and vertex 2 (2,000 moves).  Replaying that on
    the Graph takes less than 3x the CPU time at L = 20,000 that it takes
    at L = 2,000: a move bisects the long adjacency of vertex 2 instead of
    reading it."""
    runs = []
    for leaves in (2_000, 20_000):
        n = 3 + leaves
        g = Graph(n, [(1, 2), (2, 3)] + [(2, v) for v in range(4, n + 1)])
        moves = ((n, 2), (2, n)) * 1_000

        def run(g=g, n=n, moves=moves):
            assert validate_sequence(g, (n,), (n,), moves).ok

        runs.append(run)
    ratio = best_cpu_ratio(*runs)
    assert ratio < 3.0, ratio


def best_cpu_ratio(small, large):
    """The smallest CPU-time ratio of ``large()`` over ``small()`` in nine
    back-to-back trials, timed like test_decision_mode_runs_in_linear_time."""
    best = float("inf")
    for _ in range(9):
        cpu = []
        for fn in (small, large):
            gc.collect()
            gc.disable()
            c = time.process_time()
            fn()
            cpu.append(time.process_time() - c)
            gc.enable()
        best = min(best, cpu[1] / max(cpu[0], 1e-9))
    return best


def prepared_solve(g, blue, red, moves):
    """A full solve of one pair on the prepared graph that checks it
    answers YES in exactly ``moves`` moves."""
    p = prepare_caterpillar(g)

    def run():
        res = solve_caterpillar(p, blue, red)
        assert res.yes and res.move_count == moves

    return run


def test_full_solve_does_not_grow_with_leaf_degree():
    """One token crosses a 5,000-cell spine from a leaf of the first group
    to a leaf of the last (5,001 moves).  With 40 leaves on every cell the
    full solve on the prepared graph takes less than 1.5x the CPU time it
    takes with 2: a clear run of spine cells is emitted in one step, and
    a single slide is checked from group counts, not from the leaves."""
    small, large = (prepared_solve(*leafy_crossing(5_000, d), 5_001) for d in (2, 40))
    ratio = best_cpu_ratio(small, large)
    assert ratio < 1.5, ratio


def test_full_solve_set_up_does_not_grow_with_spine():
    """A token moves from the leaf of group 1 to the leaf of group 2
    (three moves) on a spine with one leaf on every cell.  The full solve
    on the prepared graph takes less than 3x the CPU time at spine 50,000
    that it takes at 5,000: the scheduler's set-up is per token, not per
    spine cell."""
    runs = []
    for spine in (5_000, 50_000):
        g, _, _ = leafy_crossing(spine, 1)
        runs.append(prepared_solve(g, (spine + 1,), (spine + 2,), 3))
    ratio = best_cpu_ratio(*runs)
    assert ratio < 3.0, ratio


def test_full_solve_grows_linearly_in_moves():
    """Full caterpillar solves on a prepared graph: the quadratic path at
    k = 100 (60,100 moves) takes less than 6x the CPU time of k = 50
    (15,050 moves, a quarter), and a 10,000-block comb (40,000 moves) less
    than 15x that of a 1,000-block one (4,000 moves)."""
    runs = []
    for k in (50, 100):
        inst = quadratic_path_instance(k)
        runs.append(prepared_solve(inst.graph, inst.blue, inst.red, k * (6 * k + 1)))
    ratio = best_cpu_ratio(*runs)
    assert ratio < 6.0, ratio
    small, large = (prepared_solve(*comb(b), 4 * b) for b in (1_000, 10_000))
    ratio = best_cpu_ratio(small, large)
    assert ratio < 15.0, ratio
