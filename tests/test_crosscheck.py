"""Solver-versus-search sweep harness."""

import gc
import importlib
from collections import Counter

import pytest

from tokenslide.crosscheck import CrosscheckReport, Mismatch, crosscheck
from tokenslide.generate import (
    enumerate_caterpillar_graphs,
    enumerate_independent_sets,
    enumerate_proper_representations,
    enumerate_tp_representations,
)
from tokenslide.graphs import Graph, find_strong_twins
from tokenslide.instances import parse_instance
from tokenslide.intervals import IntervalRepresentation
from tokenslide.results import SolverInputError, no_result, yes_result


def _expected_pairs(graphs, k_max=3):
    total = 0
    for g in graphs:
        for k in range(1, k_max + 1):
            total += len(list(enumerate_independent_sets(g, k))) ** 2
    return total


class TestExhaustive:
    def test_proper_clean_and_complete(self):
        report = crosscheck("proper", 5)
        assert report.ok
        graphs = [
            g
            for n in range(1, 6)
            for rep in enumerate_proper_representations(n)
            if not find_strong_twins(g := Graph.from_representation(rep))
        ]
        assert report.checked == _expected_pairs(graphs)

    def test_tp_clean_and_complete(self):
        report = crosscheck("tp", 6)
        assert report.ok
        graphs = [
            Graph.from_representation(rep)
            for n in range(1, 7)
            for rep in enumerate_tp_representations(n)
        ]
        assert report.checked == _expected_pairs(graphs)

    def test_caterpillar_clean_and_complete(self):
        report = crosscheck("caterpillar", 6)
        assert report.ok
        graphs = [
            g for n in range(3, 7) for g in enumerate_caterpillar_graphs(n)
        ]
        assert report.checked == _expected_pairs(graphs)

    def test_below_smallest_graph_is_empty(self):
        # no caterpillar has two vertices, so the sweep would check nothing;
        # it is refused rather than reported as a clean CHECKED 0
        with pytest.raises(ValueError, match="caterpillar sweep needs n_max at least 3, got 2"):
            crosscheck("caterpillar", 2)

    def test_sharding_does_not_change_the_report(self):
        assert crosscheck("caterpillar", 6, jobs=3) == crosscheck(
            "caterpillar", 6
        )
        assert crosscheck("caterpillar", 12, count=30, seed=5, jobs=3) == crosscheck(
            "caterpillar", 12, count=30, seed=5
        )

    def test_state_budget_applies_to_exhaustive_sweeps(self):
        report = crosscheck("caterpillar", 5, cap=1)
        assert report.checked == 265
        capped = [m for m in report.mismatches if m.oracle == "CAP"]
        assert capped and capped == list(report.mismatches)
        note = "oracle=CAP note=search state cap exceeded"
        assert all(m.line().endswith(note) for m in capped)


class TestRandom:
    def test_seed_reproducibility(self):
        a = crosscheck("proper", 7, count=25, seed=11)
        b = crosscheck("proper", 7, count=25, seed=11)
        assert a == b
        assert a.ok
        assert a.checked == 25

    def test_all_classes_clean(self):
        for cls in ("proper", "tp", "caterpillar"):
            report = crosscheck(cls, 8, count=30, seed=2)
            assert report.ok, report.render()

    def test_exhausted_state_budget_is_reported(self):
        report = crosscheck("caterpillar", 8, count=10, seed=4, cap=1)
        assert not report.ok
        assert any(m.oracle == "CAP" for m in report.mismatches)


class TestHarnessSelfTest:
    def test_always_no_solver_is_caught(self):
        report = crosscheck(
            "proper",
            4,
            solver=lambda rep, blue, red: no_result("CARDINALITY_MISMATCH"),
        )
        assert not report.ok
        assert len(report.mismatches) > 0
        first = report.mismatches[0]
        assert first.solver == "NO"
        assert first.oracle != "NO"

    def test_off_by_one_count_is_caught(self):
        def padded(g, blue, red):
            from tokenslide.caterpillar import solve_caterpillar

            res = solve_caterpillar(g, blue, red)
            if res.yes and res.moves:
                src, dst = res.moves[-1]
                return yes_result(res.moves + ((dst, src), (src, dst)))
            return res

        report = crosscheck("caterpillar", 5, solver=padded)
        assert not report.ok

    def test_invalid_sequence_is_caught(self):
        def teleport(g, blue, red):
            if blue == red:
                return yes_result(())
            rest = [(b, r) for b, r in zip(blue, red) if b != r]
            return yes_result(rest)

        report = crosscheck("caterpillar", 4, solver=teleport)
        assert not report.ok
        assert any("INVALID_SEQUENCE" in m.note for m in report.mismatches)

    def test_hook_runs_in_one_process(self):
        # a local function cannot be sent to a worker process, so a hook
        # overrides jobs
        def hook(g, blue, red):
            return no_result("LOCK_MISMATCH")

        sharded = crosscheck("caterpillar", 4, jobs=3, solver=hook)
        assert sharded == crosscheck("caterpillar", 4, solver=hook)

    def test_solver_crash_becomes_one_mismatch_line(self):
        from tokenslide.caterpillar import solve_caterpillar

        calls = []

        def crashes_once(g, blue, red):
            calls.append((g.n, tuple(g.edges()), blue, red))
            if len(calls) == 40:
                raise AssertionError("no room to make way")
            return solve_caterpillar(g, blue, red)

        report = crosscheck("caterpillar", 5, solver=crashes_once)
        assert report.checked == crosscheck("caterpillar", 5).checked
        assert report.checked == len(calls)
        (crash,) = report.mismatches
        assert crash.solver == "CRASH:AssertionError"
        assert crash.note == "no room to make way at test_crosscheck.py in crashes_once"
        assert crash.line().startswith("MISMATCH n ")
        inst = parse_instance(crash.instance.replace(";", "\n"))
        n, edges, blue, red = calls[39]
        assert (inst.n, inst.edge_list, inst.blue, inst.red) == (n, edges, blue, red)

    def test_rejected_instance_becomes_one_mismatch_line(self):
        def rejects(g, blue, red):
            raise SolverInputError("NOT_CATERPILLAR", "not a caterpillar")

        report = crosscheck("caterpillar", 3, solver=rejects)
        assert report.checked == len(report.mismatches) == 10
        assert report.mismatches[5].line() == (
            "MISMATCH n 3;edges 2;1 2;1 3;blue 2;red 3 solver=ERROR:NOT_CATERPILLAR"
            " oracle=2 note=solver rejected the instance"
        )
        assert {m.solver for m in report.mismatches} == {"ERROR:NOT_CATERPILLAR"}

    def test_prepare_crash_marks_every_pair_of_the_graph(self, monkeypatch):
        cc = importlib.import_module("tokenslide.crosscheck")
        prepare = cc.prepare_tp
        failed = []

        def fails_on_one_graph(rep):
            if rep.n == 4 and not failed:
                failed.append(rep)
                raise RuntimeError("boom")
            return prepare(rep)

        monkeypatch.setattr(cc, "prepare_tp", fails_on_one_graph)
        report = crosscheck("tp", 4)
        assert report.checked == crosscheck("tp", 4).checked
        (rep,) = failed
        pairs = _expected_pairs([Graph.from_representation(rep)])
        assert len(report.mismatches) == pairs
        assert {m.solver for m in report.mismatches} == {"CRASH:RuntimeError"}
        notes = {m.note for m in report.mismatches}
        assert notes == {"boom at test_crosscheck.py in fails_on_one_graph"}

    def test_crashes_leave_no_reference_cycle(self, monkeypatch):
        # an exception kept by the sweep would hold, through its traceback,
        # the sweep's frame with its search space and graph
        cc = importlib.import_module("tokenslide.crosscheck")

        def crashes(structure, *args):
            raise RuntimeError("boom")

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            report = crosscheck("proper", 3, solver=crashes)
            assert gc.collect() == 0
            monkeypatch.setattr(cc, "prepare_tp", crashes)
            prepare_report = crosscheck("tp", 3)
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()
        for r in (report, prepare_report):
            assert r.checked == len(r.mismatches) > 0
            assert {m.note for m in r.mismatches} == {"boom at test_crosscheck.py in crashes"}

    def test_mismatch_lines_carry_a_replayable_instance(self):
        report = crosscheck(
            "caterpillar",
            4,
            solver=lambda g, blue, red: no_result("LOCK_MISMATCH"),
        )
        line = report.mismatches[0].line()
        assert line.startswith("MISMATCH n ")
        assert ";blue " in line and ";red " in line
        assert "solver=NO oracle=" in line


def test_report_rendering():
    report = CrosscheckReport(
        7, (Mismatch(3, "n 1;rep L1 R1;blue 1;red 1", "NO", "0"),)
    )
    assert report.render() == (
        "MISMATCH n 1;rep L1 R1;blue 1;red 1 solver=NO oracle=0\n"
        "CHECKED 7 MISMATCHES 1\n"
    )


def test_unknown_class_rejected():
    import pytest

    with pytest.raises(ValueError):
        crosscheck("chordal", 5)


def test_token_bound_below_one_rejected():
    import pytest

    # an exhaustive sweep would check nothing and a randomized one could
    # draw no token count
    for k_max in (0, -2):
        for count in (None, 3):
            with pytest.raises(ValueError, match="k_max must be at least 1"):
                crosscheck("proper", 5, count=count, k_max=k_max)


def test_sweep_bounds_below_their_least_rejected():
    import pytest

    # each of these would check nothing, run as some other job count, or
    # search with a negative state cap
    for kwargs, name in (
        ({"n_max": 0}, "n_max must be at least 1, got 0"),
        ({"n_max": -4, "count": 3}, "n_max must be at least 1, got -4"),
        ({"count": 0}, "count must be at least 1, got 0"),
        ({"count": -3}, "count must be at least 1, got -3"),
        ({"jobs": 0}, "jobs must be at least 1, got 0"),
        ({"jobs": -1}, "jobs must be at least 1, got -1"),
        ({"jobs": -1, "solver": lambda *a: None}, "jobs must be at least 1"),
        ({"cap": -1}, "cap must be at least 0, got -1"),
        ({"cap": -1, "count": 3}, "cap must be at least 0, got -1"),
    ):
        args = {"n_max": 5, **kwargs}
        with pytest.raises(ValueError, match=name):
            crosscheck("proper", **args)
    # no caterpillar has fewer than three vertices, and no class has a
    # twin-free two-vertex graph for a randomized sweep to draw
    for kwargs in (
        {"n_max": 2}, {"n_max": 1}, {"n_max": 1, "count": 2}, {"n_max": 2, "count": 3}
    ):
        with pytest.raises(ValueError, match="caterpillar sweep needs n_max at least 3"):
            crosscheck("caterpillar", **kwargs)
    for cls in ("proper", "tp"):
        with pytest.raises(ValueError, match="n_max 1 or at least 3, got 2"):
            crosscheck(cls, 2, count=3)
    # the least bounds that still check something
    assert crosscheck("caterpillar", 3).checked == 10
    assert crosscheck("proper", 1, count=3).checked == 3
    assert crosscheck("proper", 2).checked == 1


@pytest.mark.parametrize("cls", ["proper", "tp", "caterpillar"])
def test_each_token_set_is_checked_once_per_graph(cls, monkeypatch):
    # every token check, by check_tokens or by validate_sequence's step 0,
    # asks the structure's touching once; the sweep's own enumeration of
    # the sets asks too, and is not counted
    cc = importlib.import_module("tokenslide.crosscheck")
    enumerate_sets = cc.enumerate_independent_sets
    checks = Counter()
    counting = [True]

    def uncounted_sets(g, k):
        counting[0] = False
        try:
            return list(enumerate_sets(g, k))
        finally:
            counting[0] = True

    for owner in (Graph, IntervalRepresentation):
        def counted(self, vertices, touching=owner.touching):
            if counting[0]:
                checks[type(self)] += 1
            return touching(self, vertices)

        monkeypatch.setattr(owner, "touching", counted)
    monkeypatch.setattr(cc, "enumerate_independent_sets", uncounted_sets)
    report = crosscheck(cls, 6)
    sets = sum(
        len(uncounted_sets(g, k))
        for _, g in cc._graph_stream(cls, 6)
        for k in range(1, 4)
    )
    assert report.ok
    # once on the graph, and for the interval classes once on the
    # representation the solver reads; checking per pair asks about twice
    # per pair, and a graph has far more pairs than sets
    if cls == "caterpillar":
        assert checks == {Graph: sets}
    else:
        assert checks == {Graph: sets, IntervalRepresentation: sets}
    assert report.checked > 4 * sets


# the lines a sweep gives when one enumerated set holds both ends of an
# edge: the solver rejects each pair with that set as blue or red
TOUCHING_SET_LINES = {
    "proper": """\
MISMATCH n 4;rep L1 L2 R1 L3 R2 L4 R3 R4;blue 1 3;red 1 2 solver=ERROR:NOT_INDEPENDENT oracle=NO note=solver rejected the instance
MISMATCH n 4;rep L1 L2 R1 L3 R2 L4 R3 R4;blue 1 4;red 1 2 solver=ERROR:NOT_INDEPENDENT oracle=NO note=solver rejected the instance
MISMATCH n 4;rep L1 L2 R1 L3 R2 L4 R3 R4;blue 2 4;red 1 2 solver=ERROR:NOT_INDEPENDENT oracle=NO note=solver rejected the instance
MISMATCH n 4;rep L1 L2 R1 L3 R2 L4 R3 R4;blue 1 2;red 1 3 solver=ERROR:NOT_INDEPENDENT oracle=NO note=solver rejected the instance
MISMATCH n 4;rep L1 L2 R1 L3 R2 L4 R3 R4;blue 1 2;red 1 4 solver=ERROR:NOT_INDEPENDENT oracle=NO note=solver rejected the instance
MISMATCH n 4;rep L1 L2 R1 L3 R2 L4 R3 R4;blue 1 2;red 2 4 solver=ERROR:NOT_INDEPENDENT oracle=NO note=solver rejected the instance
MISMATCH n 4;rep L1 L2 R1 L3 R2 L4 R3 R4;blue 1 2;red 1 2 solver=ERROR:NOT_INDEPENDENT oracle=0 note=solver rejected the instance
CHECKED 43 MISMATCHES 7
""",
    "caterpillar": """\
MISMATCH n 4;edges 3;1 2;1 3;1 4;blue 2 3;red 1 2 solver=ERROR:NOT_INDEPENDENT oracle=NO note=solver rejected the instance
MISMATCH n 4;edges 3;1 2;1 3;1 4;blue 2 4;red 1 2 solver=ERROR:NOT_INDEPENDENT oracle=NO note=solver rejected the instance
MISMATCH n 4;edges 3;1 2;1 3;1 4;blue 3 4;red 1 2 solver=ERROR:NOT_INDEPENDENT oracle=NO note=solver rejected the instance
MISMATCH n 4;edges 3;1 2;1 3;1 4;blue 1 2;red 2 3 solver=ERROR:NOT_INDEPENDENT oracle=NO note=solver rejected the instance
MISMATCH n 4;edges 3;1 2;1 3;1 4;blue 1 2;red 2 4 solver=ERROR:NOT_INDEPENDENT oracle=NO note=solver rejected the instance
MISMATCH n 4;edges 3;1 2;1 3;1 4;blue 1 2;red 3 4 solver=ERROR:NOT_INDEPENDENT oracle=NO note=solver rejected the instance
MISMATCH n 4;edges 3;1 2;1 3;1 4;blue 1 2;red 1 2 solver=ERROR:NOT_INDEPENDENT oracle=0 note=solver rejected the instance
MISMATCH n 4;edges 3;1 2;1 3;2 4;blue 1 4;red 1 2 solver=ERROR:NOT_INDEPENDENT oracle=NO note=solver rejected the instance
MISMATCH n 4;edges 3;1 2;1 3;2 4;blue 2 3;red 1 2 solver=ERROR:NOT_INDEPENDENT oracle=NO note=solver rejected the instance
MISMATCH n 4;edges 3;1 2;1 3;2 4;blue 3 4;red 1 2 solver=ERROR:NOT_INDEPENDENT oracle=NO note=solver rejected the instance
MISMATCH n 4;edges 3;1 2;1 3;2 4;blue 1 2;red 1 4 solver=ERROR:NOT_INDEPENDENT oracle=NO note=solver rejected the instance
MISMATCH n 4;edges 3;1 2;1 3;2 4;blue 1 2;red 2 3 solver=ERROR:NOT_INDEPENDENT oracle=NO note=solver rejected the instance
MISMATCH n 4;edges 3;1 2;1 3;2 4;blue 1 2;red 3 4 solver=ERROR:NOT_INDEPENDENT oracle=NO note=solver rejected the instance
MISMATCH n 4;edges 3;1 2;1 3;2 4;blue 1 2;red 1 2 solver=ERROR:NOT_INDEPENDENT oracle=0 note=solver rejected the instance
CHECKED 74 MISMATCHES 14
""",
}


@pytest.mark.parametrize("cls", sorted(TOUCHING_SET_LINES))
def test_a_touching_set_is_rejected_for_each_of_its_pairs(cls, monkeypatch):
    cc = importlib.import_module("tokenslide.crosscheck")
    enumerate_sets = cc.enumerate_independent_sets

    def with_touching_set(g, k):
        yield from enumerate_sets(g, k)
        if k == 2 and g.n == 4:
            yield g.edges()[0]

    monkeypatch.setattr(cc, "enumerate_independent_sets", with_touching_set)
    assert crosscheck(cls, 4, k_max=2).render() == TOUCHING_SET_LINES[cls]
