"""The benchmark harness in perfbench/ reaches into the package by name.

Its tracer wraps the layer modules' public functions and three methods,
and its input builder calls the generators and the instance types.  This
smoke test runs both against the package, so removing or renaming a name
they use fails here rather than in the benchmark.
"""

import importlib.util
import random
import sys
from pathlib import Path

import tokenslide
import tokenslide.cli

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_input_builder_reaches_the_package(tmp_path):
    inputs = load("inputs")
    built = inputs.build(tokenslide, "sweep", 1, tmp_path)
    assert built.cases and all(case.path.exists() for case in built.cases)
    assert all(sw.expected > 0 for sw in built.sweeps)
    rng = random.Random(1)
    for inst in (
        inputs.nesting_instance(tokenslide, 5, 2, rng),
        inputs.comb_instance(tokenslide, 4),
    ):
        assert tokenslide.parse_instance(tokenslide.serialize_instance(inst)) == inst


def test_tracer_wraps_and_restores(tmp_path, capsys):
    spans = load("spans")
    original = tokenslide.cli.solve_caterpillar
    original_cmd = tokenslide.cli.cmd_solve
    inst = tokenslide.gen_instance("caterpillar", 9, 2, seed=0)
    path = tmp_path / "inst.txt"
    path.write_text(tokenslide.serialize_instance(inst))
    # the CLI's parser exists before install, so handlers must not be bound in it
    assert tokenslide.cli.main(["solve", "--class", "caterpillar", "--in", str(path)]) == 0
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        assert tokenslide.cli.solve_caterpillar is not original
        report = tokenslide.crosscheck("caterpillar", 4, jobs=1)
        code = tokenslide.cli.main(["solve", "--class", "caterpillar", "--in", str(path)])
        metrics = spans.layer_metrics(tracer)
        randomized = tokenslide.crosscheck("caterpillar", 12, count=20, k_max=4, jobs=1)
        random_metrics = spans.layer_metrics(tracer)
    finally:
        restore()
    capsys.readouterr()
    assert tokenslide.cli.solve_caterpillar is original
    assert tokenslide.cli.cmd_solve is original_cmd
    assert [key for _, _, key, _, _ in tracer.spans].count("cli.cmd_solve") == 1
    assert report.ok and report.checked > 0
    assert code == 0
    assert randomized.ok and randomized.checked == 20
    assert random_metrics["oracle.calls"] == randomized.checked
    assert metrics["caterpillar.calls"] == report.checked + 1
    assert metrics["oracle.calls"] > 0
    assert metrics["instances.bytes_parsed"] == len(path.read_bytes())


def test_tracer_counts_the_edges_a_graph_holds():
    # the counter reads Graph.m, which is derived from the adjacency, so a
    # repeated edge counts once
    spans = load("spans")
    init = vars(tokenslide.Graph)["__init__"]
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        assert vars(tokenslide.Graph)["__init__"] is not init
        g = tokenslide.Graph(5, [(1, 2), (2, 1), (2, 3), (3, 4), (4, 5), (5, 3), (1, 2)])
        metrics = spans.layer_metrics(tracer)
    finally:
        restore()
    assert vars(tokenslide.Graph)["__init__"] is init
    assert g.m == 5
    assert metrics["graphs.edges_built"] == g.m


def test_tracer_times_the_tp_solver(tmp_path, capsys):
    spans = load("spans")
    original = tokenslide.solve_tp
    inst = tokenslide.gen_instance("tp", 9, 2, seed=5)
    path = tmp_path / "inst.txt"
    path.write_text(tokenslide.serialize_instance(inst))
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        assert tokenslide.solve_tp is not original
        code = tokenslide.cli.main(["solve", "--class", "tp", "--in", str(path)])
        decided = tokenslide.solve_tp(inst.rep, inst.blue, inst.red, decide=True)
        metrics = spans.layer_metrics(tracer)
    finally:
        restore()
    out = capsys.readouterr().out
    assert tokenslide.solve_tp is original
    assert tokenslide.cli.solve_tp is original
    assert code == 0 and decided.yes
    moves = int(out.splitlines()[1].split()[1])
    assert moves > 0
    assert metrics["trivially_perfect.solve_s"] > 0
    assert metrics["trivially_perfect.decide_s"] > 0
    assert metrics["trivially_perfect.moves"] == moves
