"""``main`` holds the cyclic garbage collector off while a command runs.

Reference counting frees everything a command builds, so the collector's
passes over it find nothing; these tests pin that no command builds a
reference cycle, that no pass runs during a command, and that the
caller's collector setting survives every exit path.
"""

import gc
import random
from dataclasses import replace

import pytest
from walks import walk_red

from tokenslide import cli
from tokenslide.cli import main
from tokenslide.generate import gen_instance
from tokenslide.instances import serialize_instance

P8_REP = "n 8\nrep L1 L2 R1 L3 R2 L4 R3 L5 R4 L6 R5 L7 R6 L8 R7 R8\nblue 1\nred 8\n"
# two proper paths 1-2-3 and 4-5-6, both tokens in the first on one side
PROPER_NO = "n 6\nrep L1 L2 R1 L3 R2 R3 L4 L5 R4 L6 R5 R6\nblue 1 3\nred 4 6\n"
# a star on 1 with leaves 2 and 3
TP_YES = "n 3\nrep L1 L2 R2 L3 R3 R1\nblue 2\nred 3\n"
# two such stars, both tokens in the first on one side
TP_NO = "n 6\nrep L1 L2 R2 L3 R3 R1 L4 L5 R5 L6 R6 R4\nblue 2 3\nred 5 6\n"
P4_EDGES = "n 4\nedges 3\n1 2\n2 3\n3 4\nblue 1\nred 4\n"
LOCKED_NO = "n 6\nedges 5\n1 2\n1 4\n2 3\n3 5\n3 6\nblue 2 4 5\nred 2 4 6\n"
TRIANGLE = "n 3\nedges 3\n1 2\n2 3\n1 3\nblue 1\nred 3\n"


@pytest.fixture
def collector(request):
    """Set the collector as ``request.param`` (on when unparametrised)
    for the test and restore the runner's setting after it."""
    was_enabled = gc.isenabled()
    on = getattr(request, "param", True)
    gc.enable() if on else gc.disable()
    yield on
    gc.enable() if was_enabled else gc.disable()


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _commands(tmp_path):
    """(label, argv, exit code) of one run of every command and exit path,
    in an order where each verify follows the solve that wrote its file."""
    out = str(tmp_path / "out.txt")
    cases = []
    for label, text, cls, code in (
        ("proper YES", P8_REP, "proper", 0),
        ("proper NO", PROPER_NO, "proper", 1),
        ("tp YES", TP_YES, "tp", 0),
        ("tp NO", TP_NO, "tp", 1),
        ("caterpillar YES", P4_EDGES, "caterpillar", 0),
        ("caterpillar NO", LOCKED_NO, "caterpillar", 1),
        ("auto YES", P8_REP, "auto", 0),
    ):
        inst = _write(tmp_path, f"{label}.txt", text)
        cases.append((f"solve {label}", ["solve", "--class", cls, "--in", inst,
                                         "--out", out], code))
    for cls in ("proper", "tp", "caterpillar"):
        # a random-walk red, so that every class gives a schedule to verify
        gen = gen_instance(cls, 2_000, 30, seed=3)
        red = walk_red(gen.graph, gen.blue, 300, random.Random(3))
        inst = _write(tmp_path, f"gen-{cls}.txt",
                      serialize_instance(replace(gen, red=red)))
        seq = str(tmp_path / f"gen-{cls}.seq")
        cases.append((f"solve generated {cls}", ["solve", "--in", inst,
                                                 "--out", seq], 0))
        cases.append((f"verify generated {cls}", ["verify", "--in", inst,
                                                  "--seq", seq, "--out", out], 0))
    p8 = _write(tmp_path, "p8.txt", P8_REP)
    good = str(tmp_path / "p8.seq")
    cases += [
        ("solve p8 for verify", ["solve", "--in", p8, "--out", good], 0),
        ("verify OK", ["verify", "--in", p8, "--seq", good, "--out", out], 0),
        ("verify INVALID", ["verify", "--in", p8, "--seq",
                            _write(tmp_path, "bad.seq", "MOVES 1\n1 3\n"),
                            "--out", out], 1),
        ("oracle", ["oracle", "--in", p8, "--out", out], 0),
        ("gen", ["gen", "--class", "caterpillar", "--n", "50", "--k", "3",
                 "--out", out], 0),
        ("crosscheck exhaustive", ["crosscheck", "--class", "tp", "--n", "5",
                                   "--out", out], 0),
        ("crosscheck randomized", ["crosscheck", "--class", "caterpillar",
                                   "--n", "10", "--count", "10", "--out", out], 0),
        ("crosscheck jobs 2", ["crosscheck", "--class", "proper", "--n", "5",
                               "--jobs", "2", "--out", out], 0),
        ("parse error", ["solve", "--in", _write(tmp_path, "junk.txt", "what\n")], 2),
        ("solver input error", ["solve", "--in",
                                _write(tmp_path, "triangle.txt", TRIANGLE)], 2),
        ("unwritable out", ["solve", "--in", p8, "--out",
                            str(tmp_path / "absent" / "x.txt")], 2),
    ]
    return cases


@pytest.mark.parametrize("collector", [False], indirect=True)
def test_no_command_leaves_a_cycle(collector, tmp_path, capsys):
    """With the collector off throughout, every command's objects are
    freed by reference counting alone: a collection after it finds
    nothing.  The first call builds the cached parser, which lives on."""
    cases = _commands(tmp_path)
    assert main(["gen", "--class", "proper", "--n", "8", "--k", "1",
                 "--out", str(tmp_path / "warm.txt")]) == 0
    gc.collect()
    for label, argv, code in cases:
        got = main(argv)
        assert gc.collect() == 0, label
        assert got == code, label
    capsys.readouterr()


@pytest.mark.parametrize("cls", ["proper", "caterpillar"])
def test_no_collector_pass_during_solve_or_verify(cls, collector, tmp_path):
    """At n = 10^4 with 300 tokens the collector, left on, runs passes
    over the parse, the schedule and the replay; held off, it runs none."""
    inst = _write(tmp_path, "inst.txt",
                  serialize_instance(gen_instance(cls, 10_000, 300, seed=300)))
    seq = str(tmp_path / "seq.txt")
    out = str(tmp_path / "out.txt")
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        assert main(["solve", "--in", inst, "--out", seq]) == 0
        solve_passes = len(passes)
        assert main(["verify", "--in", inst, "--seq", seq, "--out", out]) == 0
    finally:
        gc.callbacks.remove(count)
    assert (solve_passes, len(passes) - solve_passes) == (0, 0)
    assert gc.isenabled()


@pytest.mark.parametrize("collector", [True, False], indirect=True)
def test_caller_setting_survives_every_exit(collector, tmp_path, capsys,
                                            monkeypatch):
    inst = _write(tmp_path, "inst.txt", P8_REP)
    assert main(["solve", "--in", inst]) == 0
    assert gc.isenabled() is collector
    assert main(["solve", "--in", _write(tmp_path, "junk.txt", "what\n")]) == 2
    assert gc.isenabled() is collector
    with pytest.raises(SystemExit):
        main(["solve", "--class", "chordal", "--in", inst])
    assert gc.isenabled() is collector

    seen = []

    def failing(args):
        seen.append(gc.isenabled())
        raise RuntimeError("handler failed")

    monkeypatch.setattr(cli, "cmd_solve", failing)
    with pytest.raises(RuntimeError, match="handler failed"):
        main(["solve", "--in", inst])
    assert seen == [False]
    assert gc.isenabled() is collector
    capsys.readouterr()
