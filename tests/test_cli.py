"""Command-line front end."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tokenslide
from tokenslide import generate, graphs
from tokenslide.cli import main
from tokenslide.instances import MAX_N
from tokenslide.graphs import Graph
from tokenslide.intervals import IntervalRepresentation

P8_REP = "n 8\nrep L1 L2 R1 L3 R2 L4 R3 L5 R4 L6 R5 L7 R6 L8 R7 R8\nblue 1\nred 8\n"

# path 1-2-3-4 drawn with vertex 4 nested inside 3: the endpoint orders
# differ and intervals 1/2 partially overlap, so only the caterpillar
# solver fits
P4_NESTED_REP = "n 4\nrep L1 L2 R1 L3 R2 L4 R4 R3\nblue 1\nred 4\n"

LOCKED_NO = "n 6\nedges 5\n1 2\n1 4\n2 3\n3 5\n3 6\nblue 2 4 5\nred 2 4 6\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestSolve:
    def test_path_single_token(self, tmp_path, capsys):
        path = write(tmp_path, "inst.txt", P8_REP)
        code, out, _ = run(capsys, "solve", "--in", path)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "YES"
        assert lines[1] == "MOVES 7"
        assert len(lines) == 9

    def test_auto_falls_back_to_caterpillar(self, tmp_path, capsys):
        path = write(tmp_path, "inst.txt", P4_NESTED_REP)
        code, out, _ = run(capsys, "solve", "--in", path)
        assert code == 0
        assert out.splitlines()[1] == "MOVES 3"

    def test_no_answer_with_reason_and_witness(self, tmp_path, capsys):
        path = write(tmp_path, "inst.txt", LOCKED_NO)
        code, out, _ = run(capsys, "solve", "--in", path)
        assert code == 1
        assert out == "NO LOCK_MISMATCH 5 6\n"

    def test_cardinality_no(self, tmp_path, capsys):
        text = "n 3\nedges 2\n1 2\n2 3\nblue 1 3\nred 2\n"
        path = write(tmp_path, "inst.txt", text)
        code, out, _ = run(capsys, "solve", "--in", path)
        assert code == 1
        assert out.startswith("NO CARDINALITY_MISMATCH")

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "inst.txt", "what even\n")
        code, _, err = run(capsys, "solve", "--in", path)
        assert code == 2
        assert "ERROR PARSE" in err

    def test_bad_rep_token_is_a_parse_error(self, tmp_path, capsys):
        path = write(tmp_path, "inst.txt", "n 2\nrep L1 X2 R1 R2\nblue 1\nred 1\n")
        code, out, err = run(capsys, "solve", "--in", path)
        assert (code, out) == (2, "")
        assert err == "ERROR PARSE: rep line, token 2: malformed endpoint token 'X2'\n"

    def test_edge_list_cannot_use_proper_solver(self, tmp_path, capsys):
        path = write(tmp_path, "inst.txt", LOCKED_NO)
        code, _, err = run(capsys, "solve", "--class", "proper", "--in", path)
        assert code == 2
        assert "UNSUPPORTED_CLASS" in err

    def test_unsupported_graph_exits_2(self, tmp_path, capsys):
        # a triangle fits none of the three solver classes
        text = "n 3\nedges 3\n1 2\n2 3\n1 3\nblue 1\nred 3\n"
        path = write(tmp_path, "inst.txt", text)
        code, _, err = run(capsys, "solve", "--in", path)
        assert code == 2
        assert "UNSUPPORTED_CLASS" in err

    def test_disconnected_proper_rep(self, tmp_path, capsys):
        text = (
            "n 6\nrep L1 L2 R1 L3 R2 R3 L4 L5 R4 L6 R5 R6\n"
            "blue 1 4\nred 3 6\n"
        )
        path = write(tmp_path, "inst.txt", text)
        code, out, _ = run(capsys, "solve", "--in", path)
        assert code == 0
        assert out.splitlines()[1] == "MOVES 4"

    def test_output_file(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.txt", P8_REP)
        dest = tmp_path / "moves.txt"
        code, out, _ = run(capsys, "solve", "--in", inst, "--out", str(dest))
        assert code == 0
        assert out == ""
        assert dest.read_text().startswith("YES\nMOVES 7\n")

    def test_out_file_does_not_carry_over_to_the_next_call(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.txt", P8_REP)
        dest = tmp_path / "moves.txt"
        assert run(capsys, "solve", "--in", inst, "--out", str(dest)) == (0, "", "")
        saved = dest.read_text()
        code, out, _ = run(capsys, "solve", "--in", inst)
        assert (code, out) == (0, saved)
        assert dest.read_text() == saved

    def test_n_above_the_limit_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "inst.txt", f"n {MAX_N + 1}\nedges 1\n1 2\nblue 1\nred 2\n")
        code, out, err = run(capsys, "solve", "--in", path)
        assert (code, out) == (2, "")
        assert err == f"ERROR PARSE: n={MAX_N + 1} exceeds the limit of {MAX_N}\n"


# `solve --class auto` on a representation: instance text, then the exit
# code, stdout and stderr it gave while auto still classified the
# endpoints before preparing them
UNSUPPORTED = "instance fits none of: proper interval, trivially perfect, caterpillar"
TWINS = "vertices with identical closed neighborhoods present"
TP5 = "n 5\nrep L1 L2 L3 R3 L4 R4 R2 L5 R5 R1\n"
AUTO_BYTES = {
    "proper": (P8_REP, 0, "YES\nMOVES 7\n" + "".join(f"{v} {v + 1}\n" for v in range(1, 8)), ""),
    "tp": (TP5 + "blue 3 5\nred 4 5\n", 0, "YES\nMOVES 2\n3 2\n2 4\n", ""),
    "tp-no": (TP5 + "blue 3 4\nred 2 5\n", 1, "NO MERGE_CASE4 2\n", ""),
    "neither": (P4_NESTED_REP, 0, "YES\nMOVES 3\n1 2\n2 3\n3 4\n", ""),
    "proper-twins": ("n 3\nrep L1 L2 L3 R1 R2 R3\nblue 1\nred 3\n", 2, "",
                     f"ERROR STRONG_TWINS: {TWINS}\n"),
    "tp-twins": ("n 3\nrep L1 L2 L3 R3 R2 R1\nblue 1\nred 3\n", 2, "",
                 f"ERROR STRONG_TWINS: {TWINS}\n"),
    "tp-touching": (TP5 + "blue 2 3\nred 4 5\n", 2, "",
                    "ERROR NOT_INDEPENDENT: blue tokens touch each other\n"),
    "cyclic": ("n 3\nrep L1 L2 L3 R1 R3 R2\nblue 1\nred 3\n", 2, "",
               f"ERROR UNSUPPORTED_CLASS: {UNSUPPORTED}\n"),
}


@pytest.mark.parametrize("name", sorted(AUTO_BYTES))
def test_auto_class_prepares_without_classifying(name, tmp_path, capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("auto classified the endpoints")

    monkeypatch.setattr(IntervalRepresentation, "classify", refuse)
    text, code, out, err = AUTO_BYTES[name]
    path = write(tmp_path, "inst.txt", text)
    assert run(capsys, "solve", "--class", "auto", "--in", path) == (code, out, err)


class TestVerify:
    def test_solve_output_verifies(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.txt", P8_REP)
        seq = tmp_path / "seq.txt"
        run(capsys, "solve", "--in", inst, "--out", str(seq))
        code, out, _ = run(capsys, "verify", "--in", inst, "--seq", str(seq))
        assert code == 0
        assert out == "OK\n"

    def test_corrupted_sequence_flagged(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.txt", P8_REP)
        seq = write(tmp_path, "seq.txt", "MOVES 2\n1 2\n2 8\n")
        code, out, _ = run(capsys, "verify", "--in", inst, "--seq", seq)
        assert code == 1
        assert out.startswith("INVALID step=2")

    def test_wrong_final_set_flagged(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.txt", P8_REP)
        seq = write(tmp_path, "seq.txt", "MOVES 1\n1 2\n")
        code, out, _ = run(capsys, "verify", "--in", inst, "--seq", seq)
        assert code == 1
        assert "WRONG_FINAL_SET" in out

    def test_solve_output_with_crlf_endings_verifies(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.txt", P8_REP)
        seq = tmp_path / "seq.txt"
        run(capsys, "solve", "--in", inst, "--out", str(seq))
        text = seq.read_text()
        assert text.startswith("YES\n")
        seq.write_bytes(text.replace("\n", "\r\n").encode())
        code, out, _ = run(capsys, "verify", "--in", inst, "--seq", str(seq))
        assert (code, out) == (0, "OK\n")

    def test_malformed_number_in_move_exits_2(self, tmp_path, capsys):
        # int() reads "0_3" as 3, which made this slide verify OK
        inst = write(tmp_path, "inst.txt", P8_REP.replace("blue 1\nred 8", "blue 2\nred 3"))
        seq = write(tmp_path, "seq.txt", "MOVES 1\n2 0_3\n")
        code, out, err = run(capsys, "verify", "--in", inst, "--seq", seq)
        assert (code, out) == (2, "")
        assert err == "ERROR PARSE: bad move line: '2 0_3'\n"

    def test_malformed_sequence_exits_2(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.txt", P8_REP)
        seq = write(tmp_path, "seq.txt", "oops\n")
        code, _, err = run(capsys, "verify", "--in", inst, "--seq", seq)
        assert code == 2
        assert "ERROR PARSE" in err

    def test_representation_verified_without_edges(self, tmp_path, capsys, monkeypatch):
        # chain of 4,000 nested intervals, each holding one leaf, the
        # innermost a second leaf: about 16M intersection edges
        depth = 4000
        events = []
        for i in range(1, depth + 1):
            events += [f"L{i}", f"L{depth + i}", f"R{depth + i}"]
        extra = 2 * depth + 1
        events += [f"L{extra}", f"R{extra}"] + [f"R{i}" for i in range(depth, 0, -1)]
        blue = list(range(depth + 1, 2 * depth + 1, 40))
        red = blue[:-1] + [extra]
        deepest = blue[-1]
        inst = write(tmp_path, "inst.txt", (
            f"n {extra}\nrep {' '.join(events)}\n"
            f"blue {' '.join(map(str, blue))}\nred {' '.join(map(str, red))}\n"
        ))
        # the leaf slides into its chain interval, which holds the extra leaf
        seq = write(tmp_path, "seq.txt", f"MOVES 2\n{deepest} {deepest - depth}\n{deepest - depth} {extra}\n")

        def refuse(*args, **kwargs):
            raise AssertionError("verify built a graph")

        monkeypatch.setattr(graphs, "_interval_adjacency", refuse)
        monkeypatch.setattr(Graph, "__init__", refuse)
        code, out, _ = run(capsys, "verify", "--in", inst, "--seq", seq)
        assert (code, out) == (0, "OK\n")


class TestUnreadableInput:
    """Input the parsers cannot take exits 2 with a parse error; none of
    these may print a traceback and exit 1, the code of a NO."""

    # longer than Python's default int-string limit of 4,300 digits
    HUGE = "1" * 4400

    def test_huge_n(self, tmp_path, capsys):
        path = write(tmp_path, "inst.txt", f"n {self.HUGE}\nedges 1\n1 2\nblue 1\nred 2\n")
        code, out, err = run(capsys, "solve", "--in", path)
        assert (code, out) == (2, "")
        assert err == "ERROR PARSE: n line must be 'n <positive integer>'\n"

    def test_n_at_the_digit_limit_is_still_read(self, tmp_path, capsys):
        n = "1" * 4300
        path = write(tmp_path, "inst.txt", f"n {n}\nedges 1\n1 2\nblue 1\nred 2\n")
        code, out, err = run(capsys, "oracle", "--in", path)
        assert (code, out) == (2, "")
        assert err == f"ERROR PARSE: n={n} exceeds the limit of {MAX_N}\n"

    def test_huge_endpoint(self, tmp_path, capsys):
        path = write(tmp_path, "inst.txt", f"n 2\nrep L{self.HUGE} L2 R1 R2\nblue 1\nred 1\n")
        code, out, err = run(capsys, "solve", "--in", path)
        assert (code, out) == (2, "")
        assert err == f"ERROR PARSE: rep line, token 1: malformed endpoint token 'L{self.HUGE}'\n"

    def test_huge_move(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.txt", P8_REP)
        seq = write(tmp_path, "seq.txt", f"MOVES 1\n1 {self.HUGE}\n")
        code, out, err = run(capsys, "verify", "--in", inst, "--seq", seq)
        assert (code, out) == (2, "")
        assert err == f"ERROR PARSE: bad move line: '1 {self.HUGE}'\n"

    @pytest.mark.parametrize("command", ["solve", "verify", "oracle"])
    def test_instance_not_utf8(self, command, tmp_path, capsys):
        path = tmp_path / "inst.txt"
        path.write_bytes(b"\xff" + P8_REP.encode())
        seq = write(tmp_path, "seq.txt", "MOVES 0\n")
        extra = ("--seq", seq) if command == "verify" else ()
        code, out, err = run(capsys, command, "--in", str(path), *extra)
        assert (code, out) == (2, "")
        assert err.startswith(f"ERROR PARSE: cannot read {path}: 'utf-8' codec can't decode")

    @pytest.mark.parametrize("command", ["solve", "verify", "oracle"])
    def test_missing_instance_file(self, command, tmp_path, capsys):
        missing = tmp_path / "absent.txt"
        seq = write(tmp_path, "seq.txt", "MOVES 0\n")
        extra = ("--seq", seq) if command == "verify" else ()
        code, out, err = run(capsys, command, "--in", str(missing), *extra)
        assert (code, out) == (2, "")
        assert err.startswith(f"ERROR PARSE: cannot read {missing}: ")

    def test_missing_sequence_file(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.txt", P8_REP)
        missing = tmp_path / "absent.txt"
        code, out, err = run(capsys, "verify", "--in", inst, "--seq", str(missing))
        assert (code, out) == (2, "")
        assert err.startswith(f"ERROR PARSE: cannot read {missing}: ")


# one malformed instance file per parse_instance error the other tests
# leave out, plus parse_representation's duplicate RIGHT endpoint: the
# file, then the exact message every reading command prints
MALFORMED = {
    "empty": ("# nothing but a comment\n\n", "empty instance file"),
    "duplicate-n": ("n 2\nn 2\nedges 1\n1 2\nblue 1\nred 2\n", "duplicate n line"),
    "rep-before-n": ("rep L1 R1\nn 1\nblue 1\nred 1\n", "rep line before n line"),
    "edges-before-n": ("edges 0\nn 1\nblue 1\nred 1\n", "edges line before n line"),
    "blue-before-n": ("blue 1\nn 1\nedges 0\nred 1\n", "blue line before n line"),
    "red-before-n": ("red 1\nn 1\nedges 0\nblue 1\n", "red line before n line"),
    "rep-after-edges": ("n 1\nedges 0\nrep L1 R1\nblue 1\nred 1\n", "multiple rep/edges sections"),
    "edges-after-rep": ("n 1\nrep L1 R1\nedges 0\nblue 1\nred 1\n", "multiple rep/edges sections"),
    "bad-edge": ("n 3\nedges 1\n1 2 3\nblue 1\nred 1\n", "bad edge line: '1 2 3'"),
    "duplicate-red": ("n 2\nedges 0\nblue 1\nred 1\nred 2\n", "duplicate red line"),
    "no-structure": ("n 2\nblue 1\nred 2\n", "missing rep or edges section"),
    "duplicate-right": (
        "n 2\nrep L1 R1 L2 R2 R1\nblue 1\nred 2\n",
        "rep line, token 5: duplicate RIGHT endpoint for vertex 1",
    ),
}


@pytest.mark.parametrize("command", ["solve", "verify", "oracle"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_instance_file_is_a_parse_error(case, command, tmp_path, capsys):
    text, message = MALFORMED[case]
    inst = write(tmp_path, "inst.txt", text)
    seq = write(tmp_path, "seq.txt", "MOVES 0\n")
    extra = ("--seq", seq) if command == "verify" else ()
    assert run(capsys, command, "--in", inst, *extra) == (2, "", f"ERROR PARSE: {message}\n")


# the caterpillar scheduler runs out of room on this instance (the oracle
# finds 16 moves)
NO_ROOM = (
    "n 10\nedges 9\n1 2\n1 7\n2 3\n2 8\n3 4\n4 5\n5 6\n5 9\n6 10\n"
    "blue 1 4 8 9\nred 3 5 8 10\n"
)


def test_scheduler_loop_guards_survive_python_O(tmp_path):
    """``python -O`` strips ``assert``; the scheduler's loop guards raise
    explicitly, so the run ends with the same error instead of looping."""
    path = write(tmp_path, "inst.txt", NO_ROOM)
    env = {**os.environ, "PYTHONPATH": str(Path(tokenslide.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "tokenslide.cli", "solve", "--in", path],
        capture_output=True, text=True, timeout=30, env=env,
    )
    assert proc.returncode == 1
    assert "no room to make way" in proc.stderr


class TestOracle:
    def test_reachable(self, tmp_path, capsys):
        path = write(tmp_path, "inst.txt", P8_REP)
        code, out, _ = run(capsys, "oracle", "--in", path)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "YES"
        assert lines[1] == "MOVES 7"
        assert lines[-1].startswith("STATES ")

    def test_unreachable(self, tmp_path, capsys):
        path = write(tmp_path, "inst.txt", LOCKED_NO)
        code, out, _ = run(capsys, "oracle", "--in", path)
        assert code == 1
        assert out.splitlines()[0] == "NO"

    def test_budget_exceeded(self, tmp_path, capsys):
        path = write(tmp_path, "inst.txt", P8_REP)
        code, out, _ = run(capsys, "oracle", "--in", path, "--budget", "2")
        assert code == 2
        assert out.splitlines()[0] == "CAP_EXCEEDED"

    def test_negative_budget_is_a_usage_error(self, tmp_path, capsys):
        # it used to print CAP_EXCEEDED and STATES 1, as a budget of 0 does
        path = write(tmp_path, "inst.txt", P8_REP)
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--in", path, "--budget", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --budget: must be at least 0, got -1" in captured.err

    def test_zero_budget_is_accepted(self, tmp_path, capsys):
        path = write(tmp_path, "inst.txt", P8_REP)
        code, out, _ = run(capsys, "oracle", "--in", path, "--budget", "0")
        assert (code, out) == (2, "CAP_EXCEEDED\nSTATES 1\n")

    def test_touching_blue_is_an_input_error(self, tmp_path, capsys):
        text = "n 4\nedges 3\n1 2\n2 3\n3 4\nblue 1 2\nred 1 3\n"
        path = write(tmp_path, "inst.txt", text)
        code, out, err = run(capsys, "oracle", "--in", path)
        assert (code, out) == (2, "")
        assert err == "ERROR INPUT: blue tokens touch each other\n"


class TestGen:
    def test_gen_solve_verify_pipeline(self, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        seq = tmp_path / "seq.txt"
        verified = 0
        for cls in ("proper", "tp", "caterpillar"):
            for seed in range(5):
                code, _, _ = run(
                    capsys, "gen", "--class", cls, "--n", "10", "--k", "2",
                    "--seed", str(seed), "--out", str(inst),
                )
                assert code == 0
                code, out, _ = run(
                    capsys, "solve", "--in", str(inst), "--out", str(seq)
                )
                if code == 1:
                    # random pairs may be honestly unreachable
                    assert seq.read_text().startswith("NO ")
                    continue
                assert code == 0
                code, out, _ = run(
                    capsys, "verify", "--in", str(inst), "--seq", str(seq)
                )
                assert code == 0, (cls, seed, out)
                verified += 1
        assert verified >= 8

    def test_gen_is_deterministic(self, capsys):
        args = ("gen", "--class", "caterpillar", "--n", "9", "--k", "3",
                "--seed", "42")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second
        assert first.startswith("n 9\n")

    def test_n_above_the_parse_limit_exits_2_at_once(self, tmp_path, capsys):
        # solve, verify and oracle would refuse the file as a parse error,
        # so gen refuses to write it, before generating any vertex
        dest = tmp_path / "inst.txt"
        code, out, err = run(
            capsys, "gen", "--class", "caterpillar", "--n", str(MAX_N + 1),
            "--k", "1", "--out", str(dest),
        )
        assert (code, out) == (2, "")
        assert err == f"ERROR INFEASIBLE: n={MAX_N + 1} exceeds the limit of {MAX_N}\n"
        assert not dest.exists()

    def test_k_above_n_exits_2_at_once(self, tmp_path, capsys, monkeypatch):
        # no retry of a class generator could find the tokens, so none runs
        def unreachable(*args):
            raise AssertionError("ran a generator for an infeasible k")

        for cls in ("proper", "tp", "caterpillar"):
            monkeypatch.setitem(generate._GENERATORS, cls, unreachable)
        dest = tmp_path / "inst.txt"
        code, out, err = run(
            capsys, "gen", "--class", "proper", "--n", "10000", "--k", "10001",
            "--out", str(dest),
        )
        assert (code, out) == (2, "")
        assert err == "ERROR INFEASIBLE: k=10001 exceeds n=10000\n"
        assert not dest.exists()

    def test_infeasible_exits_2(self, capsys):
        code, _, err = run(
            capsys, "gen", "--class", "proper", "--n", "2", "--k", "1"
        )
        assert code == 2
        assert "INFEASIBLE" in err


class TestCrosscheck:
    def test_exhaustive_clean(self, capsys):
        code, out, _ = run(
            capsys, "crosscheck", "--class", "tp", "--n", "6"
        )
        assert code == 0
        assert out.splitlines()[-1] == "CHECKED 618 MISMATCHES 0"

    def test_random_clean(self, capsys):
        code, out, _ = run(
            capsys, "crosscheck", "--class", "caterpillar", "--n", "7",
            "--count", "20", "--seed", "9",
        )
        assert code == 0
        assert out.splitlines()[-1] == "CHECKED 20 MISMATCHES 0"

    @pytest.mark.parametrize("k", ["0", "-2"])
    @pytest.mark.parametrize("shape", [(), ("--count", "3")])
    def test_token_bound_below_one_is_a_usage_error(self, k, shape, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["crosscheck", "--class", "proper", "--n", "5", *shape, "--k", k])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --k: must be at least 1, got {k}" in captured.err

    # the first four used to print CHECKED 0 MISMATCHES 0 and exit 0, the
    # negative --jobs ran as one job, and the negative --budget reported
    # every pair as oracle=CAP, as a budget of 0 does
    @pytest.mark.parametrize("argv, message", [
        (("--n", "0"), "argument --n: must be at least 1, got 0"),
        (("--n", "-4", "--count", "3"), "argument --n: must be at least 1, got -4"),
        (("--n", "5", "--count", "0"), "argument --count: must be at least 1, got 0"),
        (("--n", "5", "--count", "-3"), "argument --count: must be at least 1, got -3"),
        (("--n", "5", "--jobs", "-1"), "argument --jobs: must be at least 1, got -1"),
        (("--n", "3", "--budget", "-1"), "argument --budget: must be at least 0, got -1"),
    ])
    def test_sweep_bound_below_its_least_is_a_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["crosscheck", "--class", "proper", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    # each of these printed CHECKED 0 MISMATCHES 0 and exited 0
    @pytest.mark.parametrize("argv, message", [
        (("caterpillar", "--n", "2"), "a caterpillar sweep needs n_max at least 3, got 2"),
        (("caterpillar", "--n", "1"), "a caterpillar sweep needs n_max at least 3, got 1"),
        (("caterpillar", "--n", "1", "--count", "2"),
         "a caterpillar sweep needs n_max at least 3, got 1"),
        (("proper", "--n", "2", "--count", "3"),
         "a randomized sweep needs n_max 1 or at least 3, got 2"),
        (("tp", "--n", "2", "--count", "3"),
         "a randomized sweep needs n_max 1 or at least 3, got 2"),
        (("caterpillar", "--n", "2", "--count", "3"),
         "a caterpillar sweep needs n_max at least 3, got 2"),
    ])
    def test_sweep_that_checks_nothing_is_an_input_error(self, argv, message, capsys):
        code, out, err = run(capsys, "crosscheck", "--class", *argv)
        assert code == 2
        assert out == ""
        assert err == f"ERROR INPUT: {message}\n"

    def test_zero_budget_is_accepted(self, capsys):
        code, out, _ = run(
            capsys, "crosscheck", "--class", "proper", "--n", "3", "--budget", "0"
        )
        assert code == 1
        assert out.splitlines()[-1] == "CHECKED 11 MISMATCHES 6"


@pytest.mark.parametrize("command", ["solve", "verify", "oracle", "gen", "crosscheck"])
def test_unwritable_out_exits_2(command, tmp_path, capsys):
    inst = write(tmp_path, "inst.txt", P8_REP)
    seq = write(tmp_path, "seq.txt", "MOVES 0\n")
    args = {
        "solve": ("--in", inst),
        "verify": ("--in", inst, "--seq", seq),
        "oracle": ("--in", inst),
        "gen": ("--class", "proper", "--n", "8", "--k", "2"),
        "crosscheck": ("--class", "tp", "--n", "4"),
    }[command]
    dest = tmp_path / "absent" / "x.txt"
    code, out, err = run(capsys, command, *args, "--out", str(dest))
    assert (code, out) == (2, "")
    assert err == f"ERROR OUTPUT: cannot write {dest}: No such file or directory\n"
    assert not dest.parent.exists()


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--class", "chordal"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["gen", "crosscheck"])
def test_auto_class_is_a_usage_error(command, capsys):
    # only solve resolves --class auto; the others need a concrete class
    with pytest.raises(SystemExit) as exc:
        main([command, "--class", "auto", "--n", "5", "--k", "1"])
    assert exc.value.code == 2
    assert "invalid choice: 'auto'" in capsys.readouterr().err


def test_valid_call_after_a_usage_error(tmp_path, capsys):
    path = write(tmp_path, "inst.txt", P8_REP)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--class", "chordal", "--in", path])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, err = run(capsys, "solve", "--in", path)
    assert (code, err) == (0, "")
    assert out.startswith("YES\nMOVES 7\n")


def test_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    """Twenty calls over four commands construct at most one parser and
    its five subparsers, whether or not earlier calls already built them."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    inst = write(tmp_path, "inst.txt", P8_REP)
    seq = tmp_path / "seq.txt"
    for seed in range(5):
        code, out, _ = run(capsys, "gen", "--class", "proper", "--n", "8",
                           "--k", "2", "--seed", str(seed))
        assert code == 0 and out.startswith("n 8\n")
        assert run(capsys, "solve", "--in", inst, "--out", str(seq)) == (0, "", "")
        assert run(capsys, "verify", "--in", inst, "--seq", str(seq)) == (0, "OK\n", "")
        code, out, _ = run(capsys, "oracle", "--in", inst)
        assert code == 0 and out.startswith("YES\nMOVES 7\n")
    assert len(built) <= 6, len(built)
