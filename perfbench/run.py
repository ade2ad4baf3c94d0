"""Benchmark of the tokenslide package, stdlib only.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scale --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py                  # every workload, one table

One run starts a fresh child process, so that the peak resident memory
read back with ``os.wait4`` belongs to that workload alone.  The child
imports the package from ``src/``, builds the workload's inputs from the
seed (at least three times and for at least three seconds; set-up time is
their median), then repeats rounds of
the same inputs until ``--seconds`` are used up.  A round runs four
phases, each checked for correctness:

* ``solve``: ``tokenslide.cli.main(["solve", ...])`` on every instance file;
* ``verify``: ``tokenslide.cli.main(["verify", ...])`` on each YES output;
* ``decide``: the library solver with ``decide=True`` on the same instances;
* ``sweep``: ``tokenslide.crosscheck(..., jobs=1)`` calls.

Every exception, unexpected exit code, wrong output or exceeded bound is
a failed operation; nothing aborts the run.  An end-to-end time sums,
over the operations of its phase, each operation's median over the rounds,
in nominal seconds (see ``Clock``).  With ``--trace 1`` the first half of
the time runs
untraced rounds and the second half traced ones (see ``spans.py``); the
per-layer metrics are medians over the traced rounds and the spans are
written to ``.perfbench/trace-<workload>-<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_MIN_COUNT = 3
SETUP_MIN_S = 3.0
CHILD_TIMEOUT_S = 170
SHOWN_FAILURES = 5
# Iterations of the reference loop, its median time on the 2-core x86-64
# host the benchmark was written on (Python 3.11), and how long one
# calibration stays valid.
REFERENCE_LOOPS = 20_000
REFERENCE_S = 0.00135
CALIBRATION_TTL_S = 0.05
DECIDE_MIN_CALLS = 3
DECIDE_MIN_S = 0.001
PHASES = ("solve", "verify", "decide", "sweep")

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "verify_s": "s",
    "decide_s": "s",
    "sweep_pairs_per_s": "pairs/s",
    "peak_rss_mb": "MB",
}
COUNT_UNITS = {"instances.bytes_parsed": "bytes"}


def _per_layer_unit(name: str) -> str:
    if name in COUNT_UNITS:
        return COUNT_UNITS[name]
    return "s" if name.endswith("_s") else "count"


# -- child: set-up, rounds, checks --------------------------------------------

def _reference_loop() -> int:
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i
    return total


class Clock:
    """Wall time converted to nominal seconds.

    On a shared host the whole machine runs slower or faster for tens of
    seconds at a time.  Each measurement is therefore scaled by
    REFERENCE_S over the time of a reference loop run just before it, and
    for operations longer than CALIBRATION_TTL_S also just after it, so
    that runs made on a busy and on a quiet host agree.
    """

    def __init__(self):
        self.scale = 1.0
        self.calibrated = float("-inf")

    def _calibrate(self) -> None:
        # the mean of three runs, not the best: contention that comes in
        # bursts of milliseconds slows the operations on average, and the
        # best of three would miss it
        begin = time.perf_counter()
        for _ in range(3):
            _reference_loop()
        self.calibrated = time.perf_counter()
        self.scale = 3 * REFERENCE_S / (self.calibrated - begin)

    def start(self) -> float:
        if time.perf_counter() - self.calibrated > CALIBRATION_TTL_S:
            self._calibrate()
        return time.perf_counter()

    def stop(self, started: float) -> float:
        wall = time.perf_counter() - started
        before = self.scale
        if wall > CALIBRATION_TTL_S:
            self._calibrate()
        return wall * (before + self.scale) / 2


def _fresh_import():
    """Import the package from src/ anew, so set-up pays the import."""
    for name in [m for m in sys.modules if m == "tokenslide" or m.startswith("tokenslide.")]:
        del sys.modules[name]
    ts = importlib.import_module("tokenslide")
    if not Path(ts.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"tokenslide imported from {ts.__file__}, not from src/")
    importlib.import_module("tokenslide.cli")
    return ts


class Round:
    """Per-operation times and failure counts of one pass over the inputs.

    ``times[phase][operation]`` is in nominal seconds; ``pairs`` holds the pairs
    each exhaustive crosscheck checked.
    """

    def __init__(self):
        self.times: dict[str, dict[str, float]] = {p: {} for p in PHASES}
        self.pairs: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def total(self) -> float:
        return sum(t for times in self.times.values() for t in times.values())

    def outcome(self, name: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{name}: {problem}")


def _call_cli(ts, argv: list[str]):
    """Exit code of one in-process CLI command, or the exception it raised."""
    try:
        return ts.cli.main(argv)
    except (Exception, SystemExit) as err:  # a crash is a failed operation
        return err


def _raised(err: BaseException) -> str:
    return "raised " + "".join(traceback.format_exception_only(type(err), err)).strip()


def _check_solve(case, code, out: Path) -> tuple[str | None, str | None]:
    """(verdict, problem) of one solve command."""
    if isinstance(code, BaseException):
        return None, _raised(code)
    if code not in (0, 1):
        return None, f"exit code {code}"
    lines = out.read_text(encoding="utf-8").splitlines()
    if code == 1:
        if not lines or not lines[0].startswith("NO "):
            return None, "exit 1 without a NO line"
        if case.reachable:
            return "NO", "NO on a red reachable by construction"
        return "NO", None
    head = lines[1].split() if len(lines) > 1 else []
    if lines[:1] != ["YES"] or len(head) != 2 or head[0] != "MOVES":
        return None, "exit 0 without YES and MOVES lines"
    moves = int(head[1])
    if len(lines) != moves + 2:
        return "YES", f"MOVES {moves} but {len(lines) - 2} move lines"
    if case.exact_moves is not None and moves != case.exact_moves:
        return "YES", f"{moves} moves, the family needs exactly {case.exact_moves}"
    if case.max_moves is not None and moves > case.max_moves:
        return "YES", f"{moves} moves, a schedule of {case.max_moves} exists"
    if case.solver == "tp" and moves > 2 * len(case.inst.blue):
        return "YES", f"{moves} moves exceed 2k on a trivially perfect graph"
    return "YES", None


def _decide(ts, case):
    inst = case.inst
    if case.solver == "caterpillar":
        return ts.solve_caterpillar(inst.graph, inst.blue, inst.red, decide=True)
    solve = ts.solve_proper if case.solver == "proper" else ts.solve_tp
    return solve(inst.rep, inst.blue, inst.red, decide=True)


def run_round(ts, inputs, work: Path, clock: Clock) -> Round:
    rnd = Round()
    verdicts = {}
    for case in inputs.cases:
        out = work / f"{case.name}.out"
        argv = ["solve", "--class", case.cli_class, "--in", str(case.path), "--out", str(out)]
        start = clock.start()
        code = _call_cli(ts, argv)
        rnd.times["solve"][case.name] = clock.stop(start)
        verdict, problem = _check_solve(case, code, out)
        verdicts[case.name] = verdict
        rnd.outcome(f"solve {case.name}", problem)

    for case in inputs.cases:
        if verdicts[case.name] != "YES":
            continue
        out = work / f"{case.name}.verify"
        argv = ["verify", "--in", str(case.path), "--seq", str(work / f"{case.name}.out"),
                "--out", str(out)]
        start = clock.start()
        code = _call_cli(ts, argv)
        rnd.times["verify"][case.name] = clock.stop(start)
        if isinstance(code, BaseException):
            problem = _raised(code)
        elif code != 0 or out.read_text(encoding="utf-8") != "OK\n":
            problem = f"exit code {code}: {out.read_text(encoding='utf-8').strip()!r}"
        else:
            problem = None
        rnd.outcome(f"verify {case.name}", problem)

    for case in inputs.cases:
        # averaged over a few calls, and over more when they are shorter
        # than a millisecond
        start = clock.start()
        calls = 0
        try:
            while calls < DECIDE_MIN_CALLS or time.perf_counter() - start < DECIDE_MIN_S:
                res = _decide(ts, case)
                calls += 1
        except Exception as err:  # a crash is a failed operation
            res, problem = None, _raised(err)
        rnd.times["decide"][case.name] = clock.stop(start) / max(calls, 1)
        if res is not None:
            expected = "YES" if case.reachable else verdicts[case.name]
            problem = None
            if expected is not None and res.status != expected:
                problem = f"decide says {res.status}, expected {expected}"
        rnd.outcome(f"decide {case.name}", problem)

    for sw in inputs.sweeps:
        start = clock.start()
        try:
            report = ts.crosscheck(sw.cls, sw.n_max, count=sw.count, k_max=sw.k_max, jobs=1)
        except Exception as err:  # every pair of the call counts as failed
            report, problem = None, _raised(err)
        elapsed = clock.stop(start)
        name = f"crosscheck {sw.cls} n<={sw.n_max} k<={sw.k_max} count={sw.count}"
        if report is None:
            bad = sw.expected
        else:
            bad = len(report.mismatches) + abs(sw.expected - report.checked)
            problem = report.render().splitlines()[0]
            if sw.count is None:
                rnd.pairs[name] = report.checked
                rnd.times["sweep"][name] = elapsed
        rnd.attempted += sw.expected
        rnd.failed += bad
        if bad:
            rnd.problems.append(f"{name}: {bad} of {sw.expected} pairs failed; {problem}")
    return rnd


def _warm_up(ts, inputs, work: Path) -> None:
    """One solve and one verify on the smallest instance file."""
    case = min(inputs.cases, key=lambda c: c.path.stat().st_size)
    out = work / "warm-up.out"
    _call_cli(ts, ["solve", "--class", case.cli_class, "--in", str(case.path), "--out", str(out)])
    _call_cli(ts, ["verify", "--in", str(case.path), "--seq", str(out),
                   "--out", str(work / "warm-up.verify")])


def _rounds_until(ts, inputs, work: Path, clock: Clock, deadline: float,
                  after_round=lambda: None) -> list[Round]:
    """Run rounds while the next one, as long as the last, still fits."""
    rounds = []
    while True:
        start = time.perf_counter()
        rounds.append(run_round(ts, inputs, work, clock))
        after_round()
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return rounds


def child(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from inputs import build
    import spans as tracing

    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    clock = Clock()
    try:
        setups: list[float] = []
        while len(setups) < SETUP_MIN_COUNT or sum(setups) < SETUP_MIN_S:
            start = clock.start()
            ts = _fresh_import()
            inputs = build(ts, workload, seed, work)
            _warm_up(ts, inputs, work)
            setups.append(clock.stop(start))

        begin = time.perf_counter()
        if not trace:
            rounds = _rounds_until(ts, inputs, work, clock, begin + seconds)
        else:
            plain = _rounds_until(ts, inputs, work, clock, begin + seconds / 2)
            tracer = tracing.Tracer()
            restore = tracing.install(tracer)
            layers: list[dict] = []
            try:
                traced = _rounds_until(ts, inputs, work, clock, begin + seconds,
                                       lambda: layers.append(tracing.layer_metrics(tracer)))
            finally:
                restore()
            rounds = plain + traced
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems: dict[str, int] = {}
    for r in rounds:
        for line in r.problems:
            problems[line] = problems.get(line, 0) + 1
    for line, times in list(problems.items())[:SHOWN_FAILURES]:
        print(f"FAILED ({times} rounds) {line}", file=sys.stderr)
    if trace:
        samples = {name: [layer[name] for layer in layers] for name in layers[0]}
        samples["trace.overhead_s"] = [statistics.median(r.total() for r in traced)
                                       - statistics.median(r.total() for r in plain)]
        # median_low keeps counts whole and equal to a measured round
        values = {name: statistics.median_low(v) for name, v in samples.items()}
        units = {name: _per_layer_unit(name) for name in samples}
        _write_trace(tracer, workload, seed)
    else:
        values, samples = _end_to_end(rounds, setups)
        units = END_TO_END
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
        "samples": samples,
    }


def _end_to_end(rounds: list[Round], setups: list[float]) -> tuple[dict, dict]:
    """Metric values, and the per-round figures that show their spread."""

    def per_op_median(phase: str) -> float:
        times: dict[str, list[float]] = {}
        for r in rounds:
            for op, t in r.times[phase].items():
                times.setdefault(op, []).append(t)
        return sum(statistics.median(ts) for ts in times.values())

    pairs = {name: n for r in rounds for name, n in r.pairs.items()}
    values = {f"{phase}_s": per_op_median(phase) for phase in PHASES}
    values["sweep_pairs_per_s"] = sum(pairs.values()) / values.pop("sweep_s")
    values["setup_s"] = statistics.median(setups)
    samples = {f"{phase}_s": [sum(r.times[phase].values()) for r in rounds] for phase in PHASES}
    samples["sweep_pairs_per_s"] = [
        sum(r.pairs.values()) / t for r, t in zip(rounds, samples.pop("sweep_s"))]
    samples["setup_s"] = setups
    return values, samples


def _write_trace(tracer, workload: str, seed: int) -> None:
    path = WORK / f"trace-{workload}-{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "dropped": tracer.dropped,
                   "fields": ["id", "parent", "name", "start", "end"],
                   "spans": tracer.spans}, fh)


# -- parent: one child per run --------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict | None:
    """Result of one workload run in a fresh child, or None if it failed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--child", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.decode("utf-8").strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    if not trace:
        rss_mb = usage.ru_maxrss / 1024  # kilobytes on Linux
        result["metrics"]["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
        result["samples"]["peak_rss_mb"] = [rss_mb]
    return result


def _summary(workload: str, result: dict) -> list[str]:
    rows = []
    for name, metric in result["metrics"].items():
        values = result["samples"][name]
        rows.append(f"{workload:<12} {name:<26} {metric['value']:>14.6g} {metric['unit']:<8}"
                    f" n={len(values)} min={min(values):.6g} max={max(values):.6g}")
    attempted, failed = result["attempted"], result["failed"]
    rows.append(f"{workload:<12} {'fail_frac':<26} {failed / attempted:>14.6g} {'ratio':<8}"
                f" attempted={attempted} failed={failed}")
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("scale", "adversarial", "sweep"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        print(json.dumps(child(args.workload, args.seed, args.seconds, bool(args.trace))))
        return 0

    workloads = [args.workload] if args.workload else ["scale", "adversarial", "sweep"]
    results = {}
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        if result is None:
            print(f"{workload}: run failed", file=sys.stderr)
            return 1
        print("\n".join(_summary(workload, result)))
        del result["samples"]
        results[workload] = result
    print(json.dumps(results[args.workload] if args.workload else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
