"""Solver-versus-search consistency sweeps.

Every instance is answered twice: once by the class solver and once by
breadth-first search over the slide-configuration space.  Decisions must
agree, move counts must agree on YES, and every emitted sequence must
replay cleanly.  Each disagreement is reported with a replayable inline
serialization of the offending instance; a solver that raises anything
other than SolverInputError is reported the same way, as a CRASH line,
and the sweep goes on.

Each graph is analysed once (``prepare_proper``, ``prepare_tp`` or
``prepare_caterpillar``) and every token pair on it is solved against
that prepared value by the public ``solve_*`` function.

Two sweep shapes are supported: exhaustive (every canonical graph of the
class up to a vertex bound, every independent-set pair up to a token
bound) and randomized (a seeded stream of generated instances).  Work is
sharded across processes by graph; shards share nothing and the merged
report is ordered by instance serial number, so results are identical at
any worker count.
"""

from __future__ import annotations

import random
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from .caterpillar import prepare_caterpillar, solve_caterpillar
from .generate import (
    GenerationError,
    enumerate_caterpillar_graphs,
    enumerate_independent_sets,
    enumerate_proper_representations,
    enumerate_tp_representations,
    gen_instance,
)
from .graphs import Graph, find_strong_twins, validate_sequence
from .instances import Instance, serialize_instance
from .intervals import IntervalRepresentation
from .oracle import DEFAULT_STATE_CAP, SlideSpace, bfs
from .proper import prepare_proper, solve_proper
from .results import SolveResult, SolverInputError
from .trivially_perfect import prepare_tp, solve_tp

CLASSES = ("proper", "tp", "caterpillar")

# called as solver(structure, blue, red), like the public solve_* functions
Solver = Callable[[Any, tuple[int, ...], tuple[int, ...]], SolveResult]


@dataclass(frozen=True)
class Mismatch:
    serial: int
    instance: str
    solver: str
    oracle: str
    note: str = ""

    def line(self) -> str:
        base = f"MISMATCH {self.instance} solver={self.solver} oracle={self.oracle}"
        return f"{base} note={self.note}" if self.note else base


@dataclass(frozen=True)
class CrosscheckReport:
    checked: int
    mismatches: tuple[Mismatch, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def render(self) -> str:
        lines = [m.line() for m in self.mismatches]
        lines.append(f"CHECKED {self.checked} MISMATCHES {len(self.mismatches)}")
        return "\n".join(lines) + "\n"


def _inline(inst: Instance) -> str:
    return serialize_instance(inst).strip().replace("\n", ";")


def _make_instance(structure, g: Graph, blue, red) -> Instance:
    if isinstance(structure, IntervalRepresentation):
        return Instance(g.n, structure, None, tuple(blue), tuple(red))
    return Instance(g.n, None, tuple(g.edges()), tuple(blue), tuple(red))


def _attempt(fn: Callable, *args) -> Any:
    """Call ``fn``; an exception it raises is returned as the outcome, so
    one failing graph or pair never ends the sweep."""
    try:
        return fn(*args)
    except Exception as err:
        return err


def _outcome(solver: Solver, prepared, blue, red) -> Any:
    # a graph whose prepare failed gives every one of its pairs that error
    if isinstance(prepared, Exception):
        return prepared
    return _attempt(solver, prepared, blue, red)


def _judge(
    g: Graph, blue, red, outcome, dist: int | str | None
) -> tuple[str, str, str] | None:
    """Compare one solver outcome against one oracle distance.

    ``outcome`` is a SolveResult or the exception the solver raised.
    ``dist`` is the shortest slide distance, None for unreachable, or
    the string "CAP" when the search gave up.  Returns None when the two
    agree, otherwise (solver text, oracle text, note).
    """
    if dist == "CAP":
        oracle_s = "CAP"
    elif dist is None:
        oracle_s = "NO"
    else:
        oracle_s = str(dist)
    if isinstance(outcome, SolverInputError):
        return f"ERROR:{outcome.kind}", oracle_s, "solver rejected the instance"
    if isinstance(outcome, Exception):
        # the message and the line that raised, kept on one line
        where = traceback.extract_tb(outcome.__traceback__)[-1]
        note = f"{outcome} at {Path(where.filename).name}:{where.lineno}"
        note = " ".join(note.split())
        return f"CRASH:{type(outcome).__name__}", oracle_s, note
    res: SolveResult = outcome
    solver_s = str(res.move_count) if res.yes else "NO"
    if dist == "CAP":
        return solver_s, oracle_s, "search state cap exceeded"
    if res.yes != (dist is not None):
        return solver_s, oracle_s, ""
    if res.yes:
        if res.move_count != dist:
            return solver_s, oracle_s, ""
        check = validate_sequence(g, blue, red, res.moves)
        if not check.ok:
            note = f"INVALID_SEQUENCE:{check.reason}@step{check.step}"
            return solver_s, oracle_s, note
    return None


def _graph_stream(cls: str, n_max: int) -> Iterator[tuple[Any, Graph]]:
    """Canonical twin-free graphs of one class, smallest first, each as
    (structure the class solver takes, graph).

    Caterpillars start at three vertices: below that there is no spine,
    and the two-vertex tree is a strong-twin pair anyway.
    """
    if cls == "proper":
        for n in range(1, n_max + 1):
            for rep in enumerate_proper_representations(n):
                g = Graph.from_representation(rep)
                if find_strong_twins(g):
                    continue
                yield rep, g
    elif cls == "tp":
        for n in range(1, n_max + 1):
            for rep in enumerate_tp_representations(n):
                yield rep, Graph.from_representation(rep)
    else:
        for n in range(3, n_max + 1):
            for g in enumerate_caterpillar_graphs(n):
                yield g, g


def _exhaustive_shard(
    cls: str,
    n_max: int,
    k_max: int,
    shard: int,
    nshards: int,
    prepare: Callable[[Any], Any] | None,
    solver: Solver,
) -> tuple[int, list[tuple[int, str, str, str, str]]]:
    checked = 0
    found: list[tuple[int, str, str, str, str]] = []
    serial = 0
    for gi, (structure, g) in enumerate(_graph_stream(cls, n_max)):
        setlists = [
            list(enumerate_independent_sets(g, k)) for k in range(1, k_max + 1)
        ]
        total = sum(len(s) ** 2 for s in setlists)
        if gi % nshards != shard:
            serial += total
            continue
        space = SlideSpace(g)
        # a hook has no prepare step and gets the raw structure
        prepared = structure if prepare is None else _attempt(prepare, structure)
        for sets in setlists:
            for blue in sets:
                for red in sets:
                    outcome = _outcome(solver, prepared, blue, red)
                    verdict = _judge(g, blue, red, outcome, space.distance(blue, red))
                    if verdict is not None:
                        inst = _make_instance(structure, g, blue, red)
                        found.append((serial, _inline(inst), *verdict))
                    checked += 1
                    serial += 1
    return checked, found


def _random_params(
    cls: str, n_max: int, count: int, seed: int, k_max: int
) -> list[tuple[int, int, int]]:
    rng = random.Random(("crosscheck", cls, n_max, count, seed).__repr__())
    lo = min(3, n_max)
    return [
        (rng.randint(lo, max(lo, n_max)), rng.randint(1, k_max), rng.randrange(2**31))
        for _ in range(count)
    ]


def _instance_from_params(cls: str, n: int, k: int, gseed: int) -> Instance | None:
    # shrink the token count before giving up so sparse graphs still count
    for kk in range(k, 0, -1):
        for bump in range(5):
            try:
                return gen_instance(cls, n, kk, seed=gseed + 1_000_003 * bump)
            except GenerationError:
                continue
    return None


def _random_shard(
    cls: str,
    n_max: int,
    count: int,
    seed: int,
    k_max: int,
    cap: int,
    shard: int,
    nshards: int,
    prepare: Callable[[Any], Any] | None,
    solver: Solver,
) -> tuple[int, list[tuple[int, str, str, str, str]]]:
    checked = 0
    found: list[tuple[int, str, str, str, str]] = []
    for serial, (n, k, gseed) in enumerate(
        _random_params(cls, n_max, count, seed, k_max)
    ):
        if serial % nshards != shard:
            continue
        inst = _instance_from_params(cls, n, k, gseed)
        if inst is None:
            continue
        g = inst.graph
        structure = g if cls == "caterpillar" else inst.rep
        prepared = structure if prepare is None else _attempt(prepare, structure)
        outcome = _outcome(solver, prepared, inst.blue, inst.red)
        oracle = bfs(g, inst.blue, inst.red, cap)
        dist: int | str | None
        dist = "CAP" if oracle.status == "CAP_EXCEEDED" else oracle.distance
        verdict = _judge(g, inst.blue, inst.red, outcome, dist)
        if verdict is not None:
            found.append((serial, _inline(inst), *verdict))
        checked += 1
    return checked, found


def crosscheck(
    cls: str,
    n_max: int,
    count: int | None = None,
    seed: int = 0,
    k_max: int = 3,
    jobs: int = 1,
    cap: int = DEFAULT_STATE_CAP,
    solver: Solver | None = None,
) -> CrosscheckReport:
    """Sweep one graph class and report every solver/search disagreement.

    ``count=None`` checks every canonical graph with at most ``n_max``
    vertices over all independent-set pairs of equal size up to
    ``k_max``; a number checks that many seeded random instances.  The
    class solver prepares each graph once and solves all of its pairs
    against the prepared value.  A solver exception other than
    SolverInputError becomes a ``CRASH:<type>`` mismatch for its pair
    (for every pair of the graph when preparing raised), and the count
    of checked pairs stays complete.

    The ``solver`` hook substitutes the answering function, which proves
    the harness catches a corrupted solver.  It takes the public solvers'
    signature, ``solver(structure, blue, red)``: ``structure`` is the
    IntervalRepresentation for proper and tp and the Graph for
    caterpillar, unprepared, and ``blue`` and ``red`` are vertex tuples.
    It returns a SolveResult or raises, and it forces a single process.
    """
    if cls not in CLASSES:
        raise ValueError(f"unknown class {cls!r}, expected one of {CLASSES}")
    prepare: Callable[[Any], Any] | None = None
    if solver is None:
        # looked up per call, so a module name rebound from outside (a test
        # or a tracer) is what runs; public functions also pickle for jobs
        prepare, solver = {
            "proper": (prepare_proper, solve_proper),
            "tp": (prepare_tp, solve_tp),
            "caterpillar": (prepare_caterpillar, solve_caterpillar),
        }[cls]
        jobs = max(1, jobs)
    else:
        jobs = 1
    if count is None:
        args = [
            (cls, n_max, k_max, shard, jobs, prepare, solver)
            for shard in range(jobs)
        ]
        work = _exhaustive_shard
    else:
        args = [
            (cls, n_max, count, seed, k_max, cap, shard, jobs, prepare, solver)
            for shard in range(jobs)
        ]
        work = _random_shard
    if jobs == 1:
        parts = [work(*args[0])]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(work, *zip(*args)))
    checked = sum(c for c, _ in parts)
    rows = sorted(row for _, found in parts for row in found)
    return CrosscheckReport(checked, tuple(Mismatch(*row) for row in rows))
