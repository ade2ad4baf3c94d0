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
that prepared value by the public ``solve_*`` function.  Each token set
is checked once per graph, and the solver and ``validate_sequence``
trust the checked tuple instead of checking it again for every pair.

Two sweep shapes are supported: exhaustive (every canonical graph of the
class up to a vertex bound, every independent-set pair up to a token
bound) and randomized (a seeded stream of generated instances).  Both
run through one loop, which asks one capped ``SlideSpace`` per graph
for the distance of every pair, so the state cap governs both.  Work is
sharded across processes by graph; shards share nothing and the merged
report is ordered by instance serial number, so results are identical at
any worker count.
"""

from __future__ import annotations

import random
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import accumulate, chain, product
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

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
from .oracle import CAPPED, DEFAULT_STATE_CAP, SlideSpace
from .proper import prepare_proper, solve_proper
from .results import SolveResult, SolverInputError, checked_tokens
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


def _tokenless(structure, g: Graph) -> Instance:
    """The graph as an instance without tokens; mismatch lines fill them in."""
    if isinstance(structure, IntervalRepresentation):
        return Instance(g.n, structure, None, (), ())
    return Instance(g.n, None, g.edges(), (), ())


def _failure(err: Exception) -> tuple[str, str]:
    """The solver text and note that report an exception a solver or a
    prepare raised.  Only these are kept: the exception's traceback holds
    the sweep's own frame, which would hold the exception in turn."""
    if isinstance(err, SolverInputError):
        return f"ERROR:{err.kind}", "solver rejected the instance"
    # the message and the raising function, not its line, on one line
    where = traceback.extract_tb(err.__traceback__)[-1]
    note = f"{err} at {Path(where.filename).name} in {where.name}"
    return f"CRASH:{type(err).__name__}", " ".join(note.split())


def _judge(
    g: Graph, blue, red, outcome, dist: int | str | None
) -> tuple[str, str, str] | None:
    """Compare one solver outcome against one oracle distance.

    ``outcome`` is a SolveResult or, when the solver raised, the
    ``_failure`` pair for the exception.  ``dist`` is what
    ``SlideSpace.distance`` answered: the shortest slide distance, None
    for unreachable, or CAPPED when the search gave up.  Returns None
    when the two agree, otherwise (solver text, oracle text, note).
    """
    if isinstance(outcome, tuple):
        solver_s, note = outcome
    else:
        # the strings are made only for a disagreement
        res: SolveResult = outcome
        if dist == CAPPED:
            note = "search state cap exceeded"
        elif res.yes != (dist is not None) or res.yes and res.move_count != dist:
            note = ""
        elif res.yes and not (check := validate_sequence(g, blue, red, res.moves)).ok:
            note = f"INVALID_SEQUENCE:{check.reason}@step{check.step}"
        else:
            return None
        solver_s = str(res.move_count) if res.yes else "NO"
    oracle_s = CAPPED if dist == CAPPED else "NO" if dist is None else str(dist)
    return solver_s, oracle_s, note


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


# a graph's token pairs, as indices into its list of token sets
_Pairs = Iterable[tuple[int, int]]


def _cases(
    cls: str, n_max: int, count: int | None, seed: int, k_max: int,
    shard: int, nshards: int,
) -> Iterator[tuple[int, Instance, Graph, list[tuple[int, ...]], _Pairs]]:
    """One shard's graphs, each as (serial of its first pair, instance
    carrying the graph, graph, its token sets, and its pairs as indices
    into those sets).

    Exhaustive sweeps pair every independent set with every set of its
    size; randomized ones give each generated instance its own pair.
    Shards split the graphs round-robin, and serials number the pairs
    of the whole sweep, so merged reports do not depend on the sharding.
    """
    if count is None:
        serial = 0
        for gi, (structure, g) in enumerate(_graph_stream(cls, n_max)):
            setlists = [
                list(enumerate_independent_sets(g, k)) for k in range(1, k_max + 1)
            ]
            if gi % nshards == shard:
                # each size's sets sit together in one list, from its start on
                starts = accumulate(map(len, setlists), initial=0)
                pairs = chain.from_iterable(
                    product(range(at, at + len(sets)), repeat=2)
                    for at, sets in zip(starts, setlists)
                )
                sets = list(chain.from_iterable(setlists))
                yield serial, _tokenless(structure, g), g, sets, pairs
            serial += sum(len(sets) ** 2 for sets in setlists)
        return
    params = _random_params(cls, n_max, count, seed, k_max)
    for serial in range(shard, count, nshards):
        inst = _instance_from_params(cls, *params[serial])
        if inst is not None:
            yield serial, inst, inst.graph, [inst.blue, inst.red], [(0, 1)]


def _check_once(tokens: tuple[int, ...], structure) -> tuple[int, ...]:
    """``tokens`` checked on ``structure``, so that the solvers and
    ``validate_sequence`` trust them there; a set that fails the check
    stays the raw tuple, and each solve of it raises as it would."""
    try:
        return checked_tokens(tokens, structure)
    except SolverInputError:
        return tokens


def _shard(
    cls: str,
    n_max: int,
    count: int | None,
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
    for serial, inst, g, sets, pairs in _cases(
        cls, n_max, count, seed, k_max, shard, nshards
    ):
        structure = g if inst.rep is None else inst.rep
        space = SlideSpace(g, cap)
        # an exception is kept as its report, so one failing graph or pair
        # never ends the sweep; a hook has no prepare step and gets the raw
        # structure, and a graph whose prepare failed gives every one of its
        # pairs that report
        try:
            prepared, failed = structure if prepare is None else prepare(structure), None
        except Exception as err:
            prepared, failed = None, _failure(err)
        # each set is checked once on what the solver reads and, for the
        # interval classes, once on g, which _judge replays on
        solved = [_check_once(tokens, structure) for tokens in sets]
        judged = solved if structure is g else [_check_once(tokens, g) for tokens in sets]
        for i, j in pairs:
            blue, red = solved[i], solved[j]
            try:
                outcome = failed or solver(prepared, blue, red)
            except Exception as err:
                outcome = _failure(err)
            verdict = _judge(
                g, judged[i], judged[j], outcome, space.distance(blue, red)
            )
            if verdict is not None:
                bad = replace(inst, blue=sets[i], red=sets[j])
                found.append((serial, _inline(bad), *verdict))
            checked += 1
            serial += 1
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
    ``k_max``; a number checks that many seeded random instances.
    ``n_max``, ``count``, ``k_max`` or ``jobs`` below 1, or ``cap`` below
    0, raises ValueError, since such a sweep would check nothing or run
    as some other one; so does ``n_max`` below 3 for caterpillar, which
    has no graph that small, and ``n_max`` 2 with a ``count``, whose
    draws are all two-vertex graphs and none twin-free.  The search
    from each source expands at most ``cap`` states; a pair it cannot
    settle within that reads ``oracle=CAP``.  The class solver prepares
    each graph once and solves all of its pairs against the prepared
    value.  Each token set is checked once per graph, on the structure
    the solver takes and, for proper and tp, on the graph its sequences
    replay on; the solvers and ``validate_sequence`` trust those checked
    tuples, and a set that fails its check reaches them as a plain tuple
    and is rejected per pair.  A solver exception other than
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
    for name, value in (
        ("n_max", n_max), ("count", count), ("k_max", k_max), ("jobs", jobs)
    ):
        if value is not None and value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    if cap < 0:
        raise ValueError(f"cap must be at least 0, got {cap}")
    # no caterpillar has fewer than three vertices, and a randomized sweep
    # with n_max 2 draws only two-vertex graphs, none of them twin-free
    if cls == "caterpillar" and n_max < 3:
        raise ValueError(f"a caterpillar sweep needs n_max at least 3, got {n_max}")
    if count is not None and n_max == 2:
        raise ValueError("a randomized sweep needs n_max 1 or at least 3, got 2")
    prepare: Callable[[Any], Any] | None = None
    if solver is None:
        # looked up per call, so a module name rebound from outside (a test
        # or a tracer) is what runs; public functions also pickle for jobs
        prepare, solver = {
            "proper": (prepare_proper, solve_proper),
            "tp": (prepare_tp, solve_tp),
            "caterpillar": (prepare_caterpillar, solve_caterpillar),
        }[cls]
    else:
        jobs = 1
    args = [
        (cls, n_max, count, seed, k_max, cap, shard, jobs, prepare, solver)
        for shard in range(jobs)
    ]
    if jobs == 1:
        parts = [_shard(*args[0])]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_shard, *zip(*args)))
    checked = sum(c for c, _ in parts)
    rows = sorted(row for _, found in parts for row in found)
    return CrosscheckReport(checked, tuple(Mismatch(*row) for row in rows))
