"""Seeded inputs for the three benchmark workloads.

Inputs are built from the ``--seed`` of one run, except where a workload
says otherwise, and handed to the package as instance files (for the CLI)
or as instances (for the library solvers in decide mode).  The package
never sees the seed.

Each solve case carries an independent upper bound on its shortest
distance when one is known by construction: the length of a random walk
of legal slides, the length of a hand-made schedule, or the 2k bound of
trivially perfect graphs.  A solver answer above the bound is a failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

CLASSES = ("proper", "tp", "caterpillar")


@dataclass
class Case:
    """One instance file that is solved, verified and decided every round.

    ``cli_class`` is passed to ``solve --class``; ``solver`` names the
    library solver used in decide mode.  ``reachable`` marks reds that are
    reachable by construction, ``max_moves`` bounds a YES schedule from
    above and ``exact_moves`` fixes its length outright.
    """

    name: str
    path: Path
    inst: object
    cli_class: str
    solver: str
    reachable: bool
    max_moves: int | None = None
    exact_moves: int | None = None


@dataclass
class Sweep:
    """One ``crosscheck`` call and the pair count it must check.

    Exhaustive sweeps (``count`` None) time ``sweep_pairs_per_s``;
    randomized sweeps only count towards correctness and the trace.
    """

    cls: str
    n_max: int
    k_max: int
    count: int | None = None
    expected: int = 0


@dataclass
class Inputs:
    cases: list[Case]
    sweeps: list[Sweep]


def walk_red(g, blue, steps: int, rng: random.Random) -> tuple[tuple[int, ...], int]:
    """Red set reached from ``blue`` by up to ``steps`` random legal slides.

    Returns the red set and the number of slides made, which bounds the
    shortest distance from above.  ``hits[v]`` counts occupied neighbours
    of v, so a slide u -> v is legal iff v is free and u is its only
    occupied neighbour.
    """
    occupied = set(blue)
    hits = [0] * (g.n + 1)
    for v in occupied:
        for w in g.adj[v]:
            hits[w] += 1
    tokens = sorted(occupied)
    made = 0
    for _ in range(steps if tokens else 0):
        i = rng.randrange(len(tokens))
        u = tokens[i]
        if not g.adj[u]:
            continue
        v = rng.choice(g.adj[u])
        if v in occupied or hits[v] != 1:
            continue
        occupied.remove(u)
        occupied.add(v)
        tokens[i] = v
        for w in g.adj[u]:
            hits[w] -= 1
        for w in g.adj[v]:
            hits[w] += 1
        made += 1
    return tuple(sorted(occupied)), made


def nesting_instance(ts, depth: int, k: int, rng: random.Random):
    """Chain of ``depth`` nested intervals, each holding one leaf interval,
    the innermost holding a second leaf; n = 2 * depth + 1.

    Every interval meets all of its ancestors, so the intersection graph
    has about depth**2 edges.  Blue holds k random leaves; red moves the
    deepest blue token through its chain interval onto the extra leaf,
    which takes exactly two slides.
    """
    events = []
    for i in range(1, depth + 1):
        events += [("L", i), ("L", depth + i), ("R", depth + i)]
    extra = 2 * depth + 1
    events += [("L", extra), ("R", extra)]
    events += [("R", i) for i in range(depth, 0, -1)]
    rep = ts.IntervalRepresentation(tuple(events))
    blue = sorted(rng.sample(range(depth + 1, 2 * depth + 1), k))
    red = sorted(blue[:-1] + [extra])
    return ts.Instance(extra, rep, None, tuple(blue), tuple(red))


def comb_instance(ts, blocks: int):
    """Spine 1..4b with one leaf on every spine vertex; blue and red leaves
    alternate so every token travels four slides in its own block."""
    s = 4 * blocks
    edges = tuple((i, i + 1) for i in range(1, s)) + tuple((i, s + i) for i in range(1, s + 1))
    blue = tuple(s + 4 * i + 1 for i in range(blocks))
    red = tuple(s + 4 * i + 3 for i in range(blocks))
    return ts.Instance(2 * s, None, edges, blue, red)


def _small_exhaustive() -> list[Sweep]:
    return [Sweep("proper", 7, 3), Sweep("tp", 7, 3), Sweep("caterpillar", 6, 3)]


def scale(ts, rng: random.Random) -> tuple[list, list[Sweep]]:
    """n = 10**4 instances of every class at k = 30 and 300, each with the
    generator's red and a random-walk red from the run's seed.

    The instances themselves come from fixed generator seeds: the cost of
    one caterpillar at this size follows its random spine length, and with
    instances drawn from the run's seed the decide time of the workload
    spread by a fifth of its median over ten seeds.
    """
    items = []
    for cls in CLASSES:
        for k in (30, 300):
            inst = ts.gen_instance(cls, 10_000, k, seed=k)
            red, made = walk_red(inst.graph, inst.blue, 6 * k, rng)
            tag = f"{cls}-k{k}"
            items.append((f"{tag}-gen", inst, "auto", cls, False, None, None))
            walk = ts.Instance(inst.n, inst.rep, inst.edge_list, inst.blue, red)
            items.append((f"{tag}-walk", walk, "auto", cls, True, made, None))
    return items, _small_exhaustive()


def adversarial(ts, rng: random.Random) -> tuple[list, list[Sweep]]:
    """The superlinear families: a deep nesting (~10**6 edges for verify),
    a 1,000-block comb and the quadratic path at k = 100."""
    items = []
    nest = nesting_instance(ts, 1000, 200, rng)
    items.append(("nesting-d1000", nest, "auto", "tp", True, 2, None))
    comb = comb_instance(ts, 1000)
    items.append(("comb-b1000", comb, "auto", "caterpillar", True, 4 * 1000, None))
    red, made = walk_red(comb.graph, comb.blue, 4000, rng)
    walk = ts.Instance(comb.n, None, comb.edge_list, comb.blue, red)
    items.append(("comb-b1000-walk", walk, "auto", "caterpillar", True, made, None))
    k = 100
    quad = ts.quadratic_path_instance(k)
    exact = k * (6 * k + 1)
    items.append(("quadratic-k100", quad, "auto", "proper", True, None, exact))
    items.append(("quadratic-k100-cat", quad, "caterpillar", "caterpillar", True, None, exact))
    return items, _small_exhaustive()


def sweep(ts, rng: random.Random) -> tuple[list, list[Sweep]]:
    """Exhaustive crosschecks at k <= 3 and randomized ones at n <= 24
    (k <= 7 for caterpillars), plus small seeded instances for the CLI.

    The CLI instances cycle through n = 3..24 and k = 1..3 (1..7 for
    caterpillars) so that every run has the same mix of sizes; the seed
    picks the graphs and token sets.
    """
    items = []
    for cls in CLASSES:
        for j in range(40):
            n = 3 + j % 22
            k = 1 + j % (7 if cls == "caterpillar" else 3)
            gseed = rng.randrange(2**31)
            inst = None
            while inst is None:
                try:
                    inst = ts.gen_instance(cls, n, k, seed=gseed)
                except ts.GenerationError:
                    k -= 1
            red, made = walk_red(inst.graph, inst.blue, 6 * k, rng)
            tag = f"{cls}-{j}-n{n}-k{k}"
            items.append((f"{tag}-gen", inst, "auto", cls, False, None, None))
            walk = ts.Instance(inst.n, inst.rep, inst.edge_list, inst.blue, red)
            items.append((f"{tag}-walk", walk, "auto", cls, True, made, None))
    # The randomized sweeps keep crosscheck's default stream (seed 0): drawn
    # from the run's seed, their BFS sizes, and with them the run's peak
    # memory, varied by a fifth between seeds.
    sweeps = [
        Sweep("proper", 7, 3),
        Sweep("tp", 8, 3),
        Sweep("caterpillar", 7, 3),
        Sweep("caterpillar", 24, 7, count=40),
        Sweep("proper", 24, 3, count=40),
    ]
    return items, sweeps


WORKLOADS = {"scale": scale, "adversarial": adversarial, "sweep": sweep}


def exhaustive_pairs(ts, cls: str, n_max: int, k_max: int) -> int:
    """(blue, red) pairs an exhaustive crosscheck must check, counted with
    the public enumerators: twin-free proper graphs, every tp nesting and
    every caterpillar from three vertices on."""
    graphs = []
    if cls == "proper":
        for n in range(1, n_max + 1):
            for rep in ts.generate.enumerate_proper_representations(n):
                g = ts.Graph.from_representation(rep)
                if not ts.find_strong_twins(g):
                    graphs.append(g)
    elif cls == "tp":
        for n in range(1, n_max + 1):
            graphs += [ts.Graph.from_representation(rep)
                       for rep in ts.generate.enumerate_tp_representations(n)]
    else:
        for n in range(3, n_max + 1):
            graphs += ts.generate.enumerate_caterpillar_graphs(n)
    return sum(
        sum(1 for _ in ts.generate.enumerate_independent_sets(g, k)) ** 2
        for g in graphs
        for k in range(1, k_max + 1)
    )


def build(ts, workload: str, seed: int, workdir: Path) -> Inputs:
    """Generate the workload's inputs and write its instance files."""
    rng = random.Random(f"{workload}:{seed}")
    items, sweeps = WORKLOADS[workload](ts, rng)
    cases = []
    for name, inst, cli_class, solver, reachable, bound, exact in items:
        if solver == "caterpillar":
            inst.graph  # built here so that decide mode times the solver alone
        path = workdir / f"{name}.inst"
        path.write_text(ts.serialize_instance(inst), encoding="utf-8")
        cases.append(Case(name, path, inst, cli_class, solver, reachable, bound, exact))
    for sw in sweeps:
        sw.expected = sw.count if sw.count is not None else exhaustive_pairs(
            ts, sw.cls, sw.n_max, sw.k_max)
    return Inputs(cases, sweeps)
