"""Golden determinism: generated instances and CLI `solve` and `oracle`
output are byte-identical to recorded digests.

The benchmark's workloads are built from these generators, so a drift
here makes its runs incomparable across versions.  The digests were
recorded before the solvers' shared paths were consolidated, and the
disconnected proper digest before the proper solver took forests, and
the oracle digest before the two breadth-first searches became one,
and the library schedule digests before the proper and caterpillar
schedulers came to share one block layer.  The library rows hash each
move as a plain ``(src, dst)`` tuple, so they pin the schedule and not the
type that carries a move; the proper digest was re-recorded for that,
before moves became plain pairs, and the caterpillar digest, whose moves
were plain pairs already, came out unchanged.  The witness digest, of
the NOT_INDEPENDENT details every solver reports for a blue set that is
not independent, was recorded before the token checks came to share one
adjacency test per structure.  The sized caterpillar digest, of full and
decide-mode answers on generated caterpillars up to n = 2,000 and on a
frozen comb, was recorded before the per-pair caterpillar pass came to
read a group map built once per graph.  The route digest, of full
caterpillar answers on shapes whose tokens travel far along the spine,
was recorded before the scheduler came to emit a clear run of spine
cells in one step.  The tp library and sized digests, of every tp
schedule on small nestings and of full and decide-mode tp answers at
size, were recorded before the tp solver came to work straight from the
endpoint string.  The prepared digest, of every ``prepare_*`` value on
small and sized structures, was recorded before each class came to be
prepared in one pass over its structure.  The enumeration digest, of
every exhaustive enumeration up to ten vertices, was recorded before the
enumerators became plain module-level generators.  A change that is
meant to alter generated instances, schedules or witnesses must
re-record them and say why.
"""

import dataclasses
import hashlib
import inspect
import random
from collections.abc import KeysView

import pytest

from tokenslide.caterpillar import prepare_caterpillar, solve_caterpillar
from tokenslide.cli import main
from tokenslide.generate import (
    GenerationError,
    enumerate_caterpillar_graphs,
    enumerate_independent_sets,
    enumerate_proper_representations,
    enumerate_tp_representations,
    gen_instance,
    quadratic_path_instance,
)
from tokenslide.graphs import Graph, find_strong_twins
from tokenslide.instances import Instance, serialize_instance
from tokenslide.intervals import IntervalRepresentation
from tokenslide.proper import prepare_proper, solve_proper
from tokenslide.results import SolverInputError
from tokenslide.trivially_perfect import prepare_tp, solve_tp
from walks import comb, leafy_crossing, nesting, walk_red

SIZES = (3, 9, 24, 300)
TOKENS = (1, 3, 7)
SEEDS = range(5)

INSTANCE_DIGESTS = {
    "proper": "935d8402983c9ba8ac92a2ea2dc1f844c8dfdf7bcbae779cc4233e8b5ed8f811",
    "tp": "5e5af15f4400aa7dffd13a52e68fc22e1ce88172262ed83b21a4203c7a7f03d4",
    "caterpillar": "55a64c49985aa6b258ad3b8b344b97517974e7f00ed2f1b2de45c0b18149a349",
}

# (class, n, k, seed) instances whose `solve --class auto` bytes are pinned;
# random tp antichains are mostly NO, so two YES tp instances are added
SOLVED = [
    (cls, n, k, seed)
    for cls in ("proper", "tp", "caterpillar")
    for n, k, seed in ((9, 3, 0), (24, 3, 1), (24, 7, 2), (300, 7, 3))
] + [("tp", 9, 2, 5), ("tp", 24, 3, 0)]

SOLVE_DIGEST = "11c571fc45897f7d1c825769774d0642cb162454b31fed4923402d43a34c3fb4"

# disconnected proper instances: generated connected ones laid side by side
# with shifted ids; each part is (n, k, seed, tokens), where tokens says
# which of the part's sets it contributes ("both", "blue" or "red")
JOINED = [
    [(9, 3, 0, "both"), (24, 3, 1, "both")],
    [(24, 7, 2, "both"), (9, 2, 5, "both"), (12, 3, 4, "both")],
    [(300, 7, 3, "both"), (24, 3, 1, "both")],
    [(5, 1, 6, "both"), (40, 5, 7, "both"), (7, 2, 8, "both")],
    [(9, 3, 0, "both"), (12, 2, 1, "blue"), (12, 2, 2, "red")],
]

JOINED_DIGEST = "d9ce67a34fc13f6ad6008810fe807000a56fb83608971ae4efe7176fca4b6950"

# `oracle` runs: (label, instance, extra arguments); generated instances are
# given as (class, n, k, seed), hand-made ones as instance text
STAR = "n 4\nedges 3\n1 2\n1 3\n1 4\nblue 2 3\nred 3 4\n"
ORACLE_CASES = [
    ("proper yes", ("proper", 10, 2, 2), []),
    ("proper yes", ("proper", 24, 3, 0), []),
    ("tp yes", ("tp", 9, 2, 5), []),
    ("tp yes", ("tp", 24, 3, 0), []),
    ("caterpillar yes", ("caterpillar", 9, 2, 5), []),
    ("caterpillar yes", ("caterpillar", 24, 3, 0), []),
    ("tp unreachable", ("tp", 8, 2, 3), []),
    ("star unreachable", STAR, []),
    ("budget", ("caterpillar", 24, 3, 0), ["--budget", "2"]),
    ("budget", ("proper", 24, 3, 0), ["--budget", "2"]),
    ("budget", STAR, ["--budget", "0"]),
    ("exhausted at budget", STAR, ["--budget", "1"]),
    ("start is goal", ("caterpillar", 9, 3, 0, "blue"), []),
    ("cardinality", "n 5\nrep L1 L2 R1 L3 R2 L4 R3 L5 R4 R5\nblue 1\nred 3 5\n", []),
]

ORACLE_DIGEST = "eb0d0d4e3acc0eccb68df311a275319a8fd515bd405bbb6031e73dfec4ac84f8"

# library schedules (status, moves, reason, witness) for every ordered pair
# of independent sets of equal size k <= 3: on every caterpillar with at
# most 8 vertices (27,848 solves), every twin-free proper
# representation with at most 7 (4,058 solves) and every twin-free tp
# representation with at most 8 (10,312 solves)
LIBRARY_DIGESTS = {
    "caterpillar": "5925a58f15a288b906a0ab01b47c16f89b8b5c6510eb1e67555d3542e09f3dc2",
    "proper": "da1097f3fe84bb94ec2f4099609741f47e2bf93527736cc712ecf9f8368825c1",
    "tp": "810c8d0f444c3d4c3b9edd2489c093ff1b6c9edc1a3643ba0ba07b186d092ea5",
}

# token-check outcomes (kind, details, message) for every vertex subset as
# blue against red (1,): on every twin-free proper and tp representation
# and every caterpillar with at most 6 vertices, each also with its ids
# reversed, so a witness pair's order is pinned too (1,650 rejected sets)
WITNESS_DIGEST = "dd08a3003202819469251a3661548c78d41f1a7247ee8fa8b11e15347166da09"

# full and decide-mode caterpillar answers (status, reason, witness, moves)
# at size: seeded generated caterpillars against three reds each (the
# generator's, a random walk from blue and a random independent set), and
# a frozen comb whose every other group is cut out before solving, and a
# long caterpillar of locked walls
SIZED_N = (50, 300, 2_000)
SIZED_K = (3, 10, 40)
SIZED_SEEDS = range(3)
COMB_GROUPS = 800
WALLED_SPINE = 2_000
SIZED_DIGEST = "40edc324466fbac539706ea884fcc8b2839aa62112b5d607b640ab6fe756c873"

# full caterpillar answers (status, reason, witness, moves) on long
# routes: the quadratic path at k = 100 (60,100 moves), a comb against its
# designed red and two seeded walk reds, and one token crossing a spine
# with few and with many leaves on every cell
ROUTE_K = 100
ROUTE_BLOCKS = 1_000
ROUTE_SPINE = 5_000
ROUTE_LEAVES = (2, 40)
ROUTE_DIGEST = "1d193df90033b55a482139a0601a8a0d41200a068bbfe48103784dbd8d53e2ff"

# full and decide-mode tp answers (status, reason, witness, moves) at
# size: seeded generated nestings against the generator's red and a
# random walk from blue, and a deep nesting against hand-made reds
TP_SIZED_N = (50, 300, 2_000, 10_000)
TP_SIZED_K = (3, 10, 30)
TP_SIZED_SEEDS = range(2)
NEST_DEPTH = 1_000
TP_SIZED_DIGEST = "42ee5898388d81870a5656d438f139ea1bed424a7f43f2e8ca5f9a19235f4fe6"

# every prepare_* value (its fields, or the error's kind, message and
# details): prepare_proper and prepare_tp on every proper and tp
# representation with at most 8 intervals, each also with its ids
# reversed, and on seeded random endpoint strings of the same sizes;
# prepare_caterpillar on the graphs of all of those, on every caterpillar
# and seeded random forests with at most 8 vertices, and on the graphs of
# the sized caterpillar digest
PREPARED_SMALL_N = range(1, 9)
PREPARED_RANDOM = 40
PREPARED_DIGEST = "e7c17d901de48e6170697e96b4324719c63eb82eb0187c341692e2cedf57c436"

# every exhaustive enumeration with at most 10 vertices: the events of
# each proper and tp representation, and the adjacency of each caterpillar
# with its independent sets of every size k <= 4; the tier-1 gates count
# these up to n = 10, and the other digests pin their content to n = 8
ENUMERATED_N = range(1, 11)
ENUMERATED_K = range(5)
ENUMERATION_DIGEST = "32483719aea95034af90a372148bbf89f604926063b57e1cb404728a37317063"


def instances_digest(cls: str) -> str:
    h = hashlib.sha256()
    for n in SIZES:
        for k in TOKENS:
            for seed in SEEDS:
                try:
                    text = serialize_instance(gen_instance(cls, n, k, seed))
                except GenerationError:
                    text = f"GenerationError {n} {k} {seed}\n"
                h.update(text.encode())
    return h.hexdigest()


def solve_digest(tmp_path, capsys) -> str:
    h = hashlib.sha256()
    for cls, n, k, seed in SOLVED:
        path = tmp_path / f"{cls}-{n}-{k}-{seed}.txt"
        path.write_text(serialize_instance(gen_instance(cls, n, k, seed)))
        code = main(["solve", "--in", str(path)])
        out = capsys.readouterr().out
        h.update(f"{cls} {n} {k} {seed} exit={code}\n{out}".encode())
    return h.hexdigest()


def joined_instance(parts) -> Instance:
    events, blue, red, shift = [], [], [], 0
    for n, k, seed, tokens in parts:
        inst = gen_instance("proper", n, k, seed)
        events += [(side, v + shift) for side, v in inst.rep.events]
        if tokens != "red":
            blue += [v + shift for v in inst.blue]
        if tokens != "blue":
            red += [v + shift for v in inst.red]
        shift += n
    rep = IntervalRepresentation(tuple(events))
    return Instance(shift, rep, None, tuple(blue), tuple(red))


def joined_digest(tmp_path, capsys) -> str:
    h = hashlib.sha256()
    for i, parts in enumerate(JOINED):
        path = tmp_path / f"joined-{i}.txt"
        path.write_text(serialize_instance(joined_instance(parts)))
        code = main(["solve", "--class", "auto", "--in", str(path)])
        out = capsys.readouterr().out
        h.update(f"{parts} exit={code}\n{out}".encode())
    return h.hexdigest()


def oracle_digest(tmp_path, capsys) -> str:
    h = hashlib.sha256()
    for i, (label, source, extra) in enumerate(ORACLE_CASES):
        if isinstance(source, str):
            text = source
        else:
            inst = gen_instance(*source[:4])
            if source[4:] == ("blue",):
                inst = Instance(inst.n, inst.rep, inst.edge_list, inst.blue, inst.blue)
            text = serialize_instance(inst)
        path = tmp_path / f"oracle-{i}.txt"
        path.write_text(text)
        code = main(["oracle", "--in", str(path), *extra])
        out = capsys.readouterr().out
        h.update(f"{label} {source} {extra} exit={code}\n{out}".encode())
    return h.hexdigest()


def library_graphs(cls: str):
    """(label, structure the solver prepares, graph), smallest first."""
    if cls == "caterpillar":
        for n in range(3, 9):
            for g in enumerate_caterpillar_graphs(n):
                yield f"{n} {g.edges()}", g, g
    elif cls == "tp":
        for n in range(1, 9):
            for rep in enumerate_tp_representations(n):
                yield rep.serialize(), rep, Graph.from_representation(rep)
    else:
        for n in range(1, 8):
            for rep in enumerate_proper_representations(n):
                g = Graph.from_representation(rep)
                if not find_strong_twins(g):
                    yield rep.serialize(), rep, g


def library_digest(cls: str) -> tuple[str, int]:
    prepare, solve = {
        "caterpillar": (prepare_caterpillar, solve_caterpillar),
        "proper": (prepare_proper, solve_proper),
        "tp": (prepare_tp, solve_tp),
    }[cls]
    h = hashlib.sha256()
    solves = 0
    for label, structure, g in library_graphs(cls):
        prepared = prepare(structure)
        h.update(f"{label}\n".encode())
        for k in (1, 2, 3):
            sets = list(enumerate_independent_sets(g, k))
            for blue in sets:
                for red in sets:
                    res = solve(prepared, blue, red)
                    moves = None if res.moves is None else tuple(map(tuple, res.moves))
                    row = (blue, red, res.status, moves, res.reason, res.witness)
                    h.update(f"{row}\n".encode())
                    solves += 1
    return h.hexdigest(), solves


def witness_structures():
    """(label, structure, solver, prepare): both id orders of each graph."""
    for n in range(1, 7):
        reps = [
            rep
            for rep in enumerate_proper_representations(n)
            if not find_strong_twins(Graph.from_representation(rep))
        ]
        for label, family, solve, prepare in (
            ("proper", reps, solve_proper, prepare_proper),
            ("tp", enumerate_tp_representations(n), solve_tp, prepare_tp),
        ):
            for rep in family:
                flipped = tuple((side, n + 1 - v) for side, v in rep.events)
                for r in (rep, IntervalRepresentation(flipped)):
                    yield f"{label} {r.serialize()}", r, solve, prepare
        for g in enumerate_caterpillar_graphs(n):
            flipped = [(n + 1 - u, n + 1 - v) for u, v in g.edges()]
            for h in (g, Graph(n, flipped)):
                yield f"caterpillar {n} {h.edges()}", h, solve_caterpillar, prepare_caterpillar


def witness_digest() -> tuple[str, int]:
    h = hashlib.sha256()
    rejected = 0
    for label, structure, solve, prepare in witness_structures():
        try:
            prepared = prepare(structure)
        except SolverInputError as err:
            h.update(f"{label} {err.kind}\n".encode())
            continue
        n = structure.n
        for mask in range(1 << n):
            blue = tuple(v for v in range(1, n + 1) if mask >> (v - 1) & 1)
            try:
                solve(prepared, blue, (1,), decide=True)
                row = (label, blue, None, None, None)
            except SolverInputError as err:
                row = (label, blue, err.kind, err.details, str(err))
                rejected += 1
            h.update(f"{row}\n".encode())
    return h.hexdigest(), rejected


def random_independent(g, k, rng):
    """A random independent set of size k, or None if the draw fails."""
    order = list(range(1, g.n + 1))
    rng.shuffle(order)
    chosen = set()
    for v in order:
        if chosen.isdisjoint(g.adj[v]):
            chosen.add(v)
            if len(chosen) == k:
                return tuple(sorted(chosen))
    return None


def frozen_comb(groups):
    """Spine 1..groups with two leaves per group; blue freezes both leaves
    of every even group and puts one token on a leaf of group 1."""
    n = 3 * groups
    edges = [(i, i + 1) for i in range(1, groups)]
    edges += [(i, groups + 2 * i - 1) for i in range(1, groups + 1)]
    edges += [(i, groups + 2 * i) for i in range(1, groups + 1)]
    frozen = [groups + 2 * i - j for i in range(2, groups + 1, 2) for j in (0, 1)]
    return Graph(n, edges), (groups + 1, *frozen), frozen


def walled(spine):
    """Spine 1..spine with one leaf on every group but those at 2 mod 4;
    blue builds a locked wall (leaf, bare spine cell, leaf) over groups
    4j+1..4j+3 for every even j, and puts a free token on the leaf of
    group 4j+4 for every j."""
    edges = [(i, i + 1) for i in range(1, spine)]
    leaf = {}
    for i in range(1, spine + 1):
        if i % 4 != 2:
            leaf[i] = spine + len(leaf) + 1
            edges.append((i, leaf[i]))
    walls = [
        v for j in range(0, spine // 4 - 1, 2)
        for v in (leaf[4 * j + 1], 4 * j + 2, leaf[4 * j + 3])
    ]
    free = [leaf[4 * j + 4] for j in range(spine // 4 - 1)]
    return Graph(spine + len(leaf), edges), (*walls, *free), walls


def sized_cases():
    """(label, graph, blue, red) for the sized caterpillar digest."""
    for n in SIZED_N:
        for k in SIZED_K:
            for seed in SIZED_SEEDS:
                try:
                    inst = gen_instance("caterpillar", n, k, seed)
                except GenerationError:
                    continue
                g, blue = inst.graph, inst.blue
                rng = random.Random(f"sized {n} {k} {seed}")
                reds = {
                    "gen": inst.red,
                    "walk": walk_red(g, blue, 6 * k, rng),
                    "random": random_independent(g, k, rng),
                }
                for name, red in reds.items():
                    if red is not None:
                        yield f"{n} {k} {seed} {name}", g, blue, red
    groups = COMB_GROUPS
    g, blue, frozen = frozen_comb(groups)
    rng = random.Random("sized comb")
    # the designed red, walks that move tokens in many free groups, a red
    # whose moving token changes piece, and one with a thawed frozen group
    walkers = (groups + 1, *frozen, *(groups + 4 * i + 1 for i in range(2, groups // 2, 7)))
    reds = {
        "designed": (groups + 2, *frozen),
        "walk": walk_red(g, walkers, 2_000, rng),
        "walk-long": walk_red(g, walkers, 20_000, rng),
        "unbalanced": (groups + 5, *frozen),
        "thawed": (groups + 2, groups + 3, groups + 5, *frozen[2:]),
        "random": random_independent(g, len(blue), rng),
    }
    for name, red in reds.items():
        start = walkers if name.startswith("walk") else blue
        yield f"comb {groups} {name}", g, start, red
    g, blue, walls = walled(WALLED_SPINE)
    reds = {
        "walk": walk_red(g, blue, 3_000, rng),
        "broken": walk_red(g, (*blue[:4], *blue[5:], 6), 3_000, rng),
        "random": random_independent(g, len(blue), rng),
    }
    for name, red in reds.items():
        yield f"walled {WALLED_SPINE} {name}", g, blue, red


def sized_digest() -> tuple[str, dict]:
    h = hashlib.sha256()
    reasons = {}
    prepared = {}
    for label, g, blue, red in sized_cases():
        p = prepared.setdefault(id(g), prepare_caterpillar(g))
        full = solve_caterpillar(p, blue, red)
        fast = solve_caterpillar(p, blue, red, decide=True)
        assert (fast.status, fast.reason, fast.witness) == (
            full.status, full.reason, full.witness), label
        assert fast.moves is None
        reasons[full.reason] = reasons.get(full.reason, 0) + 1
        row = (label, blue, red, full.status, full.reason, full.witness, full.moves)
        h.update(f"{row}\n".encode())
    return h.hexdigest(), reasons


def route_cases():
    """(label, graph, blue, red) for the route digest."""
    inst = quadratic_path_instance(ROUTE_K)
    yield f"quadratic {ROUTE_K}", inst.graph, inst.blue, inst.red
    g, blue, red = comb(ROUTE_BLOCKS)
    rng = random.Random("route comb")
    yield f"comb {ROUTE_BLOCKS} designed", g, blue, red
    for steps in (4_000, 40_000):
        yield f"comb {ROUTE_BLOCKS} walk {steps}", g, blue, walk_red(g, blue, steps, rng)
    for d in ROUTE_LEAVES:
        yield (f"crossing {ROUTE_SPINE} {d}", *leafy_crossing(ROUTE_SPINE, d))


def route_digest() -> tuple[str, int]:
    h = hashlib.sha256()
    moves = 0
    for label, g, blue, red in route_cases():
        res = solve_caterpillar(g, blue, red)
        assert res.yes, label
        moves += res.move_count
        row = (label, blue, red, res.status, res.reason, res.witness, res.moves)
        h.update(f"{row}\n".encode())
    return h.hexdigest(), moves


def tp_sized_cases():
    """(label, representation, graph or None, blue, red) for the sized tp
    digest."""
    for n in TP_SIZED_N:
        for k in TP_SIZED_K:
            for seed in TP_SIZED_SEEDS:
                inst = gen_instance("tp", n, k, seed)
                rng = random.Random(f"tp sized {n} {k} {seed}")
                red = walk_red(inst.graph, inst.blue, 6 * k, rng)
                for name, red in (("gen", inst.red), ("walk", red)):
                    yield f"{n} {k} {seed} {name}", inst.rep, inst.blue, red
    # the nesting's leaves are depth + 1..2 * depth, its extra leaf
    # 2 * depth + 1; leaf depth + i meets the chain intervals 1..i
    depth = NEST_DEPTH
    rep = nesting(depth)
    rng = random.Random("tp sized nesting")
    for k in (3, 200):
        blue = sorted(rng.sample(range(depth + 1, 2 * depth + 1), k))
        deepest = blue[-1] - depth
        reds = {
            "designed": (*blue[:-1], 2 * depth + 1),
            "chain": (*blue[:-1], rng.randint(blue[-2] - depth + 1, deepest)),
            "leaves": sorted(rng.sample(range(depth + 1, 2 * depth + 1), k)),
        }
        for name, red in reds.items():
            yield f"nesting {depth} {k} {name}", rep, tuple(blue), tuple(sorted(red))


def tp_sized_digest() -> tuple[str, dict]:
    h = hashlib.sha256()
    reasons = {}
    prepared = {}
    for label, rep, blue, red in tp_sized_cases():
        p = prepared.setdefault(id(rep), prepare_tp(rep))
        full = solve_tp(p, blue, red)
        fast = solve_tp(rep, blue, red, decide=True)
        assert (fast.status, fast.reason, fast.witness) == (
            full.status, full.reason, full.witness), label
        assert fast.moves is None
        reasons[full.reason] = reasons.get(full.reason, 0) + 1
        row = (label, blue, red, full.status, full.reason, full.witness, full.moves)
        h.update(f"{row}\n".encode())
    return h.hexdigest(), reasons


def plain(value):
    """A prepared field with its sets and dicts sorted, so its repr does
    not depend on hash or insertion order; a set keeps a tag, since it
    compares unequal to a list."""
    if isinstance(value, dict):
        return sorted((key, plain(v)) for key, v in value.items())
    if isinstance(value, (set, frozenset, KeysView)):
        return ("set", sorted(value))
    if isinstance(value, list):
        return list(map(plain, value))
    if isinstance(value, tuple):  # a NamedTuple becomes a plain tuple
        return tuple(map(plain, value))
    return value


def prepared_row(prepare, structure):
    """The prepared value's fields other than the structure itself, or
    the error it raises."""
    try:
        p = prepare(structure)
    except SolverInputError as err:
        return ("ERROR", err.kind, str(err), err.details)
    fields = []
    for f in dataclasses.fields(p):
        value = getattr(p, f.name)
        if f.name in ("rep", "graph"):
            assert value is structure
        else:
            fields.append((f.name, plain(value)))
    return tuple(fields)


def prepared_structures():
    """(label, representation or None, graph) for the prepared digest."""
    rng = random.Random("prepared")
    for n in PREPARED_SMALL_N:
        reps = [*enumerate_proper_representations(n), *enumerate_tp_representations(n)]
        reps += [
            IntervalRepresentation(tuple((side, n + 1 - v) for side, v in rep.events))
            for rep in reps
        ]
        for _ in range(PREPARED_RANDOM):
            ends = [(side, v) for v in range(1, n + 1) for side in "LR"]
            rng.shuffle(ends)
            opened, events = set(), []
            for _, v in ends:  # the first end of an id to come is its left
                side = "R" if v in opened else "L"
                opened.add(v)
                events.append((side, v))
            reps.append(IntervalRepresentation(tuple(events)))
        for rep in reps:
            yield rep.serialize(), rep, Graph.from_representation(rep)
        graphs = list(enumerate_caterpillar_graphs(n))
        for _ in range(PREPARED_RANDOM):
            label = list(range(1, n + 1))
            rng.shuffle(label)
            edges = [
                (label[v - 1], label[rng.randrange(v - 1)])
                for v in range(2, n + 1)
                if rng.random() < 0.9
            ]
            graphs.append(Graph(n, edges))
        for g in graphs:
            yield f"{n} {g.edges()}", None, g
    last = None
    for label, g, _, _ in sized_cases():  # each graph comes in one run
        if g is not last:
            last = g
            yield label, None, g


def prepared_digest() -> tuple[str, int]:
    h = hashlib.sha256()
    rows = 0
    for label, rep, g in prepared_structures():
        h.update(f"{label}\n".encode())
        calls = [(prepare_caterpillar, g)]
        if rep is not None:
            calls += [(prepare_proper, rep), (prepare_tp, rep)]
        for prepare, structure in calls:
            h.update(f"{prepare.__name__} {prepared_row(prepare, structure)}\n".encode())
            rows += 1
    return h.hexdigest(), rows


def enumeration_digest() -> tuple[str, int, int]:
    """The digest, the count of structures and the count of independent sets."""
    h = hashlib.sha256()
    structures = sets = 0
    for n in ENUMERATED_N:
        for enumerate_reps in (enumerate_proper_representations, enumerate_tp_representations):
            for rep in enumerate_reps(n):
                h.update(f"{enumerate_reps.__name__} {rep.events}\n".encode())
                structures += 1
        for g in enumerate_caterpillar_graphs(n):
            h.update(f"caterpillar {g.n} {g.adj}\n".encode())
            structures += 1
            for k in ENUMERATED_K:
                found = list(enumerate_independent_sets(g, k))
                h.update(f"{k} {found}\n".encode())
                sets += len(found)
    return h.hexdigest(), structures, sets


@pytest.mark.parametrize("cls", sorted(INSTANCE_DIGESTS))
def test_generated_instances_match_digest(cls):
    assert instances_digest(cls) == INSTANCE_DIGESTS[cls]


def test_cli_solve_output_matches_digest(tmp_path, capsys):
    assert solve_digest(tmp_path, capsys) == SOLVE_DIGEST


def test_cli_solve_output_on_disconnected_proper_matches_digest(tmp_path, capsys):
    assert joined_digest(tmp_path, capsys) == JOINED_DIGEST


def test_cli_oracle_output_matches_digest(tmp_path, capsys):
    assert oracle_digest(tmp_path, capsys) == ORACLE_DIGEST


@pytest.mark.parametrize(
    "cls,solves", [("caterpillar", 27_848), ("proper", 4_058), ("tp", 10_312)]
)
def test_library_schedules_match_digest(cls, solves):
    assert library_digest(cls) == (LIBRARY_DIGESTS[cls], solves)


def test_not_independent_witnesses_match_digest():
    assert witness_digest() == (WITNESS_DIGEST, 1_650)


def test_sized_caterpillar_answers_match_digest():
    digest, reasons = sized_digest()
    assert reasons.keys() >= {
        None, "LOCK_MISMATCH", "TWIN_LEAVES_BLOCKED", "COMPONENT_UNBALANCED"
    }, reasons
    assert digest == SIZED_DIGEST


def test_long_caterpillar_routes_match_digest():
    assert route_digest() == (ROUTE_DIGEST, 79_046)


def test_sized_tp_answers_match_digest():
    digest, reasons = tp_sized_digest()
    assert reasons.keys() >= {None, "MERGE_CASE4", "MERGE_CASE5"}, reasons
    assert digest == TP_SIZED_DIGEST


def test_prepared_values_match_digest():
    assert prepared_digest() == (PREPARED_DIGEST, 5_250)


def test_enumerations_match_digest():
    # the benchmark's tracer times generate.enumerate by wrapping each
    # generator function, so they must stay generator functions
    for fn in (enumerate_proper_representations, enumerate_tp_representations,
               enumerate_caterpillar_graphs, enumerate_independent_sets):
        assert inspect.isgeneratorfunction(fn), fn.__name__
    assert enumeration_digest() == (ENUMERATION_DIGEST, 7_148, 17_910)
