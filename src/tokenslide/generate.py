"""Deterministic instance generation: seeded random families and
exhaustive enumerations of small instances."""

from __future__ import annotations

import random
from array import array
from functools import cache
from itertools import chain, combinations, combinations_with_replacement, count, product
from typing import Iterator

from .graphs import Graph
from .instances import MAX_N, Instance
from .intervals import IntervalRepresentation


class GenerationError(ValueError):
    pass


def path_representation(n: int) -> IntervalRepresentation:
    """Unit-interval chain whose intersection graph is the path 1-2-...-n:
    L1, then L(i) R(i-1) for i = 2..n, then Rn."""
    if n < 1:
        raise ValueError(f"a path needs n >= 1, got {n}")
    middle = chain.from_iterable(zip(range(2, n + 1), range(1, n)))
    return IntervalRepresentation.from_word(
        "L" + "LR" * (n - 1) + "R", array("i", chain((1,), middle, (n,))))


def quadratic_path_instance(k: int) -> Instance:
    """Path on 8k vertices where k tokens must each travel 6k+1 steps.

    Blue sits on v1, v3, ..., v_{2k-1}; red on v_{6k+2}, v_{6k+4}, ...,
    v_{8k}.  The shortest schedule needs exactly k*(6k+1) moves.
    """
    if k < 1:
        raise GenerationError(f"INFEASIBLE: need k >= 1, got {k}")
    n = 8 * k
    blue = tuple(range(1, 2 * k, 2))
    red = tuple(range(6 * k + 2, 8 * k + 1, 2))
    return Instance(n, path_representation(n), None, blue, red)


def _with_graph(inst: Instance, g: Graph) -> Instance:
    """``inst`` holding ``g``, the graph it describes, as its ``graph``."""
    inst.__dict__["graph"] = g  # what the cached property would build
    return inst


def _greedy_independent_sample(g: Graph, k: int, rng: random.Random, tries: int) -> tuple[int, ...]:
    order = list(range(1, g.n + 1))
    for _ in range(tries):
        rng.shuffle(order)
        chosen: set[int] = set()
        for v in order:
            if chosen.isdisjoint(g.adj[v]):
                chosen.add(v)
                if len(chosen) == k:
                    return tuple(sorted(chosen))
        if k == 0:
            return ()
    raise GenerationError(f"INFEASIBLE: no independent set of size {k} found")


# -- random proper-interval instances ---------------------------------------

def _proper_word_attempt(n: int, rng: random.Random, p_open: float, width: int):
    """One left-to-right construction of a connected twin-free event word.

    Intervals close in opening order, at most `width` open at a time so
    large graphs stay sparse.  Consecutive intervals j, j+1 are strong
    twins exactly when no R falls between their L events and no L falls
    between their R events; after closing the first interval of such a
    pending pair an L is forced before the next R.  Every pending pair
    therefore earmarks one future L as its separator, so an L that
    would create a pair is allowed only while enough spare Ls remain;
    with that budget enforced the walk cannot die for n >= 3.  Returns
    the representation, or None on a dead end (only possible for n <= 2).
    """
    sides, ids = ["L"], array("i", [1])
    next_id, close_id = 2, 1
    hazard: dict[int, bool] = {}
    pending = 0
    r_since_l = False
    must_open = False
    while len(ids) < 2 * n:
        lefts_left = n - next_id + 1
        open_count = next_id - close_id
        after = pending + (0 if r_since_l else 1) - (1 if must_open else 0)
        can_l = lefts_left > 0 and after <= lefts_left - 1 and open_count < width
        can_r = (open_count >= 2 or lefts_left == 0) and not must_open
        if not can_l and not can_r:
            return None
        if can_l and (not can_r or rng.random() < p_open):
            if not r_since_l:
                hazard[next_id - 1] = True
                pending += 1
            if must_open:
                must_open = False
                pending -= 1
            sides.append("L")
            ids.append(next_id)
            next_id += 1
            r_since_l = False
        else:
            sides.append("R")
            ids.append(close_id)
            if hazard.get(close_id):
                must_open = True
            close_id += 1
            r_since_l = True
    return IntervalRepresentation.from_word("".join(sides), ids)


def _random_proper_representation(n: int, rng: random.Random) -> IntervalRepresentation:
    if n == 1:
        return path_representation(1)
    if n == 2:
        raise GenerationError(
            "INFEASIBLE: every connected proper family on two intervals is a twin pair"
        )
    for _ in range(200):
        width = min(n - 1, rng.randint(3, 12))
        rep = _proper_word_attempt(n, rng, rng.uniform(0.35, 0.5), width)
        if rep is not None:
            return rep
    raise GenerationError("INFEASIBLE: could not build a twin-free connected word")


def _gen_proper(n: int, k: int, seed: int) -> Instance:
    rng = random.Random(("proper", n, k, seed).__repr__())
    last_err: GenerationError | None = None
    for _ in range(60):
        rep = _random_proper_representation(n, rng)
        g = Graph.from_representation(rep)
        try:
            blue = _greedy_independent_sample(g, k, rng, 50)
            red = _greedy_independent_sample(g, k, rng, 50)
        except GenerationError as err:
            last_err = err
            continue
        return _with_graph(Instance(n, rep, None, blue, red), g)
    raise last_err or GenerationError("INFEASIBLE: no instance found")


# -- random trivially-perfect instances -------------------------------------

def _random_containment_tree(n: int, rng: random.Random) -> list[list[int]]:
    """Children lists (index 0 = virtual ids start at 1, root is 1) for a
    connected nesting where every internal node has at least two children."""
    if n == 1:
        return [[], []]
    if n == 2:
        raise GenerationError("INFEASIBLE: a two-interval nesting is a twin pair")
    children: list[list[int]] = [[] for _ in range(n + 1)]
    # grow from a root with two children; +2 children on a leaf, or +1 on an internal
    children[1] = [2, 3]
    internals = [1]
    leaves = [2, 3]
    size = 3
    while size < n:
        if size + 2 <= n and (rng.random() < 0.6 or not internals):
            idx = rng.randrange(len(leaves))
            node = leaves[idx]
            leaves[idx] = size + 1
            leaves.append(size + 2)
            children[node] = [size + 1, size + 2]
            internals.append(node)
            size += 2
        else:
            node = internals[rng.randrange(len(internals))]
            children[node].append(size + 1)
            leaves.append(size + 1)
            size += 1
    return children


def _tree_to_representation(children: list[list[int]]) -> IntervalRepresentation:
    sides: list[str] = []
    ids = array("i")
    stack: list[tuple[int, bool]] = [(1, False)]
    while stack:
        node, done = stack.pop()
        sides.append("R" if done else "L")
        ids.append(node)
        if not done:
            stack.append((node, True))
            for child in reversed(children[node]):
                stack.append((child, False))
    return IntervalRepresentation.from_word("".join(sides), ids)


def _random_antichain(
    rep: IntervalRepresentation, k: int, rng: random.Random
) -> tuple[int, ...]:
    n = rep.n
    # local ranks: a generated representation caches none until a solver asks
    left, right = [0] * (n + 1), [0] * (n + 1)
    for rank, side, vid in zip(count(1), rep.sides, rep.ids):
        (left if side == "L" else right)[vid] = rank
    for _ in range(400):
        picks: list[int] = []
        candidates = rng.sample(range(1, n + 1), min(n, max(4 * k, k))) if k else []
        for v in candidates:
            # disjoint, as two intervals of a laminar family meet iff they nest
            if all(right[u] < left[v] or right[v] < left[u] for u in picks):
                picks.append(v)
                if len(picks) == k:
                    return tuple(sorted(picks))
        if k == 0:
            return ()
    raise GenerationError(f"INFEASIBLE: no antichain of size {k} found")


def _gen_tp(n: int, k: int, seed: int) -> Instance:
    rng = random.Random(("tp", n, k, seed).__repr__())
    children = _random_containment_tree(n, rng)
    rep = _tree_to_representation(children)
    blue = _random_antichain(rep, k, rng)
    red = _random_antichain(rep, k, rng)
    return Instance(n, rep, None, blue, red)


# -- random caterpillar instances -------------------------------------------

def _random_caterpillar_edges(n: int, rng: random.Random) -> tuple[tuple[int, int], ...]:
    if n == 3:
        return ((1, 2), (1, 3))
    if n < 3:
        raise GenerationError("INFEASIBLE: caterpillar instances need n >= 3")
    m = rng.randint(max(2, (n + 1) // 2), n - 2)
    extra = n - m - 2
    interior = sorted(rng.sample(range(2, m), extra)) if extra else []
    edges = [(i, i + 1) for i in range(1, m)]
    next_leaf = m + 1
    for slot in [1, *interior, m]:
        edges.append((slot, next_leaf))
        next_leaf += 1
    return tuple(edges)


def _gen_caterpillar(n: int, k: int, seed: int) -> Instance:
    rng = random.Random(("caterpillar", n, k, seed).__repr__())
    edges = _random_caterpillar_edges(n, rng)
    g = Graph(n, edges)
    blue = _greedy_independent_sample(g, k, rng, 200)
    red = _greedy_independent_sample(g, k, rng, 200)
    return _with_graph(Instance(n, None, edges, blue, red), g)


_GENERATORS = {
    "proper": _gen_proper,
    "tp": _gen_tp,
    "caterpillar": _gen_caterpillar,
}


def gen_instance(cls: str, n: int, k: int, seed: int = 0) -> Instance:
    """Deterministic random instance of the given class; identical
    arguments always produce byte-identical instances."""
    if cls not in _GENERATORS:
        raise ValueError(f"unknown class {cls!r}; expected one of {sorted(_GENERATORS)}")
    if k < 0 or n < 1:
        raise GenerationError("INFEASIBLE: need n >= 1 and k >= 0")
    if n > MAX_N:
        # no instance file may hold it, so refuse before building anything
        raise GenerationError(f"INFEASIBLE: n={n} exceeds the limit of {MAX_N}")
    if k > n:
        # no graph on n vertices has k independent ones, so no retry can succeed
        raise GenerationError(f"INFEASIBLE: k={k} exceeds n={n}")
    return _GENERATORS[cls](n, k, seed)


# -- exhaustive enumerations -------------------------------------------------

def _proper_walk(
    n: int, sides: str, ids: tuple[int, ...], lefts: int, rights: int
) -> Iterator[IntervalRepresentation]:
    """Every completion of the word ``sides`` and ``ids``, which has
    opened ``lefts`` and closed ``rights`` intervals, trying an L before
    an R.  Intervals close in the order they open, so the next R closes
    interval ``rights + 1``; it may come while another interval stays
    open, or once every L is placed."""
    if rights == n:
        yield IntervalRepresentation.from_word(sides, array("i", ids))
        return
    if lefts < n:
        yield from _proper_walk(n, sides + "L", (*ids, lefts + 1), lefts + 1, rights)
    if lefts - rights >= 2 or lefts == n:
        yield from _proper_walk(n, sides + "R", (*ids, rights + 1), lefts, rights + 1)


def enumerate_proper_representations(n: int) -> Iterator[IntervalRepresentation]:
    """All canonical connected proper representations with n intervals.

    Canonical means vertex ids follow left-endpoint order; properness
    forces right endpoints to close in the same order, so each valid
    L/R pattern yields exactly one representation.
    """
    yield from _proper_walk(n, "", (), 0, 0)


def _partitions(remaining: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """Partitions of ``remaining`` into parts of at most ``max_part``,
    each listed largest part first, in decreasing lexicographic order."""
    if remaining == 0:
        yield ()
        return
    for part in range(min(remaining, max_part), 0, -1):
        for rest in _partitions(remaining - part, part):
            yield (part, *rest)


@cache
def _tp_shapes(size: int) -> tuple[tuple, ...]:
    """Canonical shapes of nestings: nested sorted tuples of children.

    A sole child is a twin of its parent, so no part of the children's
    partition exceeds ``size - 2``, and there are no shapes of size 2.
    Children of equal size are a multiset of that size's shapes, and the
    product takes the sizes in increasing order, first size slowest.
    """
    shapes: list[tuple] = []
    for parts in _partitions(size - 1, size - 2):
        per_size = [
            combinations_with_replacement(_tp_shapes(p), parts.count(p))
            for p in sorted(set(parts))
        ]
        for combos in product(*per_size):
            shapes.append(tuple(sorted(chain.from_iterable(combos))))
    return tuple(shapes)


def _nesting_events(shape: tuple, numbers: Iterator[int], sides: list[str], ids: array) -> None:
    """Append the endpoints of ``shape`` to the word ``sides`` and
    ``ids``, its intervals numbered in preorder from ``numbers``."""
    vid = next(numbers)
    sides.append("L")
    ids.append(vid)
    for child in shape:
        _nesting_events(child, numbers, sides, ids)
    sides.append("R")
    ids.append(vid)


def enumerate_tp_representations(n: int) -> Iterator[IntervalRepresentation]:
    """All connected twin-free nestings with n intervals, one per
    isomorphism class, vertex ids in preorder."""
    for shape in _tp_shapes(n):
        sides: list[str] = []
        ids = array("i")
        _nesting_events(shape, count(1), sides, ids)
        yield IntervalRepresentation.from_word("".join(sides), ids)


def _leaf_counts(total: int, slots: int, lo: int = 1) -> Iterator[tuple[int, ...]]:
    """Leaf counts of ``slots`` spine vertices summing to ``total``, in
    lexicographic order.  The first slot takes at least ``lo`` leaves and
    the last at least one, since a spine end without leaves is a leaf."""
    if slots == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(lo, total + 1):
        for rest in _leaf_counts(total - first, slots - 1, 0):
            yield (first, *rest)


def enumerate_caterpillar_graphs(n: int) -> Iterator[Graph]:
    """All caterpillar trees with n vertices, one per isomorphism class.

    Spine vertices are numbered 1..m in path order and leaves are
    appended afterwards, slot by slot.  Includes stars (m = 1), bare
    paths, and multi-leaf spine vertices; n = 1 and n = 2 yield the
    trivial graphs.
    """
    if n <= 2:
        yield Graph(n, ((1, 2),) if n == 2 else ())
        return
    for m in range(1, n - 1):
        for counts in _leaf_counts(n - m, m):
            # the reversed spine is the same caterpillar; counts come in
            # lexicographic order, so the smaller reading comes first
            if counts > counts[::-1]:
                continue
            edges = [(i, i + 1) for i in range(1, m)]
            slots = [slot for slot, c in enumerate(counts, start=1) for _ in range(c)]
            edges += zip(slots, range(m + 1, n + 1))
            yield Graph(n, edges)


def enumerate_independent_sets(g: Graph, k: int) -> Iterator[tuple[int, ...]]:
    """All independent sets of size exactly k, in lexicographic order."""
    for vertices in combinations(range(1, g.n + 1), k):
        if g.touching(vertices) is None:
            yield vertices
