"""Deterministic instance generation: seeded random families and
exhaustive enumerations of small instances."""

from __future__ import annotations

import random
from itertools import combinations_with_replacement
from typing import Iterator

from .graphs import Graph
from .instances import Instance
from .intervals import IntervalRepresentation


class GenerationError(ValueError):
    pass


def path_representation(n: int) -> IntervalRepresentation:
    """Unit-interval chain whose intersection graph is the path 1-2-...-n."""
    events: list[tuple[str, int]] = [("L", 1)]
    for i in range(2, n + 1):
        events.append(("L", i))
        events.append(("R", i - 1))
    events.append(("R", n))
    return IntervalRepresentation(tuple(events))


def quadratic_path_instance(k: int) -> Instance:
    """Path on 8k vertices where k tokens must each travel 6k+1 steps.

    Blue sits on v1, v3, ..., v_{2k-1}; red on v_{6k+2}, v_{6k+4}, ...,
    v_{8k}.  The shortest schedule needs exactly k*(6k+1) moves.
    """
    n = 8 * k
    blue = tuple(range(1, 2 * k, 2))
    red = tuple(range(6 * k + 2, 8 * k + 1, 2))
    return Instance(n, path_representation(n), None, blue, red)


def _greedy_independent_sample(g: Graph, k: int, rng: random.Random, tries: int) -> tuple[int, ...]:
    order = list(range(1, g.n + 1))
    for _ in range(tries):
        rng.shuffle(order)
        chosen: set[int] = set()
        for v in order:
            if all(w not in chosen for w in g.adj[v]):
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
    None on a dead end (only possible for n <= 2).
    """
    events: list[tuple[str, int]] = [("L", 1)]
    next_id, close_id = 2, 1
    hazard: dict[int, bool] = {}
    pending = 0
    r_since_l = False
    must_open = False
    while len(events) < 2 * n:
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
            events.append(("L", next_id))
            next_id += 1
            r_since_l = False
        else:
            events.append(("R", close_id))
            if hazard.get(close_id):
                must_open = True
            close_id += 1
            r_since_l = True
    return tuple(events)


def _random_proper_representation(n: int, rng: random.Random) -> IntervalRepresentation:
    if n == 1:
        return IntervalRepresentation((("L", 1), ("R", 1)))
    if n == 2:
        raise GenerationError(
            "INFEASIBLE: every connected proper family on two intervals is a twin pair"
        )
    for _ in range(200):
        width = min(n - 1, rng.randint(3, 12))
        events = _proper_word_attempt(n, rng, rng.uniform(0.35, 0.5), width)
        if events is not None:
            return IntervalRepresentation(events)
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
        return Instance(n, rep, None, blue, red)
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
    events: list[tuple[str, int]] = []
    stack: list[tuple[int, bool]] = [(1, False)]
    while stack:
        node, done = stack.pop()
        if done:
            events.append(("R", node))
        else:
            events.append(("L", node))
            stack.append((node, True))
            for child in reversed(children[node]):
                stack.append((child, False))
    return IntervalRepresentation(tuple(events))


def _random_antichain(
    rep: IntervalRepresentation, k: int, rng: random.Random
) -> tuple[int, ...]:
    n = rep.n
    # local ranks: a generated representation caches none until a solver asks
    left, right = [0] * (n + 1), [0] * (n + 1)
    for rank, (side, vid) in enumerate(rep.events, start=1):
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
    return Instance(n, None, edges, blue, red)


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
    return _GENERATORS[cls](n, k, seed)


# -- exhaustive enumerations -------------------------------------------------

def enumerate_proper_representations(n: int) -> Iterator[IntervalRepresentation]:
    """All canonical connected proper representations with n intervals.

    Canonical means vertex ids follow left-endpoint order; properness
    forces right endpoints to close in the same order, so each valid
    L/R pattern yields exactly one representation.
    """

    def walk(pattern: list[str], lefts: int, open_count: int) -> Iterator[list[str]]:
        if len(pattern) == 2 * n:
            yield pattern
            return
        if lefts < n:
            pattern.append("L")
            yield from walk(pattern, lefts + 1, open_count + 1)
            pattern.pop()
        if open_count >= 2 or (lefts == n and open_count >= 1):
            pattern.append("R")
            yield from walk(pattern, lefts, open_count - 1)
            pattern.pop()

    for pattern in walk([], 0, 0):
        events: list[tuple[str, int]] = []
        next_id = 1
        fifo: list[int] = []
        head = 0
        for side in pattern:
            if side == "L":
                events.append(("L", next_id))
                fifo.append(next_id)
                next_id += 1
            else:
                events.append(("R", fifo[head]))
                head += 1
        yield IntervalRepresentation(tuple(events))


def _tp_shapes(size: int, cache: dict[int, list[tuple]]) -> list[tuple]:
    """Canonical shapes of nestings: nested sorted tuples of children.
    Size-2 shapes are excluded (a sole child is a twin of its parent)."""
    if size in cache:
        return cache[size]
    if size == 1:
        cache[1] = [()]
        return cache[1]
    if size == 2:
        cache[2] = []
        return cache[2]
    shapes: list[tuple] = []

    def partitions(remaining: int, max_part: int, parts: list[int]) -> Iterator[list[int]]:
        if remaining == 0:
            if len(parts) >= 2:
                yield parts
            return
        for part in range(min(remaining, max_part), 0, -1):
            if part == 2:
                continue
            parts.append(part)
            yield from partitions(remaining - part, part, parts)
            parts.pop()

    for parts in partitions(size - 1, size - 1, []):
        groups: dict[int, int] = {}
        for p in parts:
            groups[p] = groups.get(p, 0) + 1
        choices_per_size = [
            list(combinations_with_replacement(_tp_shapes(p, cache), count))
            for p, count in sorted(groups.items())
        ]

        def build(level: int, acc: list[tuple]) -> None:
            if level == len(choices_per_size):
                shapes.append(tuple(sorted(acc)))
                return
            for combo in choices_per_size[level]:
                build(level + 1, acc + list(combo))

        build(0, [])
    cache[size] = shapes
    return shapes


def enumerate_tp_representations(n: int) -> Iterator[IntervalRepresentation]:
    """All connected twin-free nestings with n intervals, one per
    isomorphism class, vertex ids in preorder."""
    cache: dict[int, list[tuple]] = {}
    for shape in _tp_shapes(n, cache):
        events: list[tuple[str, int]] = []
        counter = [0]

        def emit(node: tuple) -> None:
            counter[0] += 1
            vid = counter[0]
            events.append(("L", vid))
            for child in node:
                emit(child)
            events.append(("R", vid))

        emit(shape)
        yield IntervalRepresentation(tuple(events))


def enumerate_caterpillar_graphs(n: int) -> Iterator[Graph]:
    """All caterpillar trees with n vertices, one per isomorphism class.

    Spine vertices are numbered 1..m in path order and leaves are
    appended afterwards, slot by slot.  Includes stars, bare paths, and
    multi-leaf spine vertices; n = 1 and n = 2 yield the trivial graphs.
    """
    if n == 1:
        yield Graph(1, ())
        return
    if n == 2:
        yield Graph(2, ((1, 2),))
        return
    yield Graph(n, ((1, i) for i in range(2, n + 1)))  # star
    seen: set[tuple[int, ...]] = set()
    for m in range(2, n - 1):
        total = n - m

        def compositions(remaining: int, slots: int) -> Iterator[tuple[int, ...]]:
            if slots == 1:
                if remaining >= 1:
                    yield (remaining,)
                return
            lo = 1 if slots == m else 0
            for first in range(lo, remaining + 1):
                for rest in compositions(remaining - first, slots - 1):
                    yield (first, *rest)

        for comp in compositions(total, m):
            if comp[0] < 1 or comp[-1] < 1:
                continue
            canon = min(comp, comp[::-1])
            if canon in seen:
                continue
            seen.add(canon)
            edges = [(i, i + 1) for i in range(1, m)]
            next_leaf = m + 1
            for slot, count in enumerate(canon, start=1):
                for _ in range(count):
                    edges.append((slot, next_leaf))
                    next_leaf += 1
            yield Graph(n, edges)


def enumerate_independent_sets(g: Graph, k: int) -> Iterator[tuple[int, ...]]:
    """All independent sets of size exactly k, in lexicographic order."""

    def extend(start: int, chosen: list[int], blocked: set[int]) -> Iterator[tuple[int, ...]]:
        if len(chosen) == k:
            yield tuple(chosen)
            return
        for v in range(start, g.n + 1):
            if g.n - v + 1 < k - len(chosen):
                break
            if v in blocked:
                continue
            newly = [w for w in (*g.adj[v], v) if w not in blocked]
            blocked.update(newly)
            chosen.append(v)
            yield from extend(v + 1, chosen, blocked)
            chosen.pop()
            blocked.difference_update(newly)

    yield from extend(1, [], set())
