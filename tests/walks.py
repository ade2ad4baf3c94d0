"""Random-walk token sets, long-route caterpillar shapes, a deep
trivially perfect nesting, a reference edge sweep of an endpoint word
and a reference proper-interval walk, shared by the test modules."""

from tokenslide.graphs import Graph
from tokenslide.intervals import IntervalRepresentation


def walk_red(g, blue, steps, rng):
    """Token set reached from blue by up to ``steps`` random legal slides."""
    occupied = set(blue)
    tokens = sorted(occupied)
    for _ in range(steps):
        i = rng.randrange(len(tokens))
        u = tokens[i]
        v = rng.choice(g.adj[u])
        if v not in occupied and all(w == u or w not in occupied for w in g.adj[v]):
            occupied.remove(u)
            occupied.add(v)
            tokens[i] = v
    return tuple(sorted(occupied))


def comb(blocks):
    """Spine 1..4b with one leaf on every spine cell; blue and red leaves
    alternate, so every token travels four slides inside its own block."""
    s = 4 * blocks
    edges = [(i, i + 1) for i in range(1, s)] + [(i, s + i) for i in range(1, s + 1)]
    blue = tuple(s + 4 * i + 1 for i in range(blocks))
    red = tuple(s + 4 * i + 3 for i in range(blocks))
    return Graph(2 * s, edges), blue, red


def leafy_crossing(spine, d):
    """Spine 1..spine with d leaves on every cell; one token crosses from
    the first leaf of the first group to the last leaf of the last group,
    in spine + 1 slides."""
    n = spine * (d + 1)
    edges = [(i, i + 1) for i in range(1, spine)]
    edges += [(i, spine + (i - 1) * d + j) for i in range(1, spine + 1) for j in range(1, d + 1)]
    return Graph(n, edges), (spine + 1,), (n,)


def nesting(depth):
    """Chain of ``depth`` nested intervals 1..depth, interval i holding
    the leaf interval depth + i, the innermost also holding the leaf
    2 * depth + 1.  Every interval meets all of its ancestors, so the
    intersection graph has about depth**2 edges."""
    events = []
    for i in range(1, depth + 1):
        events += [("L", i), ("L", depth + i), ("R", depth + i)]
    extra = 2 * depth + 1
    events += [("L", extra), ("R", extra)]
    events += [("R", i) for i in range(depth, 0, -1)]
    return IntervalRepresentation(tuple(events))


def intersection_edges(rep):
    """Edges of the intersection graph of ``rep``, each once as (smaller
    id, larger id), by a left-to-right sweep that pairs every interval
    with the intervals open when it opens: the reference that
    ``Graph.from_representation`` is checked against."""
    active = set()
    for side, vid in rep.events:
        if side == "L":
            yield from ((other, vid) if other < vid else (vid, other) for other in active)
            active.add(vid)
        else:
            active.discard(vid)


def reference_walk(pos, hi, lo, order, frm, to):
    """The proper solver's shortest path between two vertices of one
    component, as first written: each hop clamps the farthest neighbor
    toward the target with ``min`` or ``max``.  The reference that
    ``proper._walk`` is checked against."""
    if frm == to:
        return ()
    path = [frm]
    cur, tgt = pos[frm], pos[to]
    while cur != tgt:
        cur = min(hi[cur], tgt) if tgt > cur else max(lo[cur], tgt)
        path.append(order[cur - 1])
    return tuple(path)
