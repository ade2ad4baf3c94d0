"""Random-walk token sets shared by the test modules."""


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
