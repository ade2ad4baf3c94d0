"""Relations every answer of the interval solvers keeps, on seeded
instances far above the sizes the oracle can check.

Sliding is symmetric, so red to blue has the answer blue to red has,
and the reversed schedule replays it.  Reflecting the endpoint word
keeps every interval's neighbours, so the graph and the answer stay.
Renaming the vertices renames the graph, so the answer and any NO reason
stay; and tokens never cross between the two words of a disjoint union,
so the union is YES iff both parts are, in the sum of their lengths.
"""

import random
from array import array
from collections import Counter

import pytest

from tokenslide.generate import gen_instance
from tokenslide.graphs import validate_sequence
from tokenslide.intervals import IntervalRepresentation
from tokenslide.proper import prepare_proper, solve_proper
from tokenslide.trivially_perfect import prepare_tp, solve_tp

from walks import walk_red

SOLVERS = {"proper": solve_proper, "tp": solve_tp}
PREPARES = {"proper": prepare_proper, "tp": prepare_tp}
INSTANCES = 160  # each gives two pairs: the generator's red and a walked one
SWAP_SIDES = str.maketrans("LR", "RL")


def mirrored(rep):
    """The endpoint word read right to left: the same intersection graph."""
    return IntervalRepresentation.from_word(
        rep.sides[::-1].translate(SWAP_SIDES), array("i", reversed(rep.ids))
    )


def relabelled(rep, perm):
    """The endpoint word with each id v renamed perm[v]."""
    return IntervalRepresentation.from_word(rep.sides, array("i", map(perm.__getitem__, rep.ids)))


def joined(rep, other):
    """The disjoint union: ``other``'s word after ``rep``'s, its ids shifted
    past ``rep``'s, so no interval of one meets one of the other."""
    shifted = array("i", (vid + rep.n for vid in other.ids))
    return IntervalRepresentation.from_word(rep.sides + other.sides, rep.ids + shifted)


def answer(res):
    return res.status, res.move_count


@pytest.mark.parametrize("cls", sorted(SOLVERS))
def test_reversed_and_mirrored_pairs_answer_alike(cls):
    solve = SOLVERS[cls]
    rng = random.Random(f"relations {cls}")
    pairs = yes = 0
    for _ in range(INSTANCES):
        n, k = rng.randint(200, 2_000), rng.randint(1, 25)
        inst = gen_instance(cls, n, k, seed=rng.randrange(2**31))
        rep, mirror = inst.rep, mirrored(inst.rep)
        walked = walk_red(inst.graph, inst.blue, rng.randint(1, 10 * k), rng)
        for red in (inst.red, walked):
            case = f"gen --class {cls} --n {n} --k {k}, red {red}"
            res = solve(rep, inst.blue, red)
            assert answer(solve(rep, red, inst.blue)) == answer(res), case
            assert answer(solve(mirror, inst.blue, red)) == answer(res), case
            if res.yes:
                back = [(dst, src) for src, dst in reversed(res.moves)]
                assert validate_sequence(rep, red, inst.blue, back).ok, case
                yes += 1
            pairs += 1
    assert pairs >= 300
    # the walked reds alone are all reachable
    assert yes >= INSTANCES


@pytest.mark.parametrize("cls", sorted(SOLVERS))
def test_relabelled_and_joined_pairs_answer_alike(cls):
    solve, prepare = SOLVERS[cls], PREPARES[cls]
    rng = random.Random(f"relabelling and union {cls}")
    pairs = []
    for _ in range(INSTANCES):
        n, k = rng.randint(200, 2_000), rng.randint(1, 25)
        inst = gen_instance(cls, n, k, seed=rng.randrange(2**31))
        prepared = prepare(inst.rep)
        walked = walk_red(inst.graph, inst.blue, rng.randint(1, 10 * k), rng)
        for red in (inst.red, walked):
            case = f"gen --class {cls} --n {n} --k {k}, red {red}"
            pairs.append((case, (prepared, inst.blue, red), solve(prepared, inst.blue, red)))
    unions = Counter()
    # each pair is joined with the next instance's pair of the same red kind
    for (case, one, res), (case2, other, res2) in zip(pairs, pairs[2:] + pairs[:2]):
        rep, blue, red = one[0].rep, one[1], one[2]
        perm = [0, *rng.sample(range(1, rep.n + 1), rep.n)]
        renamed = solve(relabelled(rep, perm), [perm[v] for v in blue], [perm[v] for v in red])
        assert (*answer(renamed), renamed.reason) == (*answer(res), res.reason), case
        union = prepare(joined(rep, other[0].rep))
        # with a blue token of one part and a red of the other left out, both
        # parts are NO and the union's two components are unbalanced
        short = (one[0], blue[1:], red), (*other[:2], other[2][1:])
        for parts, results in (((one, other), (res, res2)), (short, [solve(*p) for p in short])):
            (_, blue1, red1), (_, blue2, red2) = parts
            got = solve(union, blue1 + tuple(v + rep.n for v in blue2),
                        red1 + tuple(v + rep.n for v in red2))
            assert got.yes == all(r.yes for r in results), (case, case2)
            if got.yes:
                assert got.move_count == sum(r.move_count for r in results), (case, case2)
            unions[got.status] += 1
    assert len(pairs) >= 300
    # the walked reds alone are all reachable, so the unions of two are
    assert unions["YES"] >= INSTANCES and unions["NO"] >= len(pairs), unions
