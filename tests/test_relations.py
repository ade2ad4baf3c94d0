"""Relations every answer of the interval solvers keeps, on seeded
instances far above the sizes the oracle can check.

Sliding is symmetric, so red to blue has the answer blue to red has,
and the reversed schedule replays it.  Reflecting the endpoint word
keeps every interval's neighbours, so the graph and the answer stay.
"""

import random
from array import array

import pytest

from tokenslide.generate import gen_instance
from tokenslide.graphs import validate_sequence
from tokenslide.intervals import IntervalRepresentation
from tokenslide.proper import solve_proper
from tokenslide.trivially_perfect import solve_tp

from walks import walk_red

SOLVERS = {"proper": solve_proper, "tp": solve_tp}
INSTANCES = 160  # each gives two pairs: the generator's red and a walked one
SWAP_SIDES = str.maketrans("LR", "RL")


def mirrored(rep):
    """The endpoint word read right to left: the same intersection graph."""
    return IntervalRepresentation.from_word(
        rep.sides[::-1].translate(SWAP_SIDES), array("i", reversed(rep.ids))
    )


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
