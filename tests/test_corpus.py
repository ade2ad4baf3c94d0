"""Known caterpillar mismatches kept as fixtures.

Each entry of ``caterpillar_mismatches.txt`` is a MISMATCH line as
crosscheck prints it.  Every entry must parse and keep its oracle
distance.  The solver still misses that distance on all of them, so the
length check is a strict expected failure: once the solver is fixed it
passes, and the marker has to go.
"""

from pathlib import Path

import pytest

from tokenslide.caterpillar import solve_caterpillar
from tokenslide.instances import parse_instance
from tokenslide.oracle import bfs

CORPUS = Path(__file__).with_name("caterpillar_mismatches.txt")


def entries():
    """(instance, oracle distance) for every corpus line."""
    for line in CORPUS.read_text().splitlines():
        if line.startswith("MISMATCH "):
            text, _, rest = line.removeprefix("MISMATCH ").partition(" solver=")
            oracle = rest.partition(" oracle=")[2].partition(" ")[0]
            yield parse_instance(text.replace(";", "\n")), int(oracle)


ENTRIES = list(entries())


def test_corpus_has_every_known_failure():
    assert [inst.n for inst, _ in ENTRIES] == [10, 10, 27, 23, 23] + [10] * 7


@pytest.mark.parametrize("inst,distance", ENTRIES)
def test_entry_keeps_its_oracle_distance(inst, distance):
    res = bfs(inst.graph, inst.blue, inst.red)
    assert res.reachable and res.distance == distance


@pytest.mark.xfail(strict=True, reason="the caterpillar solver is not exact for k >= 4")
@pytest.mark.parametrize("inst,distance", ENTRIES)
def test_solver_reaches_the_oracle_distance(inst, distance):
    res = solve_caterpillar(inst.graph, inst.blue, inst.red)
    assert res.yes and res.move_count == distance
