"""A prepared graph answers every token pair exactly like the raw one.

``prepare_proper``, ``prepare_tp`` and ``prepare_caterpillar`` analyse a
graph once; ``solve_*`` then takes that value in place of the graph.  The
sweep below solves many pairs against one prepared value, forwards and
backwards, so state leaking from one pair into the next would show.
"""

import importlib

import pytest

from tokenslide.caterpillar import prepare_caterpillar, solve_caterpillar
from tokenslide.generate import (
    enumerate_caterpillar_graphs,
    enumerate_independent_sets,
    enumerate_proper_representations,
    enumerate_tp_representations,
)
from tokenslide.graphs import Graph, find_strong_twins
from tokenslide.intervals import IntervalRepresentation, parse_representation
from tokenslide.proper import prepare_proper, solve_proper
from tokenslide.results import SolverInputError
from tokenslide.trivially_perfect import prepare_tp, solve_tp

cc = importlib.import_module("tokenslide.crosscheck")


def _proper_graphs():
    for n in range(1, 7):
        for rep in enumerate_proper_representations(n):
            g = Graph.from_representation(rep)
            if not find_strong_twins(g):
                yield rep, g


def _tp_graphs():
    for n in range(1, 7):
        for rep in enumerate_tp_representations(n):
            yield rep, Graph.from_representation(rep)


def _caterpillar_graphs():
    for n in range(3, 7):
        for g in enumerate_caterpillar_graphs(n):
            yield g, g


CLASSES = {
    "proper": (prepare_proper, solve_proper, _proper_graphs),
    "tp": (prepare_tp, solve_tp, _tp_graphs),
    "caterpillar": (prepare_caterpillar, solve_caterpillar, _caterpillar_graphs),
}


def _token_sets(g):
    """Independent sets of one to three tokens, plus sets the token check
    rejects: an edge, a repeated vertex and a vertex outside the graph."""
    sets = [s for k in range(1, 4) for s in enumerate_independent_sets(g, k)]
    sets += [next(iter(g.edges()), (1, 1)), (1, 1), (g.n + 1,)]
    return sets


def _outcome(solve, structure, blue, red, decide):
    try:
        return solve(structure, blue, red, decide)
    except SolverInputError as err:
        return ("ERROR", err.kind, str(err), err.details)


@pytest.mark.parametrize("cls", sorted(CLASSES))
def test_prepared_value_answers_like_the_raw_structure(cls):
    prepare, solve, graphs = CLASSES[cls]
    cases = 0
    for structure, g in graphs():
        sets = _token_sets(g)
        pairs = [
            (blue, red, decide)
            for blue in sets
            for red in sets
            for decide in (False, True)
        ]
        fresh = [_outcome(solve, structure, *pair) for pair in pairs]
        prepared = prepare(structure)
        forward = [_outcome(solve, prepared, *pair) for pair in pairs]
        backward = [_outcome(solve, prepared, *pair) for pair in reversed(pairs)]
        assert forward == fresh
        assert backward[::-1] == fresh
        cases += len(pairs)
    assert cases > 1000


# kind, message and details each solver raised for these graphs before
# the analysis moved into prepare_*
STRUCTURAL = [
    (
        "proper",
        parse_representation("L1 L2 R2 R1"),
        "NOT_PROPER",
        "left and right endpoints close in different orders",
        (),
    ),
    (
        "proper",
        parse_representation("L1 L2 L3 R1 R2 R3"),
        "STRONG_TWINS",
        "vertices with identical closed neighborhoods present",
        ((1, 2), (2, 3)),
    ),
    (
        "tp",
        parse_representation("L1 L2 R1 R2"),
        "NOT_TRIVIALLY_PERFECT",
        "interval 1 partially overlaps an open interval",
        (),
    ),
    (
        "tp",
        parse_representation("L1 L2 L3 R3 R2 R1"),
        "STRONG_TWINS",
        "vertices with identical closed neighborhoods present",
        ((1, 2), (2, 3)),
    ),
    (
        "caterpillar",
        Graph(5, [(1, 2), (2, 3), (3, 4), (4, 1)]),
        "CYCLIC",
        "graph contains a cycle",
        (1,),
    ),
    (
        "caterpillar",
        Graph(7, [(1, 2), (2, 3), (1, 4), (4, 5), (1, 6), (6, 7)]),
        "NOT_CATERPILLAR",
        "non-leaf vertices do not form a path",
        (),
    ),
    (
        "caterpillar",
        Graph(5, [(1, 2), (2, 3), (4, 5)]),
        "STRONG_TWINS",
        "two-vertex components are twin pairs",
        ((4, 5),),
    ),
]


@pytest.mark.parametrize(
    "cls,structure,kind,message,details",
    STRUCTURAL,
    ids=[f"{case[0]}-{case[2]}" for case in STRUCTURAL],
)
def test_prepare_raises_the_structural_errors(cls, structure, kind, message, details):
    prepare, solve, _ = CLASSES[cls]
    for call in (lambda: prepare(structure), lambda: solve(structure, (), ())):
        with pytest.raises(SolverInputError) as info:
            call()
        assert info.value.kind == kind
        assert str(info.value) == message
        assert info.value.details == details


class CountedEvents(tuple):
    """An event tuple that counts how often it is traversed."""

    traversals = 0

    def __iter__(self):
        CountedEvents.traversals += 1
        return super().__iter__()

    def __reversed__(self):
        CountedEvents.traversals += 1
        return iter(self[::-1])  # a slice is a plain tuple


@pytest.mark.parametrize(
    "prepare,text",
    [
        (prepare_proper, "L1 L2 R1 L3 R2 L4 R3 R4 L5 R5"),
        (prepare_tp, "L1 L2 L3 R3 L4 R4 R2 L5 R5 R1 L6 R6"),
    ],
    ids=["proper", "tp"],
)
def test_prepare_reads_the_endpoints_once(prepare, text, monkeypatch):
    events = CountedEvents(parse_representation(text).events)
    rep = IntervalRepresentation(events)
    monkeypatch.setattr(CountedEvents, "traversals", 0)
    prepared = prepare(rep)
    assert CountedEvents.traversals == 1
    assert prepared == prepare(parse_representation(text))


def test_disconnected_representation_is_prepared():
    # two isolated vertices: tokens stay in their own component
    prepared = prepare_proper(parse_representation("L1 R1 L2 R2"))
    assert solve_proper(prepared, (1, 2), (1, 2)).moves == ()
    res = solve_proper(prepared, (1,), (2,))
    assert (res.status, res.reason, res.witness) == ("NO", "COMPONENT_UNBALANCED", (1,))


# checked pairs of the n <= 6, k <= 3 sweeps before the prepare split
CHECKED_AT_6 = {"proper": 831, "tp": 618, "caterpillar": 1332}


@pytest.mark.parametrize("cls", sorted(CLASSES))
def test_crosscheck_prepares_each_graph_once(cls, monkeypatch):
    prepare = CLASSES[cls][0]
    module = importlib.import_module(prepare.__module__)
    calls = []

    def counted(structure):
        calls.append(structure)
        return prepare(structure)

    # patched in both modules, so a solver handed the raw structure would
    # prepare again through its own module and be counted too
    monkeypatch.setattr(cc, prepare.__name__, counted)
    monkeypatch.setattr(module, prepare.__name__, counted)
    report = cc.crosscheck(cls, 6)
    assert report.ok
    assert report.checked == CHECKED_AT_6[cls]
    assert len(calls) == sum(1 for _ in cc._graph_stream(cls, 6))
