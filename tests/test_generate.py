"""Instance generators: determinism, validity, and exhaustive enumerations."""

import pytest

from tokenslide import generate
from tokenslide.generate import (
    GenerationError,
    enumerate_caterpillar_graphs,
    enumerate_independent_sets,
    enumerate_proper_representations,
    enumerate_tp_representations,
    gen_instance,
    path_representation,
    quadratic_path_instance,
)
from tokenslide.caterpillar import prepare_caterpillar
from tokenslide.graphs import Graph, find_strong_twins
from tokenslide.instances import MAX_N, serialize_instance
from tokenslide.intervals import GraphClass, IntervalRepresentation


def test_path_representation_shape():
    rep = path_representation(3)
    assert rep.serialize() == "L1 L2 R1 L3 R2 R3"
    g = Graph.from_representation(path_representation(6))
    assert sorted(g.edges()) == [(i, i + 1) for i in range(1, 6)]


def test_path_words_pair_up():
    for n in range(1, 30):
        rep = path_representation(n)
        # the constructor checks the pairing the builder skips
        assert IntervalRepresentation(rep.events) == rep and rep.n == n
    assert path_representation(1).serialize() == "L1 R1"


@pytest.mark.parametrize("n", [0, -1])
def test_path_of_no_vertex_refused(n):
    with pytest.raises(ValueError, match="a path needs n >= 1"):
        path_representation(n)


@pytest.mark.parametrize("k", [0, -1])
def test_quadratic_path_of_no_token_refused(k):
    with pytest.raises(GenerationError, match="^INFEASIBLE: need k >= 1"):
        quadratic_path_instance(k)


def test_quadratic_path_instance_layout():
    inst = quadratic_path_instance(2)
    assert inst.n == 16
    assert inst.blue == (1, 3)
    assert inst.red == (14, 16)


@pytest.mark.parametrize("cls", ["proper", "tp", "caterpillar"])
def test_generator_deterministic(cls):
    a = gen_instance(cls, 14, 3, seed=7)
    b = gen_instance(cls, 14, 3, seed=7)
    assert serialize_instance(a) == serialize_instance(b)
    c = gen_instance(cls, 14, 3, seed=8)
    assert serialize_instance(c) != serialize_instance(a)


@pytest.mark.parametrize("cls", ["proper", "tp", "caterpillar"])
@pytest.mark.parametrize("seed", range(5))
def test_generated_instances_valid(cls, seed):
    inst = gen_instance(cls, 12, 3, seed=seed)
    g = inst.graph
    assert len(g.components()) == 1
    assert len(inst.blue) == 3 and len(inst.red) == 3
    assert g.touching(inst.blue) is None
    assert g.touching(inst.red) is None
    if cls == "proper":
        assert inst.rep.classify() is GraphClass.PROPER
        assert find_strong_twins(g) == []
    elif cls == "tp":
        assert inst.rep.classify() is GraphClass.TRIVIALLY_PERFECT
        assert find_strong_twins(g) == []
    else:
        assert len(prepare_caterpillar(g).pieces) == 1


def test_tp_n2_infeasible():
    with pytest.raises(GenerationError):
        gen_instance("tp", 2, 1, seed=0)


def test_unknown_class_rejected():
    with pytest.raises(ValueError):
        gen_instance("chordal", 5, 1, seed=0)


def test_infeasible_k_rejected():
    with pytest.raises(GenerationError):
        gen_instance("proper", 4, 4, seed=0)


@pytest.mark.parametrize("cls", ["proper", "tp", "caterpillar"])
def test_n_above_the_parse_limit_rejected_before_generating(cls, monkeypatch):
    # no instance file may hold it, so the class generator is never called
    def unreachable(*args):
        raise AssertionError("generated an instance no file may hold")

    monkeypatch.setitem(generate._GENERATORS, cls, unreachable)
    with pytest.raises(
        GenerationError, match=f"INFEASIBLE: n={MAX_N + 1} exceeds the limit of {MAX_N}"
    ):
        gen_instance(cls, MAX_N + 1, 1, seed=0)
    with pytest.raises(AssertionError, match="generated an instance"):
        gen_instance(cls, MAX_N, 1, seed=0)


@pytest.mark.parametrize("cls", ["proper", "tp", "caterpillar"])
def test_k_above_n_rejected_before_generating(cls, monkeypatch):
    # no graph on n vertices has k > n independent ones, so no retry runs
    def unreachable(*args):
        raise AssertionError("generated for an infeasible k")

    monkeypatch.setitem(generate._GENERATORS, cls, unreachable)
    with pytest.raises(GenerationError, match="INFEASIBLE: k=10001 exceeds n=10000"):
        gen_instance(cls, 10_000, 10_001, seed=0)
    with pytest.raises(AssertionError, match="generated for"):
        gen_instance(cls, 10_000, 10_000, seed=0)


@pytest.mark.parametrize("cls", ["proper", "caterpillar"])
def test_generated_graph_is_handed_over(cls, monkeypatch):
    # the generator samples the tokens on the graph, and the instance keeps it
    inst = gen_instance(cls, 500, 20, seed=4)

    def refuse(*args, **kwargs):
        raise AssertionError("built a second graph")

    with monkeypatch.context() as patch:
        patch.setattr(Graph, "__init__", refuse)
        g = inst.graph
    fresh = Graph.from_representation(inst.rep) if cls == "proper" else Graph(inst.n, inst.edge_list)
    assert (g.n, g.adj) == (fresh.n, fresh.adj)


# -- exhaustive enumerations -------------------------------------------------

def test_proper_enumeration_counts():
    # connected canonical representations are counted by the Catalan numbers
    expected = {1: 1, 2: 1, 3: 2, 4: 5, 5: 14, 6: 42, 7: 132, 8: 429}
    for n, count in expected.items():
        reps = list(enumerate_proper_representations(n))
        assert len(reps) == count
        assert len({r.serialize() for r in reps}) == count


def test_proper_enumeration_all_valid():
    for rep in enumerate_proper_representations(5):
        assert rep.classify() is GraphClass.PROPER
        assert len(Graph.from_representation(rep).components()) == 1


def test_tp_enumeration_counts():
    expected = {1: 1, 2: 0, 3: 1, 4: 1, 5: 2, 6: 3, 7: 6, 8: 10}
    for n, count in expected.items():
        reps = list(enumerate_tp_representations(n))
        assert len(reps) == count


def test_tp_enumeration_twin_free_connected():
    for rep in enumerate_tp_representations(7):
        assert rep.classify() is GraphClass.TRIVIALLY_PERFECT
        g = Graph.from_representation(rep)
        assert len(g.components()) == 1
        assert find_strong_twins(g) == []


def test_caterpillar_enumeration_counts():
    # caterpillars on n vertices: 2^(n-4) + 2^(floor(n/2)-2) for n >= 3
    expected = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 10, 8: 20, 9: 36, 10: 72}
    for n, count in expected.items():
        graphs = list(enumerate_caterpillar_graphs(n))
        assert len(graphs) == count


def test_caterpillar_enumeration_all_recognized():
    for g in enumerate_caterpillar_graphs(7):
        assert g.n == 7
        assert g.m == 6
        assert len(g.components()) == 1
        assert len(prepare_caterpillar(g).pieces) == 1


def test_caterpillar_enumeration_non_isomorphic():
    # the leaf-count profile along the spine, up to reversal, is a complete
    # isomorphism invariant for caterpillars
    seen = set()
    for g in enumerate_caterpillar_graphs(8):
        [(_, _, struct)] = prepare_caterpillar(g).pieces
        profile = tuple(len(group) for group in struct.leaves)
        seen.add(min(profile, profile[::-1]))
    assert len(seen) == 20


def test_enumerate_independent_sets_path():
    g = Graph(4, [(1, 2), (2, 3), (3, 4)])
    assert list(enumerate_independent_sets(g, 2)) == [(1, 3), (1, 4), (2, 4)]
    assert list(enumerate_independent_sets(g, 0)) == [()]


def test_enumerate_independent_sets_star():
    g = Graph(4, [(1, 2), (1, 3), (1, 4)])
    assert list(enumerate_independent_sets(g, 2)) == [(2, 3), (2, 4), (3, 4)]
    assert list(enumerate_independent_sets(g, 3)) == [(2, 3, 4)]
