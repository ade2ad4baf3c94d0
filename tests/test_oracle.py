"""Brute-force BFS reference behaviour, pinned on hand-checked instances."""

from tokenslide.graphs import Graph, validate_sequence
from tokenslide.oracle import SlideSpace, bfs, slide_neighbors, state_key


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def star_graph(leaves):
    return Graph(leaves + 1, [(1, i) for i in range(2, leaves + 2)])


def is_stuck(g, tokens):
    """No legal slide leaves the token set."""
    return not slide_neighbors(g, state_key(tokens))


def test_neighbors_single_token_p3():
    g = path_graph(3)
    out = slide_neighbors(g, (2,))
    assert sorted(out) == [(1,), (3,)]


def test_neighbors_two_leaves_of_star_stuck():
    g = star_graph(3)
    assert slide_neighbors(g, (2, 3)) == []
    assert is_stuck(g, (2, 3))


def test_neighbors_p4_blocked_slides():
    g = path_graph(4)
    out = slide_neighbors(g, (1, 3))
    assert out == [(1, 4)]


def test_single_token_never_stuck():
    assert not is_stuck(path_graph(2), (1,))
    assert not is_stuck(star_graph(4), (1,))


def test_bfs_identity():
    res = bfs(path_graph(3), [2], [2])
    assert res.reachable
    assert res.distance == 0
    assert res.moves == ()


def test_bfs_p8_distance_7():
    g = path_graph(8)
    res = bfs(g, [1], [8])
    assert res.distance == 7
    assert validate_sequence(g, [1], [8], res.moves).ok


def test_bfs_unreachable_star():
    g = star_graph(3)
    res = bfs(g, [2, 3], [3, 4])
    assert res.status == "UNREACHABLE"
    assert not res.reachable


def test_bfs_p4_swap_pair():
    g = path_graph(4)
    res = bfs(g, [1, 3], [2, 4])
    assert res.distance == 2
    assert validate_sequence(g, [1, 3], [2, 4], res.moves).ok


def test_bfs_cardinality_mismatch_unreachable():
    assert bfs(path_graph(4), [1], [2, 4]).status == "UNREACHABLE"


def test_bfs_symmetry():
    g = path_graph(6)
    fwd = bfs(g, [1, 3], [4, 6])
    bwd = bfs(g, [4, 6], [1, 3])
    assert fwd.distance == bwd.distance


def test_bfs_cap_exceeded():
    res = bfs(path_graph(8), [1], [8], cap=3)
    assert res.status == "CAP_EXCEEDED"


def test_locked_path_stuck():
    # spine 1-2-3 with end leaves 4 and 5; tokens on leaf, middle, leaf
    g = Graph(5, [(1, 2), (2, 3), (1, 4), (3, 5)])
    assert is_stuck(g, (2, 4, 5))


def test_slide_space_matches_bfs():
    g = path_graph(6)
    space = SlideSpace(g)
    assert space.distance([1, 3], [4, 6]) == bfs(g, [1, 3], [4, 6]).distance
    assert space.distance([2, 4], [2, 4]) == 0
    assert space.distance((2, 5), (1, 3)) == bfs(g, [2, 5], [1, 3]).distance


def test_slide_space_unreachable_none():
    g = star_graph(3)
    assert SlideSpace(g).distance((2, 3), (3, 4)) is None
