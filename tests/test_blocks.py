"""Tests for the colored-string/block layer shared by the proper and
caterpillar schedulers, and for the caterpillar's own border rules on
top of it.  Proper-keyed strings are covered in test_proper.py."""

import pytest

from tokenslide.blocks import BLUE, RED, block_order, boundary_edges, split_blocks, travel
from tokenslide.caterpillar import _border_edges, _Token


class Item:
    """An entry item that cannot be ordered, so sorting must use keys."""

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name


def always(left, right):
    return True


class TestSplitBlocks:
    def test_blue_first_on_a_tie(self):
        a, b = Item("a"), Item("b")
        (block,) = split_blocks([(5, RED, b), (5, BLUE, a)])
        assert block == [(5, BLUE, a), (5, RED, b)]

    def test_cut_at_each_return_to_zero(self):
        entries = [(1, BLUE, 1), (2, RED, 2), (4, BLUE, 4), (3, RED, 3)]
        assert split_blocks(entries) == [
            [(1, BLUE, 1), (2, RED, 2)],
            [(3, RED, 3), (4, BLUE, 4)],
        ]

    def test_unbalanced_raises(self):
        with pytest.raises(ValueError):
            split_blocks([(1, BLUE, 1), (2, RED, 2), (3, BLUE, 3)])


class TestBoundaryEdges:
    # blocks as (first color, last color) pairs over keys 1..
    @staticmethod
    def blocks(*colors):
        out, key = [], 0
        for first, last in colors:
            out.append([(key + 1, first, None), (key + 2, last, None)])
            key += 2
        return out

    def test_red_then_blue_puts_the_right_block_first(self):
        assert boundary_edges(self.blocks((BLUE, RED), (BLUE, RED)), always) == [(1, 0)]

    def test_blue_then_red_puts_the_left_block_first(self):
        assert boundary_edges(self.blocks((RED, BLUE), (RED, BLUE)), always) == [(0, 1)]

    def test_same_color_boundaries_are_free(self):
        blocks = self.blocks((BLUE, RED), (RED, BLUE), (BLUE, RED))
        assert boundary_edges(blocks, always) == []

    def test_unlinked_boundary_is_free(self):
        blocks = self.blocks((BLUE, RED), (BLUE, RED), (BLUE, RED))
        assert boundary_edges(blocks, lambda l, r: l[0] != 2) == [(2, 1)]


class TestBlockOrder:
    def test_lowest_index_first(self):
        assert block_order(4, [(3, 1), (2, 0)]) == ([2, 0, 3, 1], False)

    def test_no_edges(self):
        assert block_order(3, []) == ([0, 1, 2], False)
        assert block_order(0, []) == ([], False)

    def test_cycle_runs_the_leftmost_waiting_block_and_reports_it(self):
        # block 0 is free; blocks 1 and 2 wait for each other
        assert block_order(3, [(1, 2), (2, 1)]) == ([0, 1, 2], True)
        # nothing is free: blocks 0 and 1 are forced, and block 1 frees 2
        assert block_order(3, [(1, 2), (2, 1), (2, 0)]) == ([0, 1, 2], True)


class TestTravel:
    def test_blue_first_rightmost_first_red_first_leftmost_first(self):
        blocks = split_blocks(
            [(1, BLUE, "b1"), (2, BLUE, "b2"), (3, RED, "r1"), (4, RED, "r2"),
             (5, RED, "r3"), (6, RED, "r4"), (7, BLUE, "b3"), (8, BLUE, "b4")]
        )
        assert list(travel(blocks, [1, 0])) == [
            ("b3", "r3"), ("b4", "r4"), ("b2", "r2"), ("b1", "r1"),
        ]


# caterpillar border rules: a spine 11..15 (groups 0..4) whose groups
# carry leaves 21..25; entries are keyed by group and carry _Token items
SPINE = (11, 12, 13, 14, 15)


def piece_blocks(*pairs):
    """Blocks of caterpillar tokens given as (start, target) cells."""
    entries = []
    for start, target in pairs:
        t = _Token(start, target)
        entries += [((start - 1) % 10, BLUE, t), ((target - 1) % 10, RED, t)]
    return split_blocks(entries)


class TestCaterpillarBorders:
    def test_groups_two_apart_are_unconstrained(self):
        # red at group 1 closes the left block, blue opens the right one
        near = piece_blocks((11, 12), (13, 14))
        far = piece_blocks((11, 12), (14, 15))
        assert [b[0][0] for b in near] == [0, 2]
        assert _border_edges(near, SPINE) == [(1, 0)]
        assert [b[0][0] for b in far] == [0, 3]
        assert _border_edges(far, SPINE) == []

    def test_red_red_border_waits_for_the_spine_target(self):
        # the left block settles on group 1 and the right one, a
        # leftward block, on group 2: a spine target there must wait
        right_spine = piece_blocks((11, 22), (14, 13))
        assert (right_spine[0][-1][1], right_spine[1][0][1]) == (RED, RED)
        assert _border_edges(right_spine, SPINE) == [(0, 1)]
        left_spine = piece_blocks((11, 12), (14, 23))
        assert _border_edges(left_spine, SPINE) == [(1, 0)]
        # both targets are leaves: the border is free
        assert _border_edges(piece_blocks((11, 22), (14, 23)), SPINE) == []

    def test_cyclic_constraints_run_the_leftmost_block(self):
        blocks = piece_blocks((11, 12), (13, 14))
        # a standing-token rule asking for the opposite order closes a cycle
        edges = _border_edges(blocks, SPINE) + [(0, 1)]
        assert block_order(len(blocks), edges) == ([0, 1], True)
