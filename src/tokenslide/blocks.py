"""The colored-string/block layer shared by the proper-interval and the
caterpillar schedulers.

Both pair the i-th blue start with the i-th red target along a line.
Starts and targets go into one string of entries ``(key, BLUE|RED,
item)`` sorted by key, blue first on a tie, where the key places the
entry on the line.  The height profile (+1 blue, -1 red) cuts the
string into blocks at every return to zero, so each block holds both
ends of its own pairs.  Blocks run in an order that respects their
boundaries, and the pairs inside a block travel in one sweep.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Iterable, Iterator

BLUE, RED = 0, 1

Entry = tuple[Any, int, Any]


def split_blocks(entries: Iterable[Entry]) -> list[list[Entry]]:
    """Sort the entries into the colored string and cut it at every
    return to height zero; raises ValueError on an unbalanced string."""
    string = sorted(entries, key=lambda e: (e[0], e[1]))
    blocks: list[list[Entry]] = []
    height = start = 0
    for i, entry in enumerate(string, start=1):
        height += 1 if entry[1] == BLUE else -1
        if height == 0:
            blocks.append(string[start:i])
            start = i
    if height:
        raise ValueError("unbalanced colored string")
    return blocks


def boundary_edges(
    blocks: list[list[Entry]], linked: Callable[[Entry, Entry], bool]
) -> list[tuple[int, int]]:
    """Order constraints ``(earlier, later)`` across block boundaries.

    A red target followed by a blue start means the right block must
    vacate first; the mirrored boundary forces the left block first.
    Same-colored boundaries are free because each color is an
    independent set, and so is every boundary whose closing and opening
    entries ``linked(left, right)`` rejects.
    """
    edges = []
    for i in range(len(blocks) - 1):
        left, right = blocks[i][-1], blocks[i + 1][0]
        if left[1] != right[1] and linked(left, right):
            edges.append((i + 1, i) if left[1] == RED else (i, i + 1))
    return edges


def block_order(k: int, edges: Iterable[tuple[int, int]]) -> tuple[list[int], bool]:
    """Topological order of blocks ``0..k-1`` under ``(earlier, later)``
    edges, lowest index first among the blocks free to run.

    When the edges form a cycle and no block is free, the leftmost
    waiting block runs anyway; the flag reports whether that happened.
    """
    succs: list[list[int]] = [[] for _ in range(k)]
    indeg = [0] * k
    for a, b in edges:
        succs[a].append(b)
        indeg[b] += 1
    heap = [i for i in range(k) if indeg[i] == 0]  # ascending, so a heap
    done = [False] * k
    out: list[int] = []
    broke = False
    while len(out) < k:
        if not heap:
            heap = [done.index(False)]
            broke = True
        i = heappop(heap)
        done[i] = True
        out.append(i)
        for j in succs[i]:
            indeg[j] -= 1
            if indeg[j] == 0 and not done[j]:
                heappush(heap, j)
    return out, broke


def travel(blocks: list[list[Entry]], order: Iterable[int]) -> Iterator[tuple[Any, Any]]:
    """(start item, target item) pairs in emission order.  Within a block
    the j-th blue pairs with the j-th red; a blue-first block runs its
    pairs rightmost first, a red-first block leftmost first."""
    for i in order:
        block = blocks[i]
        starts = [e[2] for e in block if e[1] == BLUE]
        targets = [e[2] for e in block if e[1] == RED]
        if block[0][1] == BLUE:
            starts.reverse()
            targets.reverse()
        yield from zip(starts, targets)
