"""Shortest sliding-token schedules on caterpillar trees.

A caterpillar is a tree whose non-leaf vertices form a path, the
spine.  Each spine vertex together with the leaves hanging from it
forms a group; groups are the natural unit of movement because every
walk between groups runs along the spine.

The solver decides reachability through three structural obstructions
and otherwise emits a move-minimal schedule:

* A group whose leaves must hold two or more tokens can never be
  loaded or unloaded, since the last token in (or first token out)
  would pass the spine vertex while another leaf token pins it.  Such
  groups either carry the same tokens on both sides (then they are
  frozen and can be cut out of the graph) or make the instance
  infeasible (TWIN_LEAVES_BLOCKED).

* Leaf tokens can anchor walls: an alternating pattern of occupied
  spine cell, free spine cell, occupied spine cell, ... running from
  one leaf anchor to another freezes every token in between.  The
  frozen region must look identical from the blue and the red side, or
  the instance is infeasible (LOCK_MISMATCH).  Identical regions are
  cut out and the remainder is solved recursively.

* Tokens cannot change connected component, so each component (also
  after cutting) needs equally many blue and red tokens
  (COMPONENT_UNBALANCED).

Scheduling runs on the block layer of ``blocks.py``, keyed by group:
it pairs the i-th blue with the i-th red, cuts the string of starts and
targets into blocks and orders them across their boundaries.  This
module adds its own constraints: borders more than one group apart are
free, a red|red border makes whichever target sits on the spine wait,
and blocks are ordered around standing tokens on bare spine cells.  A
traveler may also find a standing token next to its route and must
make way for itself, parking the bystander on a leaf (or pushing it
down the spine) and letting it return afterwards; this has no
proper-interval counterpart.  Each such detour costs exactly the two
extra moves the distance bound charges for it.  Tokens inside a
rightward block move rightmost-first, leftward blocks leftmost-first.
Counting the tokens of each held group lets the scheduler check a slide
in O(1), whatever the leaf degree, and emit a clear stretch of spine at once.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cache
from typing import AbstractSet, NamedTuple

from .blocks import BLUE, RED, block_order, boundary_edges, split_blocks, travel
from .graphs import Graph, _components
from .results import (
    SolveResult,
    SolverInputError,
    check_tokens,
    no_result,
    yes_result,
)

_MAKE_WAY_LIMIT = 64


class _Unreachable(Exception):
    """Internal signal that a NO answer was found while recursing."""

    def __init__(self, reason: str, witness: tuple[int, ...]):
        super().__init__(reason)
        self.reason = reason
        self.witness = witness


class _Struct(NamedTuple):
    """A piece's spine (in path order, smaller end first), the leaves of
    each spine cell, and the group index of every cell."""

    spine: tuple[int, ...]
    leaves: tuple[tuple[int, ...], ...]
    group: dict[int, int]


def _structure(adj, comp: list[int], cells: AbstractSet[int] | None = None) -> _Struct:
    """Analyse a piece whose cells, ``comp`` in ascending order, induce a
    tree with at least three vertices.

    ``cells`` is their set when the piece is what a cut left of a
    component, and None for a whole component, all of whose neighbours
    lie inside it.  Raises NOT_CATERPILLAR when the non-leaf core is not
    a path.
    """
    if cells is not None:
        adj = {v: [w for w in adj[v] if w in cells] for v in comp}
    core = [v for v in comp if len(adj[v]) >= 2]
    # walk the core (the cells of two or more neighbours) both ways from
    # its smallest vertex; a fork stops the walk short of some core vertex
    halves: list[list[int]] = []
    for nxt in [w for w in adj[core[0]] if len(adj[w]) >= 2] or [None]:
        half, prev, cur = [], core[0], nxt
        while cur is not None:
            half.append(cur)
            ahead = None
            for w in adj[cur]:
                if w != prev and len(adj[w]) >= 2:
                    if ahead is not None:  # a fork
                        ahead = None
                        break
                    ahead = w
            prev, cur = cur, ahead
        halves.append(half)
    path = halves[0][::-1] + [core[0]]
    if len(halves) > 1:
        path += halves[1]
    if len(path) != len(core):
        raise SolverInputError(
            "NOT_CATERPILLAR", "non-leaf vertices do not form a path"
        )
    spine = min(path, path[::-1])  # smaller end first
    group = dict(zip(spine, range(len(spine))))
    # leaves come in ascending order, so each group's tips stay sorted;
    # only the groups that have leaves get a list
    tips: dict[int, list[int]] = {}
    for v in comp:
        if len(adj[v]) == 1:
            i = group[adj[v][0]]
            group[v] = i
            tips.setdefault(i, []).append(v)
    leaves: list[tuple[int, ...]] = [()] * len(spine)
    for i, tip in tips.items():
        leaves[i] = tuple(tip)
    return _Struct(tuple(spine), tuple(leaves), group)


def _leaf_tokens(struct: _Struct, tset) -> dict[int, list[int]]:
    """The tokens of ``tset`` that sit on leaves, keyed by group index."""
    spine, group = struct.spine, struct.group
    tok: dict[int, list[int]] = {}
    for v in tset:
        i = group[v]
        if spine[i] != v:
            tok.setdefault(i, []).append(v)
    return tok


def _mark(struct: _Struct, tset, tok: dict[int, list[int]]) -> set[int]:
    """Locked cells of one caterpillar piece under token set ``tset``,
    whose leaf tokens ``tok`` holds by group.

    A group with two or more leaf tokens is locked outright.  A wall
    starts at a group with a leaf token and walks outward: at odd
    offsets the spine cell must carry a token and the group must be
    bare of leaves (a free leaf would let that token escape), at even
    offsets a leaf token seals the wall and anchors the next segment,
    whose own walk goes on from there.  Free leaves at even offsets are
    merely unusable and do not stop the wall.
    """
    spine, leaves = struct.spine, struct.leaves
    m = len(spine)
    marked: set[int] = set()
    for i, t in tok.items():
        if len(t) >= 2:
            marked.add(spine[i])
            marked.update(t)
    for start in sorted(tok):
        for d in (1, -1):
            j = start + d
            offset = 1
            while 0 <= j < m:
                if offset % 2 == 1:
                    if spine[j] not in tset or leaves[j]:
                        break
                elif j in tok:
                    marked.update(spine[min(start, j):max(start, j) + 1])
                    marked.update(tok[start])
                    marked.update(tok[j])
                    break
                elif spine[j] in tset:
                    break
                j += d
                offset += 1
    return marked


def mark_locked(g: Graph | PreparedCaterpillar, tokens) -> frozenset[int]:
    """Vertices frozen in place by the token set, over all components.

    A token set is stuck (no legal slide exists) exactly when every
    token lies on a locked vertex.  ``g`` may be the graph or its
    ``prepare_caterpillar`` value; a graph raises the structural
    SolverInputError that prepare_caterpillar would.  Tokens must form
    an independent set of the graph; otherwise SolverInputError is
    raised.
    """
    p = g if isinstance(g, PreparedCaterpillar) else prepare_caterpillar(g)
    tset = check_tokens("", tokens, p.graph)
    marked: set[int] = set()
    for (_, _, struct), mine, _ in _by_piece(p, tset, ()):
        if struct is None:  # an isolated vertex
            marked |= mine
        else:
            marked |= _mark(struct, mine, _leaf_tokens(struct, mine))
    return frozenset(marked)


class _Token:
    __slots__ = ("start", "target", "current")

    def __init__(self, start: int, target: int):
        self.start = start
        self.target = target
        self.current = start


class _Scheduler:
    """Emits one piece's schedule, a clear stretch of spine per step."""

    def __init__(self, adj, struct: _Struct, pairs):
        self.adj = adj
        self.spine, self.leaves, self.group = struct
        self.tokens = [_Token(b, r) for b, r in pairs]
        self.occupied = {t.current: t for t in self.tokens}
        self.owner = {t.target: t for t in self.tokens}
        # tokens per held group; the held groups ascending, between bare ends
        self.held = Counter(self.group[t.start] for t in self.tokens)
        self.held_groups = sorted({-1, *self.held, len(self.spine)})
        self.turn: dict[_Token, int] = {}
        self.turn_now = -1
        self.out: list[tuple[int, int]] = []

    # -- movement primitives ------------------------------------------

    def _relocate(self, token: _Token, dst: int) -> None:
        src = token.current
        del self.occupied[src]
        self.occupied[dst] = token
        token.current = dst
        gs, gd = self.group[src], self.group[dst]
        if gs != gd:
            # the token leaves gs bare, past bare groups only: gd takes its place
            self.held[gs] -= 1
            self.held[gd] += 1
            self.held_groups[bisect_left(self.held_groups, gs)] = gd

    def _emit(self, token: _Token, dst: int) -> None:
        src = token.current
        gs, gd = self.group[src], self.group[dst]
        # two cells are adjacent iff their group distance plus leaf count is one
        assert abs(gs - gd) + (src != self.spine[gs]) + (dst != self.spine[gd]) == 1
        assert self._legal(src, dst)
        self._relocate(token, dst)
        self.out.append((src, dst))

    def _pending(self, cell: int) -> bool:
        own = self.owner.get(cell)
        return own is not None and own.current != cell

    def _free_leaves(self, gi: int):
        return [l for l in self.leaves[gi] if l not in self.occupied]

    def _push(self, token: _Token, dirn: int, clean: bool = False) -> bool:
        """Slide ``token`` one spine cell along ``dirn``, shoving a
        same-direction neighbour two cells over out of the way first
        (unless ``clean`` forbids shoving anyone else).  Fails on leaf
        bystanders or at the end of the spine."""
        gi = self.group[token.current] + dirn
        if not 0 <= gi < len(self.spine):
            return False
        q = self.spine[gi]
        assert q not in self.occupied
        for w in self.adj[q]:
            if w == token.current or w not in self.occupied:
                continue
            if clean or self.spine[self.group[w]] != w:
                return False
            if not self._displace(self.occupied[w], dirn):
                return False
        if not self._legal(token.current, q):
            return False
        self._emit(token, q)
        return True

    def _displace(self, token: _Token, dirn: int) -> bool:
        """Make ``token`` vacate its cell, trying the cheapest escapes
        first: advance it toward its own target when the shove happens
        to point that way, park on a leaf of its group, push it along
        the spine without disturbing anyone, borrow a leaf whose owner
        provably arrives later, and only then shove further tokens or
        grab any leaf left."""
        gi = self.group[token.current]
        gt = self.group[token.target]
        if gt == gi:
            tgt = token.target
            if self.spine[gt] != tgt and tgt not in self.occupied:
                self._emit(token, tgt)
                return True
        elif (gt > gi) == (dirn > 0) and self._push(token, dirn):
            return True
        free = self._free_leaves(gi)
        for l in free:
            if not self._pending(l):
                self._emit(token, l)
                return True
        if self._push(token, dirn, clean=True):
            return True
        mine = self.turn.get(token)
        if mine is not None and mine > self.turn_now:
            for l in free:
                own = self.owner[l]
                theirs = self.turn.get(own)
                if theirs is not None and theirs > mine:
                    self._emit(token, l)
                    return True
        if self._push(token, dirn):
            return True
        if free:
            self._emit(token, free[0])
            return True
        return False

    def _make_way(self, traveler: _Token, nxt: int) -> None:
        """Clear the cell ``nxt`` and its neighbourhood so ``traveler``
        can slide there."""
        here = traveler.current
        blocker = self.occupied.get(nxt)
        if blocker is None:
            for w in sorted(self.adj[nxt]):
                if w != here and w in self.occupied:
                    blocker = self.occupied[w]
                    break
        assert blocker is not None
        cell = blocker.current
        assert self.spine[self.group[cell]] == cell, "leaf bystanders cannot occur"
        if cell == nxt:
            dirn = self.group[nxt] - self.group[here]
            if dirn == 0:
                dirn = self.group[traveler.target] - self.group[nxt]
        else:
            dirn = self.group[cell] - self.group[nxt]
        dirn = 1 if dirn > 0 else -1
        # the loop guards raise explicitly, so python -O cannot strip them
        if not self._displace(blocker, dirn):
            raise AssertionError("no room to make way")

    def _route(self, token: _Token) -> list[int]:
        """The cells from the one ``token`` stands on to its target."""
        cur, tgt = token.current, token.target
        gc, gt = self.group[cur], self.group[tgt]
        cells = [cur] if self.spine[gc] != cur else []
        cells += self.spine[gc:gt + 1] if gt >= gc else self.spine[gt:gc + 1][::-1]
        if self.spine[gt] != tgt:
            cells.append(tgt)
        return cells

    def _legal(self, src: int, dst: int) -> bool:
        """Whether ``dst`` is free with no token next to it but ``src``."""
        occupied, spine, g = self.occupied, self.spine, self.group[dst]
        if dst in occupied:
            return False
        if dst != spine[g]:  # a leaf touches its spine cell only
            return spine[g] == src or spine[g] not in occupied
        if self.held[g] > (self.group[src] == g):  # a leaf token of the group
            return False
        return all(c == src or c not in occupied for c in spine[max(g - 1, 0):g + 2])

    def _clear_steps(self, g: int, gt: int) -> int:
        """Legal slides in a row from ``spine[g]`` toward group ``gt``; one
        into group j along d needs j bare and spine cell j + d free."""
        held, d = self.held_groups, 1 if gt > g else -1
        o = held[bisect_left(held, g) + d]
        if 0 <= o < len(self.spine) and self.spine[o] in self.occupied:
            o -= d
        return min((o - d - g) * d, (gt - g) * d)

    def _advance(self, token: _Token) -> None:
        path = self._route(token)
        gt = self.group[token.target]
        i = 1
        while i < len(path):
            g, nxt = self.group[token.current], path[i]
            steps = self._clear_steps(g, gt) if self.group[nxt] != g else 0
            if steps <= 0:
                guard = 0
                while not self._legal(token.current, nxt):
                    self._make_way(token, nxt)
                    guard += 1
                    if guard >= _MAKE_WAY_LIMIT:
                        raise AssertionError("make-way loop did not settle")
                steps = 1
            cells = path[i - 1:i + steps]
            self.out.extend(zip(cells, cells[1:]))
            self._relocate(token, cells[-1])
            i += steps

    # -- block machinery ----------------------------------------------

    def run(self) -> list[tuple[int, int]]:
        first, entries = self._classify()
        for token in first:
            self._emit(token, token.target)
        blocks = split_blocks(entries)
        edges = _border_edges(blocks, self.spine)
        self._standing_edges(blocks, edges)
        # conflicting preferences make a cycle; the leftmost block then runs
        seq, _ = block_order(len(blocks), edges)
        order = [token for token, _ in travel(blocks, seq)]
        self.turn = {t: i for i, t in enumerate(order)}
        for i, token in enumerate(order):
            self.turn_now = i
            self._advance(token)
        self.turn_now = len(order)
        self._sweep()
        return self.out

    def _classify(self):
        """Split tokens into leaf-drops moved first, string entries for
        the block layer, and everything handled by the sweep."""
        first: list[_Token] = []
        entries: list[tuple[int, int, _Token]] = []
        for t in self.tokens:
            if t.start == t.target:
                continue
            gb, gr = self.group[t.start], self.group[t.target]
            if gb == gr:
                if t.start == self.spine[gb]:
                    first.append(t)  # spine to own leaf: always legal now
                    continue
                if t.target == self.spine[gr]:
                    continue  # leaf to own spine: settled by the sweep
            entries.append((gb, BLUE, t))
            entries.append((gr, RED, t))
        return first, entries

    def _standing_edges(self, blocks, edges: list[tuple[int, int]]) -> None:
        """Order blocks around a standing token on a bare spine cell.

        Such a token has no leaf to park on, so a passing traveler
        shoves it one cell toward the far side.  The block over there
        must already be settled if its targets crowd the landing spot,
        and must still be unprocessed if its travelers merely pass by
        it, so that nobody has to shove the parked token a second time.
        A token is shoved from its start while its own block still
        waits, and from its target afterwards; the order constraints
        known before the per-token scan starts tell the two apart.
        """
        if len(blocks) < 2:
            return
        spine, leaves, group = self.spine, self.leaves, self.group
        spans = [(b[0][0], b[-1][0]) for b in blocks]
        # the block of every blue token and of its start cell, and the
        # start and target groups of each block's blue tokens
        home: dict[_Token, int] = {}
        start_cells: dict[int, int] = {}
        members: list[list[tuple[int, int, _Token]]] = [[] for _ in blocks]
        for i, b in enumerate(blocks):
            for _, bit, tok in b:
                if bit == BLUE:
                    home[tok] = i
                    start_cells[tok.start] = i
                    members[i].append((group[tok.start], group[tok.target], tok))
        starts = [{us for us, _, _ in ms} for ms in members]
        # the step against each block's travel; a blue-first block moves right
        back = [-1 if b[0][1] == BLUE else 1 for b in blocks]
        taken = {t.target for t in self.tokens} | {t.start for t in self.tokens}

        def bare(g: int) -> bool:
            return all(l in taken for l in leaves[g])

        def conflict(own, di: int, g: int, d: int) -> None:
            # the other block whose end facing g lies nearest beyond g along d
            _, zi = max(
                ((-d * sp[d < 0], z) for z, sp in enumerate(spans)
                 if (sp[d < 0] - g) * d > 0 and z != own),
                default=(0, None),
            )
            if zi is None or zi == di:
                return
            # zi lies beyond g + d, so that group exists
            gl, gla = g + d, g + 2 * d
            targets = {e[2].target for e in blocks[zi]}
            spine_hit = targets & {spine[j] for j in (gl, gla) if 0 <= j < len(spine)}
            leaf_hit = any(group[c] == gl and spine[gl] != c for c in targets)
            if spine_hit or leaf_hit:
                sitters = {start_cells[l] for l in leaves[gl] if l in start_cells}
                sitters.discard(di)
                # a standing blue on a landing-spot leaf blocks the
                # shove until its own block departs
                for w in sitters:
                    edges.append((w, di))
                if zi not in sitters:
                    edges.append((di, zi))
            elif (gla - spans[zi][d < 0]) * d >= 0:  # zi's travelers pass it by
                edges.append((zi, di))

        # fellow members shove a mate before it departs or after it
        # settles; this does not depend on how whole blocks end up ordered
        for token, own in home.items():
            bk, ts = back[own], group[token.start]
            if spine[ts] == token.start and bare(ts) and ts - bk in starts[own]:
                conflict(own, own, ts, bk)
            gp = group[token.target]
            if spine[gp] == token.target and bare(gp) and any(
                (us - ts) * bk > 0 and ut == gp + bk for us, ut, _ in members[own]
            ):
                conflict(own, own, gp, -bk)

        # the blocks each block precedes under the constraints known
        # before the per-token scan, searched on first use
        succ: list[list[int]] = [[] for _ in blocks]
        for a, b in edges:
            succ[a].append(b)

        @cache
        def later(a: int) -> set[int]:
            seen, todo = set(), list(succ[a])
            while todo:
                if (y := todo.pop()) not in seen:
                    seen.add(y)
                    todo += succ[y]
            return seen

        for token in self.tokens:
            own = home.get(token)
            ts, gt = group[token.start], group[token.target]
            cells = (token.start,) if own is None else (token.start, token.target)
            for phase, cell in enumerate(cells):
                g = group[cell]
                if spine[g] != cell:
                    continue
                for d in (-1, 1):
                    # a shove along the travel direction happens even
                    # when a parking leaf is free, so scan regardless
                    toward = own is not None and phase == 0 and (gt - g) * d > 0
                    if not toward and not bare(g):
                        continue
                    for di, (lo, hi) in enumerate(spans):
                        if not lo <= g - d <= hi or di == own:
                            continue
                        if own is not None:
                            first, then = (own, di) if phase == 0 else (di, own)
                            if then in later(first) and first not in later(then):
                                continue
                        conflict(own, di, g, d)
                        # a mate ahead, or level in a red-first block, whose
                        # route passes the landing spot runs the token's block first
                        if toward and any(
                            u is not token and (us > ts) == (back[own] < 0)
                            and min(us, ut) - 1 <= g + d <= max(us, ut) + 1
                            for us, ut, u in members[own]
                        ):
                            edges.append((own, di))

    def _sweep(self) -> None:
        """Walk stragglers home: leaf-to-spine finishers, parked
        bystanders, and displaced settlers, retried until stable."""
        while True:
            rest = [t for t in self.tokens if t.current != t.target]
            if not rest:
                return
            progress = False
            for token in rest:
                route = self._route(token)
                if all(map(self._legal, route, route[1:])):
                    self.out.extend(zip(route, route[1:]))
                    self._relocate(token, route[-1])
                    progress = True
            if not progress:
                raise AssertionError("final sweep stalled")


def _border_edges(blocks, spine) -> list[tuple[int, int]]:
    """Order constraints across one piece's block borders: the shared
    rules where the border entries sit at most one group apart, and for
    a red|red border one group wide, whichever target sits on the spine
    waits for the other block."""
    edges = boundary_edges(blocks, lambda left, right: right[0] - left[0] <= 1)
    for i in range(len(blocks) - 1):
        (gl, cl, left), (gr, cr, right) = blocks[i][-1], blocks[i + 1][0]
        assert gr != gl or (cl, cr) == (BLUE, RED)
        if gr == gl + 1 and cl == cr == RED:
            if right.target == spine[gr]:
                edges.append((i, i + 1))
            elif left.target == spine[gl]:
                edges.append((i + 1, i))
    return edges


def _piece_moves(adj, piece: _Piece, bset: set[int], rset: set[int],
                 decide: bool) -> list[tuple[int, int]]:
    comp, cells, struct = piece
    if len(bset) != len(rset):
        raise _Unreachable("COMPONENT_UNBALANCED", (comp[0],))
    if bset == rset:
        return []
    if len(cells) == 2:
        (b,) = bset
        (r,) = rset
        return [(b, r)]
    if struct is None:
        struct = _structure(adj, comp, cells)
    spine, leaves, group = struct
    tok_b, tok_r = _leaf_tokens(struct, bset), _leaf_tokens(struct, rset)

    doomed: list[int] = []
    for i in sorted(tok_b.keys() | tok_r.keys()):
        b_i, r_i = set(tok_b.get(i, ())), set(tok_r.get(i, ()))
        if len(b_i) >= 2 or len(r_i) >= 2:
            if b_i != r_i:
                raise _Unreachable("TWIN_LEAVES_BLOCKED", (spine[i],))
            assert spine[i] not in bset and spine[i] not in rset
            doomed.append(i)
    if doomed:
        cut = set()
        for i in doomed:
            cut.add(spine[i])
            cut.update(leaves[i])
        return _recurse(adj, cells - cut, bset, rset, decide)

    locked_b = _mark(struct, bset, tok_b)
    locked_r = _mark(struct, rset, tok_r)
    if locked_b != locked_r:
        raise _Unreachable(
            "LOCK_MISMATCH", tuple(sorted(locked_b ^ locked_r))
        )
    if locked_b:
        assert bset & locked_b == rset & locked_b
        return _recurse(adj, cells - locked_b, bset, rset, decide)

    if decide:
        return []
    # at most one token of a colour per group, so the group index alone
    # orders a colour class totally
    pairs = list(zip(
        sorted(bset, key=group.__getitem__),
        sorted(rset, key=group.__getitem__),
    ))
    return _Scheduler(adj, struct, pairs).run()


def _recurse(adj, cells: AbstractSet[int], bset: set[int], rset: set[int],
             decide: bool) -> list[tuple[int, int]]:
    """Solve what is left of a piece after a cut, piece by piece; the
    pieces get their spine analysis only when their tokens move."""
    out: list[tuple[int, int]] = []
    for comp in _components(adj, cells):
        piece = set(comp)
        out.extend(_piece_moves(adj, (comp, piece, None), bset & piece,
                                rset & piece, decide))
    return out


# a piece's cells in ascending order and as a set, and its analysis
_Piece = tuple[list[int], AbstractSet[int], _Struct | None]


@dataclass(frozen=True, slots=True)
class PreparedCaterpillar:
    """Per-graph analysis shared by every token pair: the graph and its
    components sorted by smallest vertex, each as its sorted cells, its
    cell set and its ``_Struct`` (None below three cells).
    ``piece_of`` maps each vertex to its component's index when there
    is more than one."""

    graph: Graph
    pieces: tuple[_Piece, ...]
    piece_of: dict[int, int] | None


def prepare_caterpillar(g: Graph) -> PreparedCaterpillar:
    """Analyse the graph once; raises the structural SolverInputError
    (CYCLIC, STRONG_TWINS, NOT_CATERPILLAR) that solve_caterpillar would."""
    adj = g.adj
    comps = g.components()
    pieces: list[_Piece] = []
    twins = []
    for comp in comps:
        # a whole component is a tree iff its degrees sum to 2 (size - 1)
        if sum(map(len, map(adj.__getitem__, comp))) != 2 * len(comp) - 2:
            raise SolverInputError(
                "CYCLIC", "graph contains a cycle", (comp[0],)
            )
        if len(comp) == 2:
            twins.append((comp[0], comp[1]))
        elif len(comp) >= 3:
            struct = _structure(adj, comp)
            pieces.append((comp, struct.group.keys(), struct))
        else:
            pieces.append((comp, frozenset(comp), None))
    if twins:
        raise SolverInputError(
            "STRONG_TWINS",
            "two-vertex components are twin pairs",
            tuple(twins),
        )
    piece_of = None
    if len(comps) > 1:
        piece_of = {v: i for i, comp in enumerate(comps) for v in comp}
    return PreparedCaterpillar(g, tuple(pieces), piece_of)


def _by_piece(p: PreparedCaterpillar, blue, red):
    """(piece, its blue tokens, its red tokens) for every piece that
    holds a token, in piece order; one lookup per token."""
    if p.piece_of is None:
        return [(p.pieces[0], set(blue), set(red))] if p.pieces else []
    split: dict[int, tuple[set[int], set[int]]] = {}
    for colour, tokens in enumerate((blue, red)):
        for v in tokens:
            split.setdefault(p.piece_of[v], (set(), set()))[colour].add(v)
    return [(p.pieces[i], *split[i]) for i in sorted(split)]


def solve_caterpillar(
    g: Graph | PreparedCaterpillar, blue, red, decide: bool = False
) -> SolveResult:
    """Shortest slide sequence moving ``blue`` onto ``red`` in a
    caterpillar forest, or a NO answer with reason and witness.

    With ``decide=True`` only the YES/NO answer is computed and
    ``moves`` is None.  ``g`` may be the graph or its
    ``prepare_caterpillar`` value.  On a prepared value, deciding a pair
    of k tokens costs O(k log k) after the token check, unless frozen
    groups or locked walls are cut out: what is left is then reanalysed.
    """
    p = g if isinstance(g, PreparedCaterpillar) else prepare_caterpillar(g)
    blue = check_tokens("blue", blue, p.graph)
    red = check_tokens("red", red, p.graph)
    if len(blue) != len(red):
        return no_result("CARDINALITY_MISMATCH", (len(blue), len(red)))
    adj = p.graph.adj
    moves: list[tuple[int, int]] = []
    try:
        for piece, bset, rset in _by_piece(p, blue, red):
            moves.extend(_piece_moves(adj, piece, bset, rset, decide))
    except _Unreachable as answer:
        return no_result(answer.reason, answer.witness)
    if decide:
        return SolveResult("YES")
    return yes_result(moves)
