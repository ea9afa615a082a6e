"""Swap-based local search for large triangular cacti.

A move removes a set X of cactus triangles (|X| <= t) and adds |X| + 1
candidate triangles so the result is again a valid cactus.  Moves are
enumerated in lexicographic order of (|X|, sorted X ids, sorted Y ids)
and the search applies the first improvement found, which makes every
run reproducible.  The search stops without a final scan once the
cactus reaches the ceiling of ``TriangularCactus.at_ceiling``, where no
move can improve it.

Each removal set X is one stage of the scan.  A stage labels every
vertex with its component in the cactus minus X, lists the free
triangles whose corners carry three distinct labels, and narrows that
list level by level: choosing an add-triangle merges its three labels
into one, and the next level keeps only the later entries whose labels
are still distinct.  ``moves_examined`` counts the free triangles a
per-position walk would visit, one per position of the free order at
each level, whether or not the narrowed list still holds it.

The searcher prunes the add-set enumeration: once the 0-swap stage has
proven the cactus maximal, every add-triangle of a larger move must touch
a component that removing X disturbed.  A triangle whose corners all
avoid those components would sit in three distinct components of the
untouched cactus and so would have been an improving 0-swap already.
``verify_local_optimality`` deliberately skips that pruning and re-walks
the full move space; tests compare the two.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Iterator

from .cactus import TriangularCactus
from .errors import IdentityViolationError, IterationCapError
from .plane_graph import PlaneGraph

__all__ = [
    "SwapMove",
    "SearchConfig",
    "SearchTrace",
    "greedy_initial",
    "find_improving_swap",
    "local_search",
    "verify_local_optimality",
]


@dataclass(frozen=True)
class SwapMove:
    """Remove the cactus triangles in `remove`, add the candidates in `add`."""

    remove: tuple[int, ...]
    add: tuple[int, ...]


@dataclass(frozen=True)
class SearchConfig:
    """t: swap size (1 or 2).  seed: greedy shuffle seed.  iteration_cap
    bounds applied moves; None means floor((n-1)/2), which can never
    trigger since each move raises the triangle count by one."""

    t: int = 2
    seed: int = 0
    iteration_cap: int | None = None


@dataclass(frozen=True)
class SearchTrace:
    initial_delta: int
    final_delta: int
    moves_applied: tuple[SwapMove, ...]
    moves_examined: int
    wall_time_s: float


def greedy_initial(g: PlaneGraph, seed: int = 0) -> TriangularCactus:
    """Maximal cactus from one seed-shuffled greedy pass over the candidates."""
    order = [t.id for t in g.triangles]
    random.Random(seed).shuffle(order)
    c = TriangularCactus(g)
    for tid in order:
        c.try_add_triangle(tid)
    return c


class _MoveScan:
    """One enumeration pass over the (X, Y) move space of a fixed cactus.

    moves() yields improving SwapMoves in lexicographic order.  With
    pruned=False the add-sets range over every candidate (the verifier's
    mode); addability filtering alone keeps that sound, since adding
    triangles only ever merges components, so a rejected candidate stays
    rejected no matter what is added later.

    That same fact lets each level of a stage filter only the tail of
    its parent's list: an entry holds a free triangle's position in the
    free order, its id and its corners' component labels, and choosing a
    triangle relabels its three labels to one in the entries after it.
    Each stage builds a flat label per vertex from the cactus triangles
    it keeps; the cactus itself is only read, never copied.

    examined counts the positions of the free order that each level
    walks past, as if every position were tested: the gaps up to each
    listed entry, plus the rest of the order when a level runs out.
    """

    def __init__(self, g: PlaneGraph, c: TriangularCactus, pruned: bool):
        self.n = g.n
        self.pruned = pruned
        self.verts = [t.vertices for t in g.triangles]
        self.kept = c.triangle_ids
        self.roots = [c._root(v) for v in range(g.n)]
        in_c = set(self.kept)
        free = [t for t in g.triangles if t.id not in in_c]
        # (position in the free order, triangle id, its three corners)
        self.free = [(pos, t.id, *t.vertices) for pos, t in enumerate(free)]
        self.examined = 0

    def moves(self, t: int) -> Iterator[SwapMove]:
        yield from self._stage(())
        if t >= 1:
            ids = self.kept
            for x in ids:
                yield from self._stage((x,))
            if t >= 2:
                for pair in combinations(ids, 2):
                    yield from self._stage(pair)

    def _labels(self, removal: tuple[int, ...]) -> list[int]:
        """One component label per vertex, for the cactus minus `removal`."""
        verts = self.verts
        parent = list(range(self.n))
        for x in self.kept:
            if x not in removal:
                a, b, w = verts[x]
                # Path halving inline: a function call per find costs more
                # than the walk itself on these shallow trees.
                while parent[a] != a:
                    parent[a] = a = parent[parent[a]]
                while parent[b] != b:
                    parent[b] = b = parent[parent[b]]
                while parent[w] != w:
                    parent[w] = w = parent[parent[w]]
                parent[b] = parent[w] = a
        for v in range(self.n):
            r = parent[v]
            while parent[r] != r:
                r = parent[r]
            parent[v] = r
        return parent

    def _stage(self, removal: tuple[int, ...]) -> Iterator[SwapMove]:
        label = self._labels(removal)
        free = self.free
        end = len(free)
        if self.pruned and removal:
            disturbed = {self.roots[self.verts[x][0]] for x in removal}
            touched = bytearray(r in disturbed for r in self.roots)
            free = [f for f in free if touched[f[2]] or touched[f[3]] or touched[f[4]]]
        # Level 0: the free triangles that are addable on their own.
        level = [
            (pos, y, la, lb, lw)
            for pos, y, a, b, w in free
            if (la := label[a]) != (lb := label[b])
            and (lw := label[w]) != la and lw != lb
        ]

        def walk(entries, start: int, need: int, acc: tuple[int, ...]):
            cursor = start
            for i, (pos, y, a, b, w) in enumerate(entries):
                self.examined += pos - cursor + 1
                cursor = pos + 1
                if need == 1:
                    yield acc + (y,)
                    continue
                # Adding y merges components a, b and w into a.
                deeper = []
                for p, z, la, lb, lw in islice(entries, i + 1, None):
                    if la == b or la == w:
                        la = a
                    if lb == b or lb == w:
                        lb = a
                    if lw == b or lw == w:
                        lw = a
                    if la != lb and lb != lw and la != lw:
                        deeper.append((p, z, la, lb, lw))
                yield from walk(deeper, cursor, need - 1, acc + (y,))
            self.examined += end - cursor

        for add in walk(level, 0, len(removal) + 1, ()):
            yield SwapMove(remove=removal, add=add)


def find_improving_swap(
    g: PlaneGraph, c: TriangularCactus, t: int = 2
) -> SwapMove | None:
    """Lexicographically first improving move, or None at a local optimum."""
    scan = _MoveScan(g, c, pruned=True)
    return next(scan.moves(t), None)


def verify_local_optimality(
    g: PlaneGraph, c: TriangularCactus, t: int = 2
) -> tuple[bool, SwapMove | None]:
    """Unpruned re-enumeration of the move space.

    Returns (True, None) when no improving move of size <= t exists,
    otherwise (False, witness move).  Independent of the searcher's
    pruning, so the two can check each other.
    """
    scan = _MoveScan(g, c, pruned=False)
    move = next(scan.moves(t), None)
    return (move is None), move


def apply_move(c: TriangularCactus, move: SwapMove) -> None:
    """Mutate c by one swap; every add must succeed or the move was invalid."""
    for x in move.remove:
        c.remove_triangle(x)
    for y in move.add:
        if not c.try_add_triangle(y):
            raise IdentityViolationError(
                f"swap move promised a valid cactus but add of {y} failed"
            )


def local_search(
    g: PlaneGraph, cfg: SearchConfig = SearchConfig()
) -> tuple[TriangularCactus, SearchTrace]:
    """Run greedy initialization then repeated t-swaps to a local optimum."""
    if cfg.t not in (1, 2):
        raise ValueError(f"swap size must be 1 or 2, got {cfg.t}")
    cap = cfg.iteration_cap if cfg.iteration_cap is not None else max(1, (g.n - 1) // 2)
    if cap < 1:
        raise ValueError(f"iteration cap must be at least 1, got {cap}")

    start = time.perf_counter()
    c = greedy_initial(g, cfg.seed)
    initial = c.delta
    applied: list[SwapMove] = []
    examined = 0
    while not c.at_ceiling:
        scan = _MoveScan(g, c, pruned=True)
        move = next(scan.moves(cfg.t), None)
        examined += scan.examined
        if move is None:
            break
        if len(applied) + 1 > cap:
            raise IterationCapError(cap)
        apply_move(c, move)
        applied.append(move)

    trace = SearchTrace(
        initial_delta=initial,
        final_delta=c.delta,
        moves_applied=tuple(applied),
        moves_examined=examined,
        wall_time_s=time.perf_counter() - start,
    )
    if trace.final_delta != trace.initial_delta + len(applied):
        raise IdentityViolationError("triangle count drifted from the applied moves")
    return c, trace
