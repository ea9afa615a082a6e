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
list level by level.  The labels come from one Euler tour of the
cactus per scan: removing X splits off slices of the tour, so a stage
copies the cactus's labels and relabels two to four slices.  In the
narrowing, choosing an add-triangle merges its three labels into one,
and the next level keeps only the later entries whose labels are still
distinct.  ``moves_examined`` counts the free triangles a
per-position walk would visit, one per position of the free order at
each level, whether or not the narrowed list still holds it.

The search and its final no-move scan run this one scan, and so does
``verify_local_optimality`` below the ceiling; at the ceiling the
verifier certifies the cactus without scanning.  The scan needs no
pruning of the add-sets: the 0-swap stage runs first, and once it finds
no move the cactus is maximal.  So every free triangle has two corners
in one component of the cactus, and when no corner lies in a component
that X splits, those two keep one label and level 0 already rejects the
triangle.  Tests check the scan, and the verifier at the ceiling,
against an independent per-position walk.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Iterator

from .cactus import TriangularCactus
from .errors import IdentityViolationError
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
    """t: swap size (1 or 2).  seed: greedy shuffle seed.

    The search needs no cap on applied moves: each raises the triangle
    count by exactly one, and it stops at the ceiling of
    ``TriangularCactus.at_ceiling``."""

    t: int = 2
    seed: int = 0


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

    moves() yields improving SwapMoves in lexicographic order.  The
    add-sets range over every free candidate; addability filtering alone
    keeps that sound, since adding triangles only ever merges
    components, so a rejected candidate stays rejected no matter what is
    added later.

    That same fact lets each level of a stage filter only the tail of
    its parent's list: an entry holds a free triangle's position in the
    free order, its id and its corners' component labels, and choosing a
    triangle relabels its three labels to one in the entries after it.

    Labels live on the cactus's Euler tour (``TriangularCactus.tour``):
    corners are stored as tour positions, and the cactus's own labels
    are the tour's ``base``.  Removing a triangle splits off the subtrees
    of its two child corners, each one slice of the tour, so a stage's
    labels are a copy of ``base`` plus two to four slice assignments
    (``EulerTour.labels_without``).  The cactus is only read, never
    copied.

    examined counts the positions of the free order that each level
    walks past, as if every position were tested: the gaps up to each
    listed entry, plus the rest of the order when a level runs out.
    """

    def __init__(self, g: PlaneGraph, c: TriangularCactus):
        self.kept = c.triangle_ids
        self.tour = c.tour()
        at = self.tour.pos
        in_c = set(self.kept)
        free = [t for t in g.triangles if t.id not in in_c]
        # (position in the free order, triangle id, its corners' tour positions)
        self.free = [
            (i, t.id, at[t.vertices[0]], at[t.vertices[1]], at[t.vertices[2]])
            for i, t in enumerate(free)
        ]
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

    def _stage(self, removal: tuple[int, ...]) -> Iterator[SwapMove]:
        label = self.tour.labels_without(removal)
        free = self.free
        # Level 0: the free triangles that are addable on their own.
        level = [
            (pos, y, la, lb, lw)
            for pos, y, a, b, w in free
            if (la := label[a]) != (lb := label[b])
            and (lw := label[w]) != la and lw != lb
        ]

        for add in self._walk(level, 0, len(removal) + 1, (), len(free)):
            yield SwapMove(remove=removal, add=add)

    # A method, not a closure inside _stage: a nested generator that calls
    # itself refers to itself through its closure cell, a reference cycle
    # that keeps the scan's lists alive until the cyclic collector runs.
    def _walk(self, entries, start: int, need: int, acc: tuple[int, ...], end: int):
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
            yield from self._walk(deeper, cursor, need - 1, acc + (y,), end)
        self.examined += end - cursor


def find_improving_swap(
    g: PlaneGraph, c: TriangularCactus, t: int = 2
) -> SwapMove | None:
    """Lexicographically first improving move, or None at a local optimum."""
    return next(_MoveScan(g, c).moves(t), None)


def verify_local_optimality(
    g: PlaneGraph, c: TriangularCactus, t: int = 2
) -> tuple[bool, SwapMove | None]:
    """(True, None) when no improving move of size <= t exists, otherwise
    (False, the move ``find_improving_swap`` returns) as a witness.

    A cactus at the ceiling of ``TriangularCactus.at_ceiling`` is a
    maximum cactus, so no move can improve it and no scan runs; below
    the ceiling the verifier runs the search's move scan."""
    if c.at_ceiling:
        return True, None
    move = find_improving_swap(g, c, t)
    return move is None, move


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

    start = time.perf_counter()
    c = greedy_initial(g, cfg.seed)
    initial = c.delta
    applied: list[SwapMove] = []
    examined = 0
    while not c.at_ceiling:
        scan = _MoveScan(g, c)
        move = next(scan.moves(cfg.t), None)
        examined += scan.examined
        if move is None:
            break
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
