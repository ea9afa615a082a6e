"""Swap-based local search for large triangular cacti.

A move removes a set X of cactus triangles (|X| <= t) and adds |X| + 1
candidate triangles so the result is again a valid cactus.  Moves are
enumerated in lexicographic order of (|X|, sorted X ids, sorted Y ids)
and the default pivot applies the first improvement found, which makes
every run reproducible.  The search stops without a final scan once the
cactus reaches the ceiling of ``TriangularCactus.at_ceiling``, where no
move can improve it.

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
from itertools import combinations
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
    """t: swap size (1 or 2).  pivot: "first" applies the lexicographically
    first improving move; "best" scans the whole move space and applies the
    lexicographic minimum (same move by construction, kept as a self-check).
    iteration_cap bounds applied moves; None means floor((n-1)/2), which can
    never trigger since each move raises the triangle count by one."""

    t: int = 2
    seed: int = 0
    pivot: str = "first"
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

    Each stage builds its own union-find from the cactus triangles that
    the stage keeps; the cactus itself is only read, never copied.
    """

    def __init__(self, g: PlaneGraph, c: TriangularCactus, pruned: bool):
        self.g = g
        self.pruned = pruned
        self.verts = [t.vertices for t in g.triangles]
        self.kept = c.triangle_ids
        self.roots = [c._root(v) for v in range(g.n)]
        in_c = set(self.kept)
        self.free = [t.id for t in g.triangles if t.id not in in_c]
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
        g = self.g
        verts = self.verts
        parent = list(range(g.n))
        sizes = [1] * g.n
        trail: list[int] = []

        def find(v: int) -> int:
            while parent[v] != v:
                v = parent[v]
            return v

        def union(a: int, b: int) -> None:
            if sizes[a] < sizes[b]:
                a, b = b, a
            parent[b] = a
            sizes[a] += sizes[b]
            trail.append(b)

        def undo(mark: int) -> None:
            while len(trail) > mark:
                b = trail.pop()
                a = parent[b]
                sizes[a] -= sizes[b]
                parent[b] = b

        for x in self.kept:
            if x not in removal:
                a, b, w = verts[x]
                union(find(a), find(b))
                union(find(a), find(w))
        trail.clear()  # the kept triangles are never undone

        touched = None
        if self.pruned and removal:
            disturbed = {self.roots[verts[x][0]] for x in removal}
            touched = bytearray(r in disturbed for r in self.roots)

        free = self.free
        need = len(removal) + 1
        acc: list[int] = []

        def extend(start: int) -> Iterator[tuple[int, ...]]:
            slot = need - len(acc)
            for idx in range(start, len(free)):
                y = free[idx]
                a, b, w = verts[y]
                self.examined += 1
                if touched is not None and not (touched[a] or touched[b] or touched[w]):
                    continue
                ra, rb, rw = find(a), find(b), find(w)
                if ra == rb or rb == rw or ra == rw:
                    continue
                mark = len(trail)
                union(ra, rb)
                union(find(a), rw)
                acc.append(y)
                if slot == 1:
                    yield tuple(acc)
                else:
                    yield from extend(idx + 1)
                acc.pop()
                undo(mark)

        for add in extend(0):
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
    if cfg.pivot not in ("first", "best"):
        raise ValueError(f'pivot must be "first" or "best", got {cfg.pivot!r}')
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
        if cfg.pivot == "first":
            move = next(scan.moves(cfg.t), None)
        else:
            found = list(scan.moves(cfg.t))
            move = min(found, key=lambda m: (len(m.remove), m.remove, m.add), default=None)
            if found and move != found[0]:
                raise IdentityViolationError(
                    "move enumeration is not in lexicographic order"
                )
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
