"""The package's one disjoint-set forest.

Every structure here tracks the graphic matroid behind a cactus: a
triangle set is a cactus exactly when spanned vertices minus components
equals twice its size.  ``DisjointSet`` is the union-find they share.

It unions by size over the elements 0..n-1 and never compresses paths,
and it keeps a trail of the merges it made:

* without path compression, ``undo`` restores exactly the state before
  the last successful union, which rollback searches need;
* union by size alone keeps every tree at most log2(n) deep;
* each successful union pushes one trail entry, so the trail never
  holds more than n - 1 of them.

The move scan needs no union-find: it labels each stage by slicing the
cactus's Euler tour (``TriangularCactus.tour``).
"""

from __future__ import annotations

__all__ = ["DisjointSet"]


class DisjointSet:
    """Union by size with an undo trail over the elements 0..n-1."""

    __slots__ = ("parent", "size", "trail")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.trail: list[int] = []

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of a and b; False when they were already one."""
        a, b = self.find(a), self.find(b)
        if a == b:
            return False
        size = self.size
        if size[a] < size[b]:
            a, b = b, a
        self.parent[b] = a
        size[a] += size[b]
        self.trail.append(b)
        return True

    def undo(self) -> None:
        """Reverse the most recent successful union still on the trail."""
        b = self.trail.pop()
        a = self.parent[b]
        self.size[a] -= self.size[b]
        self.parent[b] = b

    def labels(self) -> list[int]:
        """One label per element, equal exactly for elements of one set."""
        return [self.find(x) for x in range(len(self.parent))]

    def copy(self) -> "DisjointSet":
        dup = DisjointSet.__new__(DisjointSet)
        dup.parent = list(self.parent)
        dup.size = list(self.size)
        dup.trail = list(self.trail)
        return dup
