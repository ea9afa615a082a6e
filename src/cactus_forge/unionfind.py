"""The package's one disjoint-set forest.

Every structure here tracks the graphic matroid behind a cactus: a
triangle set is a cactus exactly when spanned vertices minus components
equals twice its size.  ``DisjointSet`` is the union-find they share.

It unions by size over the elements 0..n-1 and never compresses paths.
Union by size alone keeps every tree at most log2(n) deep, so a find
takes at most that many steps, and without compression a find only
reads the forest: ``find`` and ``labels`` never write.

The move scan needs no union-find: it labels each stage by slicing the
cactus's Euler tour (``TriangularCactus.tour``).
"""

from __future__ import annotations

__all__ = ["DisjointSet"]


class DisjointSet:
    """Union by size over the elements 0..n-1."""

    __slots__ = ("parent", "size")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

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
        return True

    def labels(self) -> list[int]:
        """One label per element, equal exactly for elements of one set:
        its root, as ``find`` gives it.

        One pass over a copy of the parents: each walk up may step
        through entries already set to their root, which shortens it.
        """
        label = self.parent[:]
        for x, r in enumerate(label):
            while label[r] != r:
                r = label[r]
            label[x] = r
        return label

    def copy(self) -> "DisjointSet":
        dup = DisjointSet.__new__(DisjointSet)
        dup.parent = list(self.parent)
        dup.size = list(self.size)
        return dup
