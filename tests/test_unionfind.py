"""The package's one union-find, checked against a breadth-first search."""

from collections import deque

from hypothesis import given, strategies as st

from cactus_forge.unionfind import DisjointSet


def _bfs_components(n, pairs):
    """Component id per element of the graph on 0..n-1 with edges `pairs`."""
    adj = [[] for _ in range(n)]
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    comp = [-1] * n
    count = 0
    for s in range(n):
        if comp[s] >= 0:
            continue
        comp[s] = count
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if comp[y] < 0:
                    comp[y] = count
                    queue.append(y)
        count += 1
    return comp, count


def _same_partition(labels, comp):
    n = len(labels)
    return all(
        (labels[a] == labels[b]) == (comp[a] == comp[b])
        for a in range(n)
        for b in range(n)
    )


def _depth(uf, x):
    d = 0
    while uf.parent[x] != x:
        x = uf.parent[x]
        d += 1
    return d


@st.composite
def _union_sequences(draw):
    n = draw(st.integers(1, 30))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60))
    return n, pairs


@given(_union_sequences())
def test_unions_match_bfs(case):
    n, pairs = case
    uf = DisjointSet(n)
    count = n
    for i, (a, b) in enumerate(pairs):
        comp, new_count = _bfs_components(n, pairs[: i + 1])
        assert uf.union(a, b) == (new_count < count)
        count = new_count
        assert _same_partition(uf.labels(), comp)
    # Union by size alone keeps every tree at most log2(n) deep.
    assert max(_depth(uf, x) for x in range(n)) <= n.bit_length() - 1


def test_unions_succeed_n_minus_one_times():
    n = 17
    uf = DisjointSet(n)
    merged = 0
    for a in range(n):
        for b in range(n):
            merged += uf.union(a, b)
    assert merged == n - 1
    assert len(set(uf.labels())) == 1
    assert uf.size[uf.find(0)] == n


def test_copy_is_independent():
    uf = DisjointSet(4)
    uf.union(0, 1)
    dup = uf.copy()
    dup.union(2, 3)
    dup.union(0, 2)
    assert len(set(dup.labels())) == 1
    labels = uf.labels()
    assert labels[0] == labels[1] and len(set(labels)) == 3
    assert uf.size[uf.find(0)] == 2


@given(_union_sequences())
def test_labels_are_the_roots(case):
    # labels() takes one pass over the parents; it must give find's root.
    n, pairs = case
    uf = DisjointSet(n)
    for a, b in pairs:
        uf.union(a, b)
        assert uf.labels() == [uf.find(x) for x in range(n)]
