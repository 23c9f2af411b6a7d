"""Named graph families used as benchmark instances and extremal examples,
plus seeded random-graph helpers for test corpora.

Vertex layouts are documented per generator so ids are stable: grids and
walls are row-major, fans put the apex last, complete bipartite graphs put
the left side first.
"""

from __future__ import annotations

import itertools
import random

from .decomp import TreePartition
from .graph import Graph


def gen_grid(m: int) -> Graph:
    """m-by-m grid; vertex (i, j) has id i*m + j."""
    if m < 1:
        raise ValueError("m must be >= 1")
    edges = [(v, v + 1) for v in range(m * m) if (v + 1) % m]
    return Graph(m * m, edges + [(v, v + m) for v in range(m * m - m)])


def gen_wall(m: int) -> Graph:
    """m-by-m wall: the grid with vertical edges (i,j)-(i+1,j) removed for
    i + j even.  Row-major ids as in gen_grid."""
    if m < 1:
        raise ValueError("m must be >= 1")
    edges = [(v, v + 1) for v in range(m * m) if (v + 1) % m]
    return Graph(m * m, edges + [(v, v + m) for v in range(m * m - m) if (v // m + v % m) % 2])


def gen_fan(m: int) -> Graph:
    """Path of order m plus an apex adjacent to every path vertex; the apex
    has id m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    edges = [(i, i + 1) for i in range(m - 1)]
    edges += [(i, m) for i in range(m)]
    return Graph(m + 1, edges)


def gen_complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with the left side on ids 0..a-1."""
    if a < 0 or b < 0:
        raise ValueError("sides must be nonnegative")
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def gen_multiple_tree(tree: Graph, m: int) -> Graph:
    """Replace every edge of a tree by m parallel length-2 paths.

    Each tree edge (u, v) gains m new middle vertices adjacent to both u
    and v; middles are numbered from tree.n on, edge by edge in
    lexicographic order."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if tree.n > 0 and tree.m != tree.n - 1:
        raise ValueError("input is not a tree")
    edges = []
    nxt = tree.n
    for u, v in tree.edges():
        for _ in range(m):
            edges.append((u, nxt))
            edges.append((nxt, v))
            nxt += 1
    return Graph(nxt, edges)


def explicit_k3m_partition(m: int) -> TreePartition:
    """Width-3 tree-partition of K_{3,m}: the 3-side in the root bag, each
    right-side vertex in its own child bag."""
    if m < 0:
        raise ValueError("m must be >= 0")
    bags = [[0, 1, 2]] + [[3 + j] for j in range(m)]
    edges = [(0, 1 + j) for j in range(m)]
    return TreePartition(bags, edges, root=0)


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) with a fixed seed."""
    rnd = random.Random(seed)
    edges = [e for e in itertools.combinations(range(n), 2) if rnd.random() < p]
    return Graph(n, edges)


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random recursive tree: vertex i attaches to a random earlier
    vertex."""
    rnd = random.Random(seed)
    return Graph(n, [(rnd.randrange(i), i) for i in range(1, n)])
