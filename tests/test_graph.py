import random

import pytest

from treepart.decomp import TreePartition, Violation, verify_tp
from treepart.families import random_graph
from treepart.graph import (
    Graph,
    biconnected_components,
    connected_components,
    part_index,
    quotient,
    subdivide,
    subgraph,
    tree_bfs,
)


def test_construction_dedup_and_sort():
    g = Graph(4, [(3, 0), (0, 3), (1, 2)])
    assert g.m == 2
    assert g.edges() == [(0, 3), (1, 2)]
    assert g.adj[0] == [3]


def test_construction_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(2, [(1, 1)])


def test_construction_rejects_a_negative_vertex_count():
    with pytest.raises(ValueError, match="negative"):
        Graph(-1)
    assert Graph(0).n == 0


def test_degree_and_has_edge():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert g.degree(0) == 3
    assert g.max_degree() == 3
    assert g.has_edge(0, 2) and g.has_edge(2, 0)
    assert not g.has_edge(1, 2)


def test_induced_subgraph():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    sub, old = g.induced([1, 2, 3])
    assert old == [1, 2, 3]
    assert sub.edges() == [(0, 1), (1, 2)]


def test_induced_matches_adjacency_scan_on_random_subsets():
    """Same subgraph as the plain scan of every member's adjacency list,
    also where a hub's degree exceeds the subset size."""
    rng = random.Random(5)
    hub = Graph(301, [(0, i) for i in range(1, 301)] + [(i, i + 1) for i in range(1, 300)])
    hubs_scanned = 0
    for g in [hub] + [random_graph(40, p, s) for s in range(20) for p in (0.05, 0.3)]:
        for _ in range(15):
            sub = rng.sample(range(g.n), rng.randint(1, min(g.n, 30)))
            if g is hub and rng.random() < 0.5:
                sub = list(set(sub) | {0})
            old = sorted(sub)
            new_id = {v: i for i, v in enumerate(old)}
            keep = set(old)
            want = Graph(
                len(old),
                [(new_id[u], new_id[v]) for u in old for v in g.adj[u] if u < v and v in keep],
            )
            got, got_old = g.induced(sub)
            assert (got, got_old, got.m) == (want, old, want.m)
            hubs_scanned += any(g.degree(v) > len(old) for v in old)
    assert hubs_scanned > 20


def test_connected_components_sorted():
    g = Graph(5, [(3, 4), (0, 1)])
    assert connected_components(g) == [[0, 1], [2], [3, 4]]


def test_biconnected_components_bowtie():
    # two triangles sharing vertex 2
    g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    bf = biconnected_components(g)
    blocks = sorted(sorted(b) for b in bf.blocks)
    assert blocks == [[0, 1, 2], [2, 3, 4]]
    assert bf.cutvertices == [2]


def test_biconnected_components_bridges():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    bf = biconnected_components(g)
    assert sorted(sorted(b) for b in bf.blocks) == [[0, 1], [1, 2], [2, 3]]
    assert bf.cutvertices == [1, 2]
    # each non-root block records the cutvertex toward the root
    roots = bf.roots()
    assert len(roots) == 1
    for b in range(len(bf.blocks)):
        if b not in roots:
            assert bf.parent_cut[b] in bf.blocks[b]


def test_block_forest_read_off_the_search():
    # vertex 0 closes three blocks: the bridge 0-2, the 4-cycle 0-5-1-7
    # and the bridge 0-8; the root block is the least by content, which is
    # neither the first nor the last closed
    g = Graph(9, [(0, 2), (0, 5), (5, 1), (1, 7), (7, 0), (0, 8)])
    bf = biconnected_components(g)
    assert bf.blocks == [[0, 2], [0, 1, 5, 7], [0, 8]]
    assert bf.roots() == [1]
    assert bf.parent_cut == [0, None, 0]
    assert bf.children() == [[], [0, 2], []]
    assert bf.cutvertices == [0]
    assert bf.home == [1, 1, 0, None, None, 1, None, 1, 2]
    # each edge in its one block, in g.edges() order
    assert bf.block_edges(g) == [[(0, 2)], [(0, 5), (0, 7), (1, 5), (1, 7)], [(0, 8)]]
    assert [bf.block_of(1, 0), bf.block_of(7, 5), bf.block_of(8, 0)] == [1, 1, 2]
    # pairs split by vertex 0, and pairs with an isolated vertex
    for u, v in ((2, 5), (2, 8), (1, 8), (8, 7), (3, 0), (2, 4), (3, 6)):
        assert bf.block_of(u, v) is None, (u, v)


def test_whole_graph_is_not_copied():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert g.induced(range(4))[0] is g
    assert g.induced([3, 1, 0, 2]) == (g, [0, 1, 2, 3])
    assert subgraph(g, [0, 1, 2, 3], [])[0] is g
    q, part_of = quotient(g, [[0], [1], [2], [3]])
    assert q is g and part_of == [0, 1, 2, 3]
    # singletons in another order still relabel
    q, part_of = quotient(g, [[1], [0], [2], [3]])
    assert q is not g and part_of == [1, 0, 2, 3]
    assert q.edges() == [(0, 1), (0, 2), (1, 3), (2, 3)]


def test_subdivide_paths_and_numbering():
    g = Graph(3, [(0, 1), (1, 2)])
    g2, smap = subdivide(g, {(0, 1): 2})
    assert g2.n == 5
    assert smap.paths[(0, 1)] == [3, 4]
    assert smap.paths[(1, 2)] == []
    assert g2.has_edge(0, 3) and g2.has_edge(3, 4) and g2.has_edge(4, 1)
    assert not g2.has_edge(0, 1)


def test_subdivide_rejects_non_edges():
    g = Graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        subdivide(g, {(0, 0): 1})
    with pytest.raises(ValueError):
        subdivide(g, {(0, 1): -1})


def test_quotient_drops_loops_and_multiplicities():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    q, part_of = quotient(g, [[0, 1], [2, 3]])
    assert q.n == 2
    assert q.edges() == [(0, 1)]
    assert part_of == [0, 0, 1, 1]


def test_part_index_stops_at_the_first_repeat():
    assert part_index([[0, 2], [1, 2], [1, 9]], 4) == ([0, 1, 0, -1], 2)  # 9 goes unread
    with pytest.raises(ValueError, match="vertex 9 is out of range"):
        part_index([[0, 9], [0]], 4)
    assert part_index([], 3) == ([-1, -1, -1], None)
    # every reader names the first repeat: a scan that went on would name 2
    g = Graph(3, [(0, 1), (1, 2)])
    tp = TreePartition([[0, 1], [1, 2], [2]], [(0, 1), (1, 2)])
    assert verify_tp(g, tp) == Violation("vertex-in-two-bags", 1)


def test_quotient_rejects_part_vertices_out_of_range():
    g = Graph(3, [(0, 1), (1, 2)])
    for v in (-1, 3):
        with pytest.raises(ValueError, match=f"vertex {v} is out of range"):
            quotient(g, [[0, 1], [v]])


def test_connected_components_of_a_vertex_subset():
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)])
    # dropping 1 and 5 splits both paths; order is by minimum vertex
    assert connected_components(g, {6, 0, 2, 3, 4}) == [[0], [2, 3], [4], [6]]
    assert connected_components(g, []) == []
    assert connected_components(g, range(7)) == connected_components(g)


def test_connected_components_rejects_vertices_out_of_range():
    # ids outside the graph are named, not read as other vertices
    g = Graph(4, [(0, 1), (2, 3)])
    for vertices, v in (([0, -1], -1), ([0, 7], 7)):
        with pytest.raises(ValueError, match=f"vertex {v} is out of range"):
            connected_components(g, vertices)


def test_connected_components_through_hubs_match_union_find():
    # vertices of degree above 16 take their unvisited neighbours in one
    # set intersection; with a vertex subset, some of those neighbours are
    # outside it
    rng = random.Random(9)
    for i in range(60):
        n = rng.randint(20, 80)
        edges = random_graph(n, 0.02, 600 + i).edges()
        for h in rng.sample(range(n), rng.randint(1, 4)):
            edges += [(h, v) for v in rng.sample(range(n), rng.randint(17, n - 1)) if v != h]
        g = Graph(n, edges)
        keep = set(rng.sample(range(n), rng.randint(1, n))) if i % 2 else set(range(n))
        rep = {v: v for v in keep}

        def find(x):
            while rep[x] != x:
                x = rep[x]
            return x

        for u, v in edges:
            if u in keep and v in keep:
                rep[find(u)] = find(v)
        want = {}
        for v in sorted(keep):
            want.setdefault(find(v), []).append(v)
        assert connected_components(g, keep) == sorted(want.values()), i


def test_tree_bfs_parent_and_order():
    #        3
    #      / | \
    #     5  0  1
    #    /      \
    #   2        4
    adj = [[3], [4, 3], [5], [5, 0, 1], [1], [2, 3]]
    parent, order, depth = tree_bfs(adj, 3)
    assert order == [3, 5, 0, 1, 2, 4]  # neighbors in list order
    assert parent == [3, 3, 5, -1, 1, 3]
    assert depth == [1, 1, 2, 0, 2, 1]
    parent, order, _ = tree_bfs([sorted(a) for a in adj], 3)
    assert order == [3, 0, 1, 5, 4, 2]
    # unreached nodes keep parent and depth -1 and stay out of the order
    assert tree_bfs([[1], [0], []], 0) == ([-1, 0, -1], [0, 1], [0, 1, -1])
    # no node is a root of a nonempty list outside its range; an empty one has none
    for root in (-1, 3):
        with pytest.raises(ValueError, match="is not a node"):
            tree_bfs([[1], [0], []], root)
    assert tree_bfs([], 0) == ([], [], [])
