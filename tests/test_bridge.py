import tracemalloc

import pytest

from treepart.bridge import tcd_to_subdivision_tp, tp_lift_subdivision
from treepart.decomp import (
    TreeCutDecomposition,
    TreePartition,
    Violation,
    verify_tcd,
    verify_tp,
)
from treepart.families import random_graph
from treepart.graph import Graph, subdivide


def test_from_tcd_k2_example():
    g = Graph(2, [(0, 1)])
    tcd = TreeCutDecomposition([[0], [1]], [(0, 1)], root=0)
    g2, smap, tp = tcd_to_subdivision_tp(g, tcd)
    assert g2.n == 3
    assert smap.paths[(0, 1)] == [2]
    assert verify_tp(g2, tp) == 2


def test_from_tcd_one_bag_identity():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    tcd = TreeCutDecomposition([[0, 1, 2, 3]], [], root=0)
    g2, smap, tp = tcd_to_subdivision_tp(g, tcd)
    assert g2.n == g.n
    assert tp.bags == [[0, 1, 2, 3]]


def test_from_tcd_p3_singletons():
    g = Graph(3, [(0, 1), (1, 2)])
    tcd = TreeCutDecomposition([[0], [1], [2]], [(0, 1), (1, 2)], root=0)
    g2, _, tp = tcd_to_subdivision_tp(g, tcd)
    assert verify_tp(g2, tp) == 2


def test_from_tcd_contracts_empty_bags():
    g = Graph(2, [(0, 1)])
    tcd = TreeCutDecomposition([[0], [], [1]], [(0, 1), (1, 2)], root=0)
    g2, _, tp = tcd_to_subdivision_tp(g, tcd)
    assert all(bag for bag in tp.bags)
    assert not isinstance(verify_tp(g2, tp), Violation)


def test_from_tcd_edge_between_bold_siblings():
    """K_4 less the edge 23, with 2 and 3 in the root bag and 0 and 1 in
    two child bags.  Each child's cut is 3, so both are bold and the edge
    01 between them keeps the decomposition nice.  Its tree path climbs
    from both ends to the root, and the edges 02, 03 climb from their
    deeper first end.  Each edge is subdivided by its tree distance."""
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    tcd = TreeCutDecomposition([[2, 3], [0], [1]], [(0, 1), (0, 2)], root=0)
    g2, smap, tp = tcd_to_subdivision_tp(g, tcd)
    distance = {(0, 1): 2, (0, 2): 1, (0, 3): 1, (1, 2): 1, (1, 3): 1}
    assert {e: len(path) for e, path in smap.paths.items()} == distance
    assert g2.n == g.n + sum(distance.values())
    width, nice = verify_tcd(g, tcd)
    assert (width, nice) == (4, True)  # the root's torso: two vertices, two bold children
    assert verify_tp(g2, tp) <= 2 + width * (width + 2) // 2 + width


def test_from_tcd_rejects_non_nice():
    g = Graph(3, [(1, 2)])
    tcd = TreeCutDecomposition([[0], [1], [2]], [(0, 1), (0, 2)], root=0)
    with pytest.raises(ValueError, match="thin node"):
        tcd_to_subdivision_tp(g, tcd)


def test_from_tcd_width_bound():
    for seed in range(10):
        g = random_graph(9, 0.3, seed)
        # one vertex per node along a path is always a tree-cut decomposition
        tcd = TreeCutDecomposition(
            [[v] for v in range(g.n)],
            [(i, i + 1) for i in range(g.n - 1)],
            root=0,
        )
        from treepart.decomp import verify_tcd

        res = verify_tcd(g, tcd)
        width, nice = res
        if not nice:
            continue
        g2, _, tp = tcd_to_subdivision_tp(g, tcd)
        realized = verify_tp(g2, tp)
        assert realized <= 2 + width * (width + 2) // 2 + width


def test_lift_k2_count3():
    g = Graph(2, [(0, 1)])
    tp = TreePartition([[0], [1]], [(0, 1)], root=0)
    out = tp_lift_subdivision(g, tp, {(0, 1): 3})
    g2, _ = subdivide(g, {(0, 1): 3})
    assert verify_tp(g2, out) <= 2


def test_lift_zero_counts_identity():
    g = Graph(2, [(0, 1)])
    tp = TreePartition([[0], [1]], [(0, 1)], root=0)
    assert tp_lift_subdivision(g, tp, {}) is tp


def test_lift_c4_pinned():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    tp = TreePartition([[0, 3], [1, 2]], [(0, 1)], root=0)
    counts = {e: 1 for e in g.edges()}
    out = tp_lift_subdivision(g, tp, counts)
    g2, _ = subdivide(g, counts)
    # both cross edges land their path vertex in the child bag: width 4,
    # within the k(k+1) = 6 bound
    assert verify_tp(g2, out) == 4


def test_lift_random_bound():
    import random

    for seed in range(20):
        g = random_graph(10, 0.25, seed + 300)
        from treepart.exact import exact_tpw
        from treepart.exact import CapacityError

        try:
            k = exact_tpw(g, g.n)
        except CapacityError:
            continue
        from treepart.exact import valid_partitions_upto, completion_tree

        parts = valid_partitions_upto(g, k, cap=10)[0]
        tp = TreePartition(parts, completion_tree(g, parts), root=0)
        rnd = random.Random(seed)
        counts = {e: rnd.randrange(0, 4) for e in g.edges()}
        out = tp_lift_subdivision(g, tp, counts)
        g2, _ = subdivide(g, counts)
        realized = verify_tp(g2, out)
        assert not isinstance(realized, Violation)
        assert realized <= k * (k + 1), seed


def test_lift_rejects_invalid_partition():
    g = Graph(3, [(0, 1), (1, 2)])
    bad = TreePartition([[0], [1, 2]], [], root=0)
    with pytest.raises(ValueError):
        tp_lift_subdivision(g, bad, {(0, 1): 1})


def test_from_tcd_names_the_thin_offender():
    # node 1 is thin (cut 1) and its vertex 1 is adjacent to vertex 2 in
    # the sibling subtree of node 2; node 1 comes first in the walk
    g = Graph(3, [(1, 2)])
    tcd = TreeCutDecomposition([[0], [1], [2]], [(0, 1), (0, 2)], root=0)
    with pytest.raises(ValueError, match=r"not nice: thin node 1 has edges"):
        tcd_to_subdivision_tp(g, tcd)


def test_long_path_tcd_verifies_and_bridges_in_linear_memory():
    """A 20,000-node path decomposition of a path: each host edge climbs
    one tree edge, so verify_tcd holds a few lists of the nodes, where
    vertex sets per subtree would hold about n^2 / 2 entries."""
    n = 20000
    g = Graph(n, [(i, i + 1) for i in range(n - 1)])
    tcd = TreeCutDecomposition([[v] for v in range(n)], [(i, i + 1) for i in range(n - 1)], root=0)
    tracemalloc.start()
    try:
        assert verify_tcd(g, tcd) == (1, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak
    g2, _, tp = tcd_to_subdivision_tp(g, tcd)
    assert verify_tp(g2, tp) == 2
