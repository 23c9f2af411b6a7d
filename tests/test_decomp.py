import pytest

from treepart.decomp import (
    MalformedDecomposition,
    TreeCutDecomposition,
    TreeDecomposition,
    TreePartition,
    Violation,
    verify_domino,
    verify_td,
    verify_tcd,
    verify_tp,
)
from treepart.graph import Graph


P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])


def test_verify_td_path():
    td = TreeDecomposition([[0, 1], [1, 2], [2, 3]], [(0, 1), (1, 2)], root=0)
    assert verify_td(P4, td) == 1


def test_verify_td_missing_edge():
    td = TreeDecomposition([[0, 1], [2, 3]], [(0, 1)], root=0)
    v = verify_td(P4, td)
    assert isinstance(v, Violation)
    assert v.clause == "edge-coverage"


def test_verify_td_disconnected_occupancy():
    td = TreeDecomposition([[0, 1], [1, 2], [2, 3, 0]], [(0, 1), (1, 2)], root=0)
    v = verify_td(P4, td)
    assert isinstance(v, Violation)
    assert v.clause == "occupancy-connectivity"


def test_verify_td_reports_the_least_split_vertex():
    # vertex 3 sits on nodes 0 and 2, vertex 1 on nodes 1 and 3 of the
    # path 0-1-2-3: both split, and 1 is reported though 3 splits first
    g = Graph(4, [(0, 1), (2, 3)])
    td = TreeDecomposition([[3], [0, 1], [2, 3], [1]], [(0, 1), (1, 2), (2, 3)], root=0)
    assert verify_td(g, td) == Violation("occupancy-connectivity", 1)
    # a star with vertex 0 on three leaves: three pieces
    td = TreeDecomposition([[1, 2, 3], [0, 1], [0, 2], [0, 3]], [(0, 1), (0, 2), (0, 3)], root=0)
    assert verify_td(Graph(4, [(0, 1), (0, 2), (0, 3)]), td) == Violation(
        "occupancy-connectivity", 0
    )


def test_verify_tp_path():
    tp = TreePartition([[0, 1], [2, 3]], [(0, 1)], root=0)
    assert verify_tp(P4, tp) == 2


def test_verify_tp_edge_locality():
    tp = TreePartition([[0], [1], [2, 3]], [(0, 1), (0, 2)], root=0)
    v = verify_tp(P4, tp)
    assert isinstance(v, Violation)
    assert v.clause == "edge-locality"


def test_verify_tp_requires_partition():
    tp = TreePartition([[0, 1], [1, 2, 3]], [(0, 1)], root=0)
    assert isinstance(verify_tp(P4, tp), Violation)
    tp2 = TreePartition([[0, 1], [2]], [(0, 1)], root=0)
    assert isinstance(verify_tp(P4, tp2), Violation)


def test_verify_tp_rejects_an_empty_bag():
    tp = TreePartition([[0, 1], [], [2, 3]], [(0, 1), (1, 2)], root=0)
    assert verify_tp(P4, tp) == Violation("empty-bag", 1)
    # the empty graph needs no bag, and one empty bag is still empty
    assert verify_tp(Graph(0), TreePartition([[]], [], root=0)) == Violation("empty-bag", 0)


def test_verify_domino_counts_occurrences():
    td = TreeDecomposition([[0, 1], [1, 2], [2, 3]], [(0, 1), (1, 2)], root=0)
    assert verify_domino(P4, td) == 1
    # vertex 1 in three bags
    td3 = TreeDecomposition(
        [[0, 1], [1, 2], [1, 2, 3]], [(0, 1), (1, 2)], root=0
    )
    v = verify_domino(P4, td3)
    assert isinstance(v, Violation)


def test_bag_repeating_a_vertex_is_malformed():
    # the edge 0-1 decomposed at width 1, with vertex 0 listed twice in a bag
    g = Graph(2, [(0, 1)])
    assert verify_td(g, TreeDecomposition([[0, 1], [1]], [(0, 1)], root=0)) == 1
    for verify in (verify_td, verify_domino):
        with pytest.raises(MalformedDecomposition, match="bag 0 repeats vertex 0"):
            verify(g, TreeDecomposition([[0, 0, 1], [1]], [(0, 1)], root=0))


def test_tree_shape_errors_raise():
    with pytest.raises(ValueError):
        verify_tp(P4, TreePartition([[0, 1], [2, 3]], [], root=0))
    with pytest.raises(ValueError):
        verify_tp(
            P4, TreePartition([[0, 1], [2, 3]], [(0, 1), (0, 1)], root=0)
        )


def test_verify_tcd_width_and_nice():
    tcd = TreeCutDecomposition([[0], [1], [2], [3]], [(0, 1), (1, 2), (2, 3)], root=0)
    width, nice = verify_tcd(P4, tcd)
    assert width == 1
    assert nice


def test_verify_tcd_non_nice():
    # star K_1,2 split so two thin siblings have an edge between them
    g = Graph(3, [(1, 2)])
    tcd = TreeCutDecomposition([[0], [1], [2]], [(0, 1), (0, 2)], root=0)
    width, nice = verify_tcd(g, tcd)
    assert not nice


def test_verify_tcd_near_partition_allows_empty_bags():
    tcd = TreeCutDecomposition(
        [[0, 1], [], [2, 3]], [(0, 1), (1, 2)], root=0
    )
    res = verify_tcd(P4, tcd)
    assert not isinstance(res, Violation)


def test_verify_tcd_rejects_a_vertex_in_two_bags_or_in_none():
    tcd = TreeCutDecomposition([[0, 1], [1, 2, 3]], [(0, 1)], root=0)
    assert verify_tcd(P4, tcd) == Violation("vertex-in-two-bags", 1)
    tcd = TreeCutDecomposition([[0, 1], [], [3]], [(0, 1), (1, 2)], root=0)
    assert verify_tcd(P4, tcd) == Violation("near-partition-coverage", 2)


def test_verify_tcd_bold_children_increase_torso():
    # K_4 subdivided via a hub: large cuts make children bold
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4), (1, 3), (2, 4)])
    tcd = TreeCutDecomposition([[0], [1, 2], [3, 4]], [(0, 1), (0, 2)], root=0)
    width, nice = verify_tcd(g, tcd)
    assert width >= 3


def test_depth_of_a_root_outside_the_tree_raises():
    with pytest.raises(ValueError, match="root 0 is not a node"):
        TreeDecomposition([], [], root=0).depth()
    with pytest.raises(ValueError, match="root 2 is not a node"):
        TreeDecomposition([[0], [1]], [(0, 1)], root=2).depth()
