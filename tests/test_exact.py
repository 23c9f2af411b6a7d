import pytest

from treepart.decomp import TreeDecomposition, verify_domino
from treepart.exact import (
    CapacityError,
    brute_disjoint_paths,
    brute_mu,
    completion_tree,
    exact_domino_tw,
    exact_tpw,
    tpw_by_enumeration,
    valid_partitions_upto,
)
from treepart.families import random_graph, random_tree
from treepart.graph import Graph


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_exact_tpw_cliques():
    for n in range(2, 9):
        assert exact_tpw(complete(n), n) == (n + 1) // 2


def test_exact_tpw_cycles():
    for n in range(3, 9):
        assert exact_tpw(cycle(n), n) == 2


def test_exact_tpw_trees_and_empty():
    assert exact_tpw(Graph(0), 1) == 0
    assert exact_tpw(Graph(1), 1) == 1
    for seed in range(5):
        assert exact_tpw(random_tree(9, seed), 3) == 1


def test_exact_tpw_exceeds_kmax():
    assert exact_tpw(complete(6), 2) is None


def test_exact_tpw_matches_enumerator():
    for seed in range(25):
        g = random_graph(6, 0.4, seed)
        assert exact_tpw(g, 6) == tpw_by_enumeration(g)


def test_capacity_errors():
    with pytest.raises(CapacityError):
        exact_tpw(Graph(13), 1)
    with pytest.raises(CapacityError):
        tpw_by_enumeration(Graph(8))
    with pytest.raises(CapacityError):
        brute_mu(complete(4), 0, 1, cap=3)


def test_valid_partitions_and_completion():
    g = cycle(4)
    parts_list = valid_partitions_upto(g, 2)
    assert parts_list, "C_4 has width-2 partitions"
    for parts in parts_list:
        assert max(len(p) for p in parts) <= 2
        tree = completion_tree(g, parts)
        assert len(tree) == len(parts) - 1
    assert all(len(p) > 2 for p in []) or not valid_partitions_upto(g, 1)


def test_brute_mu_known_values():
    # mu(s, t) in G - st: adjacent clique vertices keep the other n-2
    assert brute_mu(complete(5), 0, 1) == 3
    assert brute_mu(cycle(5), 0, 1) == 1
    assert brute_mu(cycle(5), 0, 2) == 2
    p3 = Graph(3, [(0, 1), (1, 2)])
    assert brute_mu(p3, 0, 2) == 1
    assert brute_mu(p3, 0, 1) == 0


def test_brute_disjoint_paths_matches_mu():
    for seed in range(10):
        g = random_graph(7, 0.45, seed)
        for s in range(g.n):
            for t in range(s + 1, g.n):
                assert brute_mu(g, s, t) == brute_disjoint_paths(g, s, t)


def test_exact_domino_tw_path_and_cycle():
    p5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert exact_domino_tw(p5, 3) == 1
    # C_4 folds into {0,1,3},{1,2,3}; C_5 cannot close up at width 2
    assert exact_domino_tw(cycle(4), 4) == 2
    assert exact_domino_tw(cycle(5), 4) == 3


def test_exact_domino_tw_degree_filter():
    star = Graph(6, [(0, i) for i in range(1, 6)])
    # maximum degree 5 forces domino treewidth >= 3
    val = exact_domino_tw(star, 5)
    assert val is not None and val >= 3


def test_exact_domino_tw_exceeds():
    assert exact_domino_tw(complete(6), 1) is None


def test_bounded_set_partitions_match_filtered_enumeration():
    from treepart.exact import _set_partitions

    items = list(range(7))
    full = list(_set_partitions(items))
    assert len(full) == 877  # Bell(7)
    for cap in (1, 2, 3, 7):
        kept = [p for p in full if max(len(part) for part in p) <= cap]
        assert list(_set_partitions(items, cap)) == kept


def test_valid_partitions_of_the_empty_graph():
    # the one partition of no vertices, with an empty (forest) quotient
    assert valid_partitions_upto(Graph(0), 1) == [[]]
    assert completion_tree(Graph(0), []) == []
