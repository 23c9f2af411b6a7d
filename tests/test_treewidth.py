import heapq
import math

from treepart.decomp import Violation, verify_td
from treepart.families import gen_complete_bipartite, random_graph, random_tree
from treepart.graph import Graph
from treepart.treewidth import (
    balance_td,
    exact_td,
    heuristic_td,
    occupancy_tables,
    treewidth_lower_bound,
)


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def test_heuristic_td_valid_on_random_graphs():
    for seed in range(20):
        g = random_graph(15, 0.3, seed)
        for strategy in ("min-degree", "min-fill"):
            td = heuristic_td(g, strategy)
            assert not isinstance(verify_td(g, td), Violation), (seed, strategy)


def test_heuristic_td_optimal_on_trees_and_cliques():
    assert heuristic_td(random_tree(20, 3)).width() == 1
    assert heuristic_td(complete(6)).width() == 5


def test_lower_bound_sandwich():
    for seed in range(15):
        g = random_graph(9, 0.35, seed)
        lb = treewidth_lower_bound(g)
        for k in range(g.n):
            td = exact_td(g, k)
            if td is not None:
                assert lb <= k
                assert verify_td(g, td) == k or verify_td(g, td) <= k
                break


def test_hubs_cost_few_heap_pushes(monkeypatch):
    # each of the 10 hubs of K_{10,4800} loses one degree per leaf
    # eliminated; a push per drop would make 48,045 pushes
    g = gen_complete_bipartite(10, 4800)
    pushes = []
    real = heapq.heappush

    def counting(heap, item):
        pushes.append(item)
        real(heap, item)

    monkeypatch.setattr(heapq, "heappush", counting)
    for fn in (heuristic_td, treewidth_lower_bound):
        pushes.clear()
        fn(g)
        assert len(pushes) < g.n, fn.__name__


def test_exact_td_known_widths():
    assert exact_td(cycle(6), 1) is None
    td = exact_td(cycle(6), 2)
    assert td is not None and td.width() == 2
    assert exact_td(complete(5), 3) is None
    assert exact_td(complete(5), 4) is not None


def test_balance_td_bounds_on_path():
    g = path(200)
    td = heuristic_td(g)
    bal = balance_td(g, td)
    w = td.width()
    assert not isinstance(verify_td(g, bal), Violation)
    assert bal.width() <= 3 * w + 2
    assert bal.depth() <= 4 * (1 + math.log2(bal.num_nodes))


def test_balance_td_bounds_random():
    for seed in range(15):
        g = random_graph(30, 0.15, seed)
        td = heuristic_td(g, "min-fill")
        bal = balance_td(g, td)
        assert not isinstance(verify_td(g, bal), Violation), seed
        assert bal.width() <= 3 * td.width() + 2, seed
        assert bal.depth() <= 4 * (1 + math.log2(bal.num_nodes)), seed


def test_occupancy_tables_semantics():
    g = path(10)
    td = heuristic_td(g)
    top, tin, tout = occupancy_tables(g, td)
    # the reported top node always carries the vertex
    for v in range(g.n):
        assert v in td.bags[top[v]]
    # subtree membership test agrees with direct bag scan for the root
    root = td.root
    for v in range(g.n):
        assert tin[root] <= tin[top[v]] <= tout[root]
