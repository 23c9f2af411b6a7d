import heapq
import math
import random
from collections import Counter

import pytest

from treepart import treewidth
from treepart.decomp import TreeDecomposition, Violation, occupancy_tables, verify_td
from treepart.families import (
    gen_complete_bipartite,
    gen_grid,
    gen_multiple_tree,
    gen_wall,
    random_graph,
    random_tree,
)
from treepart.graph import Graph, connected_components, quotient
from treepart.treewidth import (
    _td_from_elimination,
    balance_td,
    clique_tree,
    eliminate,
    elimination_of,
    exact_td,
    heuristic_td,
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


@pytest.mark.parametrize("leaves", [1000, 4000])
def test_min_degree_hub_pushes_grow_with_log_leaves(monkeypatch, leaves):
    # after the first leaf each hub loses one degree per leaf, from
    # leaves + 9 down to 9, and is pushed only when its degree halves or
    # nears the picked score of 10: about log2(leaves) + 15 pushes per hub
    g = gen_complete_bipartite(10, leaves)
    pushes = []
    real = heapq.heappush
    monkeypatch.setattr(heapq, "heappush", lambda heap, item: pushes.append(item) or real(heap, item))
    treewidth.eliminate(g, "min-degree")
    assert len(pushes) <= 10 * (math.log2(leaves) + 15)


def test_hub_leaves_skip_rescoring(monkeypatch):
    # the first leaf of K_{10,4800} makes the hubs a clique, and every
    # later leaf is simplicial: min-fill lowers the hubs' fill counts
    # without a recount, so only the initial scores and that first
    # rescoring count from scratch, and min-degree reaches `_lower` only
    # when a hub's degree drops below its heap key (a recount or a call
    # per hub per leaf would make 48,000 more)
    g = gen_complete_bipartite(10, 4800)
    calls = Counter()
    for name in ("_fill", "_lower"):

        def counting(*args, _real=getattr(treewidth, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(treewidth, name, counting)
    for strategy, helper, bound in (("min-fill", "_fill", 2 * g.n), ("min-degree", "_lower", g.n)):
        calls.clear()
        assert heuristic_td(g, strategy).width() == 10
        assert calls[helper] < bound, (strategy, calls)


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
    """On heuristic, balanced and random-order decompositions rooted at
    random nodes: parent is the tree rooted there, depth counts the
    parent steps to the root, top[v] holds v, and every node holding v has
    top[v] as itself or an ancestor."""
    rng = random.Random(3)
    for seed in range(30):
        g = random_graph(25, 0.15, seed)
        td = heuristic_td(g, "min-fill" if seed % 2 else "min-degree", seed)
        for t in (td, balance_td(g, td), random_order_td(g, seed)):
            t = TreeDecomposition(t.bags, t.tree_edges, root=rng.randrange(t.num_nodes))
            top, parent, depth = occupancy_tables(t)
            assert parent[t.root] == -1
            for x in range(t.num_nodes):
                steps, y = 0, x
                while parent[y] != -1:
                    steps, y = steps + 1, parent[y]
                assert depth[x] == steps, (seed, x)
            assert sorted(map(sorted, t.tree_edges)) == sorted(
                sorted((x, p)) for x, p in enumerate(parent) if p != -1
            )
            assert sorted(top) == list(range(g.n))
            for i, bag in enumerate(t.bags):
                for v in bag:
                    assert v in t.bags[top[v]], (seed, v)
                    x = i
                    while x != top[v]:
                        x = parent[x]
                        assert x != -1, (seed, v, i)


def test_occupancy_tables_reject_a_root_that_is_no_node():
    td = heuristic_td(path(4))
    for root in (None, -1, td.num_nodes):
        with pytest.raises(ValueError):
            occupancy_tables(TreeDecomposition(td.bags, td.tree_edges, root=root))


def random_order_td(g, seed):
    """The decomposition of a random elimination order of g."""
    order = list(range(g.n))
    random.Random(seed).shuffle(order)
    nbr = [set(g.adj[v]) for v in range(g.n)]
    elim_bags = [None] * g.n
    for v in order:
        elim_bags[v] = set(nbr[v])
        for u in nbr[v]:
            nbr[u] |= nbr[v]
            nbr[u] -= {u, v}
    return _td_from_elimination(order, elim_bags)


def transported(g, td, seed):
    """(H, td's bags mapped onto H) for the quotient H of g by the
    components of a random half of its edges: many bags become equal."""
    rng = random.Random(seed)
    half = Graph(g.n, [e for e in g.edges() if rng.random() < 0.5])
    h, part_of = quotient(g, connected_components(half))
    bags = [sorted({part_of[v] for v in bag}) for bag in td.bags]
    return h, TreeDecomposition(bags, td.tree_edges, root=0)


def reduce_cases():
    """(graph, decomposition) pairs: heuristic, balanced, random-order and
    transported decompositions of random graphs; grids, walls and
    windmills; a single node; an empty leaf bag."""
    for seed in range(40):
        g = random_graph(30, 0.12, seed)
        td = heuristic_td(g, "min-fill" if seed % 2 else "min-degree", seed)
        yield g, td
        yield g, balance_td(g, td)
        yield g, random_order_td(g, seed)
        yield transported(g, td, seed)
        yield transported(g, balance_td(g, td), seed)
    for g in (gen_grid(12), gen_wall(12), gen_multiple_tree(gen_complete_bipartite(1, 10), 12)):
        td = heuristic_td(g)
        yield g, td
        yield g, balance_td(g, td)
    yield complete(4), TreeDecomposition([[0, 1, 2, 3]], [], root=0)
    yield path(3), TreeDecomposition([[0, 1], [1, 2], []], [(0, 1), (1, 2)], root=0)


def reduced(td, n):
    """The clique tree of td's co-bagged pairs on vertices 0..n-1."""
    return clique_tree(*elimination_of(td, n))


def test_clique_tree_of_any_decomposition_leaves_no_nested_bags():
    for idx, (g, td) in enumerate(reduce_cases()):
        red = reduced(td, g.n)
        assert verify_td(g, red) == td.width(), idx
        sets = [set(bag) for bag in red.bags]
        for i, j in red.tree_edges:
            assert not sets[i] <= sets[j] and not sets[j] <= sets[i], (idx, i, j)
        for bag in td.bags:
            assert any(set(bag) <= s for s in sets), (idx, bag)
        assert len({frozenset(s) for s in sets}) == len(sets), idx
        again = reduced(red, g.n)
        assert sorted(again.bags) == sorted(red.bags), idx


def test_clique_tree_keeps_the_maximal_cliques_of_grid_40():
    g = gen_grid(40)
    red = clique_tree(*eliminate(g))
    assert (red.num_nodes, sum(map(len, red.bags))) == (1196, 10300)
    assert sorted(reduced(heuristic_td(g), g.n).bags) == sorted(red.bags)
