import itertools
import random

import pytest

from treepart import separators
from treepart.decomp import TreeDecomposition
from treepart.exact import brute_disjoint_paths, brute_mu
from treepart.families import random_graph, random_tree
from treepart.graph import Graph, connected_components
from treepart.pipeline import _step2_pairs
from treepart.separators import b_reduction, build_gb, candidate_pairs, mu
from treepart.treewidth import eliminate, heuristic_td


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_mu_known_values():
    assert mu(complete(5), 0, 1) == 3
    assert mu(cycle(6), 0, 3) == 2
    assert mu(cycle(6), 0, 1) == 1
    assert mu(Graph(2, [(0, 1)]), 0, 1) == 0


@pytest.mark.parametrize("s, t", [(0, 7), (7, 0), (-1, 1), (0, 3), (1, 1)])
def test_mu_refuses_endpoints_that_are_not_two_vertices(s, t):
    """A large endpoint would read past the flow arrays, a negative one
    would alias a vertex from the end, and s == t has no separator."""
    with pytest.raises(ValueError, match="must be distinct vertices in 0..2"):
        mu(Graph(3, [(0, 1), (1, 2)]), s, t)


def test_mu_matches_brute_force():
    for seed in range(30):
        g = random_graph(8, 0.4, seed)
        for s, t in itertools.combinations(range(g.n), 2):
            assert mu(g, s, t) == brute_mu(g, s, t), (seed, s, t)


def test_mu_matches_disjoint_paths():
    for seed in range(15):
        g = random_graph(7, 0.5, seed + 100)
        for s, t in itertools.combinations(range(g.n), 2):
            assert mu(g, s, t) == brute_disjoint_paths(g, s, t)


def test_mu_matches_networkx_above_brute_force_range():
    # brute_mu stops at 16 vertices; networkx's local node connectivity
    # counts the direct edge as a path, so adjacent pairs are asked on G-st
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.connectivity import local_node_connectivity

    for seed in range(12):
        n = 20 + seed * 40 // 11
        g = random_graph(n, (0.08, 0.15, 0.3)[seed % 3], 400 + seed)
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges())
        rnd = random.Random(seed)
        pairs = rnd.sample(g.edges(), min(10, g.m))
        pairs += rnd.sample(list(itertools.combinations(range(n), 2)), 15)
        for s, t in pairs:
            adjacent = g.has_edge(s, t)
            if adjacent:
                h.remove_edge(s, t)
            assert mu(g, s, t) == local_node_connectivity(h, s, t), (seed, s, t)
            if adjacent:
                h.add_edge(s, t)


def test_mu_cap_early_stop():
    g = complete(8)
    assert mu(g, 0, 1, cap=3) == 3
    assert mu(g, 0, 1) == 6
    for seed in range(30):
        g = random_graph(8, 0.4, seed)
        for s, t in itertools.combinations(range(g.n), 2):
            exact = brute_mu(g, s, t)
            for cap in range(5):
                assert mu(g, s, t, cap) == min(exact, cap), (seed, s, t, cap)


def paths_graph(n, *paths):
    return Graph(n, [e for p in paths for e in zip(p, p[1:])])


# s = 0, t = 4.  The one shortest path 0-1-2-3-4 is found first; the second
# augmenting path enters 3 from 7, runs back to 2_out, crosses 2's split
# arc backward (freeing 2), and leaves 1 through 8-9-10.
GRAPH_A = paths_graph(11, (0, 1, 2, 3, 4), (0, 5, 6, 7, 3), (1, 8, 9, 10, 4))
# Graph A plus a long detour through 2: the third augmenting path enters 2
# again, after the second one has freed it.
GRAPH_B = paths_graph(
    21, (0, 1, 2, 3, 4), (0, 5, 6, 7, 3), (1, 8, 9, 10, 4),
    (0, 11, 12, 13, 14, 15, 2), (2, 16, 17, 18, 19, 20, 4),
)


def test_mu_undoes_a_path_through_a_split_arc():
    assert mu(GRAPH_A, 0, 4) == 2 == brute_mu(GRAPH_A, 0, 4)


def test_mu_reenters_a_freed_vertex():
    assert mu(GRAPH_B, 0, 4) == 3


def test_candidate_pairs_cover_cobagged():
    g = cycle(5)
    td = heuristic_td(g)
    pairs = set(candidate_pairs(td))
    for bag in td.bags:
        for u, v in itertools.combinations(sorted(bag), 2):
            assert (u, v) in pairs


def test_build_gb_clique():
    g = complete(6)
    pairs = list(itertools.combinations(range(6), 2))
    # any two clique vertices have mu = n-2 = 4
    assert build_gb(g, 4, pairs).m == 15
    assert build_gb(g, 5, pairs).m == 0


def test_build_gb_cycle_all_pairs():
    g = cycle(4)
    pairs = list(itertools.combinations(range(4), 2))
    gb = build_gb(g, 2, pairs)
    # opposite vertices have two disjoint paths; adjacent ones only one
    assert gb.edges() == [(0, 2), (1, 3)]


def test_b_reduction_quotient_weights():
    g = cycle(4)
    gb = Graph(4, [(0, 2), (1, 3)])
    red = b_reduction(g, gb)
    assert red.h.n == 2
    assert [len(p) for p in red.parts] == [2, 2]
    assert sorted(map(sorted, red.parts)) == [[0, 2], [1, 3]]
    assert red.h.edges() == [(0, 1)]


def test_b_reduction_by_an_edgeless_graph_is_the_identity():
    g = cycle(5)
    red = b_reduction(g, Graph(5))
    assert red.h is g
    assert red.part_of == [0, 1, 2, 3, 4]
    assert red.parts == [[0], [1], [2], [3], [4]]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_build_gb_builds_no_subgraph_for_a_bridge(monkeypatch, seed):
    # in a tree every block is a bridge, so the block test settles each
    # pair by the block's size before any subgraph is built
    g = random_tree(1060, seed)
    pairs = _step2_pairs(g, eliminate(g)[1], 2)
    built = []
    real = separators.subgraph
    monkeypatch.setattr(separators, "subgraph", lambda *args: built.append(args) or real(*args))
    blocks = []
    assert build_gb(g, 2, pairs, blocks) == Graph(g.n)
    assert blocks, "no pair reached the block test"
    assert built == []


def test_build_gb_with_k_stops_once_a_component_exceeds_k():
    # K_{4,6}: the four hubs are pairwise joined by six common neighbours,
    # so at b = 5 G^b is the clique on them; with k = 2 the first pass
    # stops at the pair that joins a third hub, (0, 2), and tests no more
    g = Graph(10, [(u, v) for u in range(4) for v in range(4, 10)])
    pairs = list(itertools.combinations(range(4), 2))
    assert build_gb(g, 5, pairs).edges() == pairs
    assert build_gb(g, 5, pairs, k=2).edges() == [(0, 1), (0, 2)]
    assert build_gb(g, 5, pairs, k=3).edges() == [(0, 1), (0, 2), (0, 3)]
    # at k = 4 the four hubs exceed nothing: a stop at k vertices would
    # return three of the six edges
    assert build_gb(g, 5, pairs, k=4).edges() == pairs


def test_build_gb_with_k_runs_no_flow_when_the_first_pass_rejects(monkeypatch):
    # the three hubs of K_{3,4} share four neighbours, so at b = 2 the
    # first pass joins them and exceeds k = 2; the opposite pair (7, 11)
    # of a separate 8-cycle shares none, so only a flow would settle it
    hubs = [(u, v) for u in range(3) for v in range(3, 7)]
    ring = [(7 + i, 7 + (i + 1) % 8) for i in range(8)]
    g = Graph(15, hubs + ring)
    pairs = [(0, 1), (0, 2), (1, 2), (7, 11)]
    flows = []
    monkeypatch.setattr(separators, "mu", lambda *args, **kw: flows.append(args) or mu(*args, **kw))
    assert build_gb(g, 2, pairs, k=2).edges() == [(0, 1), (0, 2)]
    assert flows == []
    assert build_gb(g, 2, pairs).edges() == [(0, 1), (0, 2), (1, 2), (7, 11)]
    assert len(flows) == 1


@pytest.mark.parametrize("seed", range(4))
def test_build_gb_with_k_is_a_prefix_of_gb_that_exceeds_k_only_when_gb_does(seed):
    # with k given, the output is a subgraph of G^b; it is all of G^b
    # unless G^b has a component above k, and then it has exactly one
    rnd = random.Random(seed)
    for _ in range(40):
        g = random_graph(rnd.randrange(8, 20), rnd.choice((0.3, 0.5, 0.7)), rnd.randrange(10**6))
        pairs = list(itertools.combinations(range(g.n), 2))
        b = rnd.randrange(1, 5)
        full = build_gb(g, b, pairs)
        top = max(map(len, connected_components(full)))
        for k in (1, 2, 3, 5):
            part = build_gb(g, b, pairs, k=k)
            sizes = sorted(map(len, connected_components(part)))
            assert set(part.edges()) <= set(full.edges())
            if top > k:
                assert sizes[-1] > k and (len(sizes) < 2 or sizes[-2] <= k)
            else:
                assert part == full
