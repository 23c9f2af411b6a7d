"""`refine`, the layered partition it makes of `bfs_layering`, and step 4's
choice between the two narrower candidates of each block it partitions."""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

from treepart import pipeline
from treepart.decomp import TreePartition, Violation, verify_tp
from treepart.exact import exact_tpw
from treepart.families import gen_complete_bipartite, gen_grid, gen_wall, random_graph, random_tree
from treepart.graph import Graph, connected_components
from treepart.partitioner import bfs_layering, refine
from treepart.pipeline import PipelineParams, run

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import corpus  # noqa: E402


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def layered(g, root=0):
    return refine(g, bfs_layering(g, root))


@pytest.mark.parametrize(
    "g, root, width",
    [
        # the leaves of a star split into singletons below the centre
        (gen_complete_bipartite(1, 50), 0, 1),
        # K_{2,50}: from a hub, the leaves join through the other hub below
        # them; from a leaf, the other leaves split and the hubs join
        (gen_complete_bipartite(2, 50), 0, 50),
        (gen_complete_bipartite(2, 50), 2, 2),
        (random_tree(200, 3), 17, 1),
        (cycle(10), 0, 2),
        (gen_grid(12), 0, 12),
    ],
    ids=["star", "K2_50-hub", "K2_50-leaf", "tree", "cycle", "grid"],
)
def test_layered_widths(g, root, width):
    tp = layered(g, root)
    assert verify_tp(g, tp) == width
    assert tp.root == 0 and tp.bags[0] == [root]


def test_refine_hangs_each_class_under_the_class_it_touches():
    """Bags {0, 1, 2}, {3}, {4} on a path of nodes.  With the edge 0-2 the
    root bag is one class and nothing splits.  Without it, {2} is a class
    of its own, numbered after {0, 1}, and {3} hangs under it, not under
    the root bag's first class."""
    tp = TreePartition([[0, 1, 2], [3], [4]], [(0, 1), (1, 2)], root=0)
    g = Graph(5, [(0, 1), (0, 2), (2, 3), (3, 4)])
    assert refine(g, tp) == tp
    g = Graph(5, [(0, 1), (2, 3), (3, 4)])
    assert refine(g, tp) == TreePartition([[0, 1], [2], [3], [4]], [(0, 1), (1, 2), (2, 3)], root=0)
    assert refine(Graph(0), TreePartition([], [], root=None)).bags == []


def test_bfs_layering_of_the_empty_graph_has_no_bags():
    # whatever the root, as partition_rooted gives for n = 0
    for root in (0, 3):
        assert bfs_layering(Graph(0), root) == TreePartition([], [], root=None)


def test_bfs_layering_rejects_an_unreached_vertex():
    with pytest.raises(ValueError, match="2 vertices are not reached from 0"):
        bfs_layering(Graph(4, [(0, 1), (2, 3)]), 0)


@pytest.mark.parametrize(
    "bags, edges, message",
    [
        ([[0], [1]], [(0, 1)], "vertex 2 is in no bag"),
        ([], [], "vertex 0 is in no bag"),
        ([[0, 1], [1, 2, 3]], [(0, 1)], "vertex 1 is in two bags"),
        ([[0, 1], [2, 3, 4]], [(0, 1)], "vertex 4 is out of range"),
        ([[-1, 0, 1], [2, 3]], [(0, 1)], "vertex -1 is out of range"),
        ([[0, 1], [2], [3]], [(1, 2)], "tree must have 2 edges, got 1"),
        ([[0], [1], [2, 3]], [(0, 1), (1, 2), (0, 2)], "tree must have 2 edges, got 3"),
        ([[0], [1], [2], [3]], [(1, 2), (2, 3), (3, 1)], "tree is disconnected"),
        ([[0], [1], [2, 3]], [(0, 1), (1, 7)], r"bad tree edge \(1,7\)"),
    ],
    ids=["uncovered", "no-bags", "two-bags", "too-high", "negative", "unreached-bag", "cycle",
         "cycle-beside-a-bag", "edge-out-of-range"],
)
def test_refine_rejects_what_is_not_a_partition(bags, edges, message):
    with pytest.raises(ValueError, match=message):
        refine(Graph(4, [(0, 1), (2, 3)]), TreePartition(bags, edges, root=0))


@pytest.mark.parametrize("root", [-1, 5])
def test_a_root_outside_the_tree_is_refused(root):
    """A negative root would alias a node from the end and a large one
    index past it; both layering and refine raise ValueError instead."""
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match=f"root {root} is not a node in 0..2"):
        bfs_layering(g, root)
    with pytest.raises(ValueError, match=f"root {root} is not a node in 0..2"):
        refine(g, TreePartition([[0], [1], [2]], [(0, 1), (1, 2)], root=root))


def check_refine(g, tp):
    """refine of tp, and of g's layering from its vertex 0 when g is
    connected, is a tree-partition of g no wider than what it refines."""
    parts = [tp]
    if g.n and len(connected_components(g)) == 1:
        parts.append(bfs_layering(g, 0))
    for part in parts:
        width = verify_tp(g, refine(g, part))
        assert not isinstance(width, Violation), width
        assert width <= part.width()


def as_built(monkeypatch):
    """Make step 4 keep each partition as built: `refine` returns its
    input, and the layered candidate is one bag, which never wins."""
    monkeypatch.setattr(pipeline, "refine", lambda g, tp: tp)
    monkeypatch.setattr(pipeline, "bfs_layering", lambda g, root: TreePartition([list(range(g.n))], [], 0))


def cases():
    """(graph, k): both benchmark corpora at their k, the 300 random graphs
    of the equivalence tests at k in {2, 3, 5}, and grids and walls up to
    side 40 at k in {4, 16}."""
    for workload in corpus.WORKLOADS:
        for inst in corpus.build(workload, 7):
            yield inst.graph, inst.k
    graphs = [random_graph(5 + i % 31, (0.05, 0.1, 0.2, 0.35, 0.6)[i % 5], 1000 + i) for i in range(200)]
    graphs += [random_graph(40 + i % 41, (0.03, 0.06, 0.12, 0.25)[i % 4], 6000 + i) for i in range(100)]
    for g in graphs:
        for k in (2, 3, 5):
            yield g, k
    for gen in (gen_grid, gen_wall):
        for side in (5, 10, 20, 30, 40):
            for k in (4, 16):
                yield gen(side), k


def test_refine_is_valid_and_never_widens(monkeypatch):
    """On every accept, the pipeline's partition verifies and is no wider
    than with the partitions as built, and `refine` of it, and of the
    graph's layering, is valid and no wider than its input."""
    accepts = narrower = 0
    outs = [(g, k, run(g, PipelineParams(k))) for g, k in cases()]
    as_built(monkeypatch)
    for g, k, out in outs:
        built = run(g, PipelineParams(k))
        assert out.accepted == built.accepted
        if not out.accepted:
            continue
        accepts += 1
        assert verify_tp(g, out.tp) == out.width <= built.width
        narrower += out.width < built.width
        check_refine(g, out.tp)
        step4 = out.trace[3].fields
        assert step4["refined_width"] <= step4["built_width"]
    assert accepts > 500 and narrower > 200, (accepts, narrower)


def test_single_block_takes_the_narrower_candidate():
    """At k = 16 no vertex of a grid or wall is quotiented (H = G), and
    each has one block of more than two vertices (a wall's other blocks
    are the bridges at two corners, which the size rule decides at width
    1), so the accepted width is the narrower of that block's refined and
    layered widths, and the layered one wins exactly when narrower."""
    for gen in (gen_grid, gen_wall):
        for side in (10, 20, 30, 40):
            out = run(gen(side), PipelineParams(16))
            step4 = out.trace[3].fields
            assert out.trace[2].fields["h_n"] == side * side
            assert out.width == min(step4["refined_width"], step4["layered_width"]), side
            assert step4["refined_width"] <= step4["built_width"]
            assert step4["layered_wins"] == (step4["layered_width"] < step4["refined_width"])


def test_width_over_exact_tpw_on_small_random_graphs():
    """At the least accepting k of each of the 120 graphs
    random_graph(11, 0.3, s), the accepted width over `exact_tpw` sums to
    1021/6 (mean 1.418; 1.773 with the partitions as built) and is 1 on 39
    of them (5 as built)."""
    total, optimal = Fraction(0), 0
    for s in range(120):
        g = random_graph(11, 0.3, s)
        k = 1
        while not (out := run(g, PipelineParams(k))).accepted:
            k += 1
        best = exact_tpw(g, g.n)
        total += Fraction(out.width, best)
        optimal += out.width == best
    assert (total, optimal) == (Fraction(1021, 6), 39)
