import json
import math
from pathlib import Path

import pytest

from treepart.decomp import Violation, verify_tp
from treepart.families import gen_grid, random_graph
from treepart.graph import Graph, biconnected_components
from treepart.treewidth import heuristic_td
from treepart.partitioner import (
    CONSTANTS,
    balanced_separator_bag,
    combine_blocks,
    expand,
    partition_isolated,
    partition_rooted,
)

DATA = Path(__file__).parent / "data"


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def test_constants():
    assert math.isclose(CONSTANTS.gamma, 1 + math.sqrt(2))
    assert math.isclose(CONSTANTS.alpha, 1 + 1 / math.sqrt(2))
    assert CONSTANTS.window_low(1) < CONSTANTS.window_high(1, 3)
    assert CONSTANTS.bound(1, 3) > 0


def test_balanced_separator_bag():
    g = path(31)
    td = heuristic_td(g)
    wset = set(range(g.n))
    node = balanced_separator_bag(g, td, wset)
    bag = set(td.bags[node])
    # every component of g - bag holds at most half of wset
    left = wset - bag
    while left:
        v = min(left)
        comp = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in g.adj[u]:
                if w in left and w not in comp:
                    comp.add(w)
                    stack.append(w)
        assert len(comp) <= len(wset) / 2
        left -= comp


def test_balanced_separator_bag_rejects_vertices_out_of_range():
    g = gen_grid(5)
    td = heuristic_td(g)
    for wset in ([0, 99], [-1], [g.n]):
        with pytest.raises(ValueError):
            balanced_separator_bag(g, td, wset)


def test_partition_rooted_path():
    g = path(50)
    td = heuristic_td(g)
    tp = partition_rooted(g, td, {0})
    w = verify_tp(g, tp)
    assert not isinstance(w, Violation)
    assert 0 in tp.bags[tp.root]


def test_partition_rooted_random():
    for seed in range(20):
        g = random_graph(18, 0.2, seed)
        td = heuristic_td(g, "min-fill")
        tp = partition_rooted(g, td, {0, 1})
        assert not isinstance(verify_tp(g, tp), Violation), seed
        from treepart.graph import connected_components

        if len(connected_components(g)) == 1:
            assert {0, 1} <= set(tp.bags[tp.root])


def test_partition_isolated_contract():
    for seed in range(20):
        g = random_graph(18, 0.2, seed + 50)
        td = heuristic_td(g)
        for v in (0, g.n - 1):
            tp = partition_isolated(g, td, v)
            assert not isinstance(verify_tp(g, tp), Violation), (seed, v)
            assert tp.bags[tp.root] == [v]


def test_combine_blocks_bowtie():
    g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    bf = biconnected_components(g)
    per_block = {}
    for b, blk in enumerate(bf.blocks):
        sub, old = g.induced(blk)
        new_id = {v: i for i, v in enumerate(old)}
        td = heuristic_td(sub)
        cut = bf.parent_cut[b]
        if cut is not None:
            local = partition_isolated(sub, td, new_id[cut])
        else:
            local = partition_rooted(sub, td, {0})
        from treepart.decomp import TreePartition

        per_block[b] = TreePartition(
            [sorted(old[x] for x in bag) for bag in local.bags],
            list(local.tree_edges),
            local.root,
        )
    tp = combine_blocks(g, bf, per_block)
    assert not isinstance(verify_tp(g, tp), Violation)


def test_expand_restores_quotiented_vertices():
    from treepart.separators import b_reduction

    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    gb = Graph(4, [(0, 2)])
    red = b_reduction(g, gb)
    td = heuristic_td(red.h)
    tp_h = partition_rooted(red.h, td, {0})
    tp = expand(tp_h, red)
    assert not isinstance(verify_tp(g, tp), Violation)
    assert sorted(v for bag in tp.bags for v in bag) == [0, 1, 2, 3]


def test_pinned_width_regression():
    records = json.loads((DATA / "partition_width_regression.json").read_text())
    assert len(records) == 50
    within = 0
    for rec in records:
        g = Graph(rec["n"], [tuple(e) for e in rec["edges"]])
        assert g.max_degree() <= 6
        td = heuristic_td(g, "min-fill", seed=0)
        assert td.width() == rec["w"] <= 4
        tp = partition_rooted(g, td, {0})
        width = verify_tp(g, tp)
        assert width == rec["width"], rec["seed"]
        assert math.isclose(
            rec["bound"], CONSTANTS.bound(rec["w"], rec["delta"])
        )
        if width <= rec["bound"]:
            within += 1
    # informational in the acceptance gate; pinned here for stability
    assert within == 50
