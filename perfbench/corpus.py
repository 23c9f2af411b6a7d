"""Workload corpora: each family is a doubling ladder of generated graphs,
run at a fixed k, with the verdict every rung must get.

Only the random trees depend on the seed; every other family is fixed by
its size, so a seed changes tree shapes and nothing else.  `treepart` is
imported inside `build`, so set-up timing can re-import it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Instance:
    family: str
    rung: int
    label: str
    graph: object
    k: int
    expect: str  # "accept" or the rejecting certificate's class name


def _path(tp, n, rng):
    return tp.Graph(n, [(i, i + 1) for i in range(n - 1)])


def _random_tree(tp, n, rng):
    return tp.random_tree(n, rng.randrange(2**32))


def _star(tp, leaves, rng):
    return tp.gen_complete_bipartite(1, leaves)


def _multiple_tree(mult):
    def gen(tp, nodes, rng):
        tree = tp.random_tree(nodes, rng.randrange(2**32))
        return tp.gen_multiple_tree(tree, mult)

    return gen


def _bipartite(left):
    def gen(tp, right, rng):
        return tp.gen_complete_bipartite(left, right)

    return gen


def _grid(tp, side, rng):
    return tp.gen_grid(side)


def _wall(tp, side, rng):
    return tp.gen_wall(side)


def _fan(tp, n, rng):
    return tp.gen_fan(n)


# workload -> [(family, k, expected verdict, rung sizes, generator)]
# A pass takes about 11 s and 6 s, so a 56-second run times every instance
# several times and reports medians.
WORKLOADS = {
    "accept": [
        # Thousands of tiny blocks: step-1 scans and per-block step-4 work.
        ("path", 2, "accept", (350, 700, 1400), _path),
        ("random_tree", 1, "accept", (265, 530, 1060), _random_tree),
        ("star", 1, "accept", (22, 44, 88), _star),
        # k=7 gives b=13 > 12 parallel paths, so no pair is highly connected
        ("multiple_tree12", 7, "accept", (18, 36, 72), _multiple_tree(12)),
        # One big biconnected block: balance_td and the partitioner's
        # recursion; the degree bound prunes every pair, so no flow runs.
        ("grid", 4, "accept", (14, 20, 28, 40), _grid),
        ("wall", 3, "accept", (14, 20, 28, 40), _wall),
    ],
    # Step-2 flows, then a certified rejection of every flavour.
    "flow_reject": [
        ("k10_n", 9, "LargeComponent", (300, 600, 1200), _bipartite(10)),
        ("k13_n", 12, "LargeComponent", (600,), _bipartite(13)),
        ("multiple_tree40", 20, "LargeComponent", (30,), _multiple_tree(40)),
        ("fan", 2, "BlockDegree", (250, 500, 1000), _fan),
        ("k6_n", 3, "TreewidthLB", (60,), _bipartite(6)),
    ],
}


def build(workload: str, seed: int, rungs: int | None = None) -> list:
    """The workload's instances, family by family, smallest rung first;
    `rungs` keeps only that many of the smallest rungs per family."""
    import treepart as tp

    rng = random.Random(f"{workload}:{seed}")
    out = []
    for family, k, expect, sizes, gen in WORKLOADS[workload]:
        for rung, size in enumerate(sizes[:rungs]):
            graph = gen(tp, size, rng)
            out.append(Instance(family, rung, f"{family}/{size}", graph, k, expect))
    return out
