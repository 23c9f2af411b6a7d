"""Per-layer tracing from outside the program.

`LayerTrace.installed()` rebinds the public layer functions that
`treepart.pipeline` and `treepart.separators` look up (and
`Graph.induced`) to timing wrappers, and restores the originals on exit.
Spans are summed per name; a span opened while no other wrapped span is
open is a direct child of `pipeline.run`, which gives the driver's self
time.  `take()` returns and clears what one pipeline run recorded.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

from treepart import graph, pipeline, separators


def _count_mu(counts, args, kwargs, result):
    cap = kwargs.get("cap", args[3] if len(args) > 3 else None)
    counts["separators.augmentations"] += result
    counts["separators.flow_hits"] += cap is not None and result >= cap


def _count_pairs(counts, args, kwargs, result):
    counts["separators.pairs"] += len(args[2])


def _count_balance(counts, args, kwargs, result):
    counts["treewidth.balance_td_nodes_in"] += len(args[1].bags)


def _count_bags(counts, args, kwargs, result):
    counts["partitioner.bags_out"] += len(result.bags)


# (owner, attribute, span name, extra counter)
_PATCHES = [
    (pipeline, "treewidth_lower_bound", "treewidth.lower_bound", None),
    (pipeline, "heuristic_td", "treewidth.heuristic_td", None),
    (pipeline, "balance_td", "treewidth.balance_td", _count_balance),
    (pipeline, "candidate_pairs", "separators.candidate_pairs", None),
    (pipeline, "build_gb", "separators.build_gb", _count_pairs),
    (pipeline, "b_reduction", "separators.b_reduction", None),
    (pipeline, "connected_components", "graph.connected_components", None),
    (pipeline, "biconnected_components", "graph.biconnected_components", None),
    (pipeline, "partition_isolated", "partitioner.partition", _count_bags),
    (pipeline, "partition_rooted", "partitioner.partition", _count_bags),
    (pipeline, "combine_blocks", "partitioner.combine_blocks", None),
    (pipeline, "expand", "partitioner.expand", None),
    (separators, "mu", "separators.mu", _count_mu),
    (separators, "connected_components", "graph.connected_components", None),
    (graph.Graph, "induced", "graph.induced", None),
]


class LayerTrace:
    def __init__(self):
        self.seconds = Counter()  # span name -> summed seconds
        self.counts = Counter()  # span name -> calls, plus extra counters
        self.top_s = 0.0  # seconds in spans called directly by the driver
        self._depth = 0

    def _wrap(self, fn, name, count):
        def wrapper(*args, **kwargs):
            self._depth += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - t0
                self._depth -= 1
                self.seconds[name] += spent
                self.counts[name] += 1
                if self._depth == 0:
                    self.top_s += spent
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return wrapper

    def _count_components(self, fn):
        def wrapper(*args, **kwargs):
            self.counts["pipeline.components"] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, count in _PATCHES:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self._wrap(saved[-1][2], name, count))
            saved.append((pipeline, "_run_component", pipeline._run_component))
            pipeline._run_component = self._count_components(saved[-1][2])
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def take(self):
        """(seconds, counts, top_s) since the last take; then clears them."""
        taken = (self.seconds, self.counts, self.top_s)
        self.seconds, self.counts, self.top_s = Counter(), Counter(), 0.0
        return taken
