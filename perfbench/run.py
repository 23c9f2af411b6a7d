"""Pipeline benchmark: timed verdicts on generated corpora, and a traced run
that splits the time over the pipeline's layers.

    python3 perfbench/run.py --workload accept --seed 1 --seconds 56 --trace 0

Run from the root of a source checkout; `treepart` is imported from its
`src/` directory.  Set-up imports `treepart` and generates the workload's
corpus from `--seed`, several times, and reports the median.  Then passes
run serially in this one process as a closed loop: the next
`treepart.run` starts only when the previous one has returned.  Passes
repeat while the next one fits in `--seconds`; at least one always runs.
Set-up repetitions and passes are pinned to the allowed CPUs in turn.
Every verdict is checked after its pass, outside the timed region.

With `--trace 0` the end-to-end metrics are reported.  With `--trace 1`
half of the time runs untraced passes and half runs traced ones, and the
per-layer metrics come from the traced passes.  Report lines go to
standard output; the last line is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# `checks` and `layers` import treepart, so they are imported inside
# functions, after set-up has imported treepart for the last time.
import corpus

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 11
CPUS = sorted(os.sched_getaffinity(0))
STEPS = ("step1", "step2", "step3", "step4", "step5")
# Wrapped spans that run inside each pipeline step, for the cross-check
# against the pipeline's own step timings.
STEP_SPANS = {
    "step1": ("treewidth.lower_bound", "treewidth.heuristic_td"),
    "step2": ("separators.candidate_pairs", "separators.build_gb"),
    "step3": ("separators.b_reduction", "graph.biconnected_components"),
    "step4": ("treewidth.balance_td", "partitioner.partition", "partitioner.combine_blocks"),
    "step5": ("partitioner.expand",),
}
# Layer timings compared when naming the layer that took the most time.
LAYER_SPANS = (
    "treewidth.lower_bound", "treewidth.heuristic_td", "treewidth.balance_td",
    "separators.candidate_pairs", "separators.mu", "separators.b_reduction",
    "partitioner.partition", "partitioner.combine_blocks", "partitioner.expand",
    "graph.connected_components", "graph.biconnected_components", "graph.induced",
)


class Pass:
    """One pass over the corpus, per instance: the outcome, the pipeline's
    own step record (None after an exception), the verdict seconds and,
    when traced, the spans."""

    def __init__(self, outcomes, fields, seconds, spans):
        self.outcomes = outcomes
        self.fields = fields
        self.seconds = seconds
        self.spans = spans
        self.verify_s = 0.0  # set by the checks


def use_cpu(n):
    """Pin this process to the n-th allowed CPU, round robin.  On a shared
    host each CPU slows down on its own, for minutes at a time; spreading
    the repetitions of a run over every CPU keeps the run from depending
    on the CPU the scheduler happened to pick."""
    os.sched_setaffinity(0, {CPUS[n % len(CPUS)]})


def fresh_import():
    """Import treepart as a first import would, dropping cached modules."""
    for name in [m for m in sys.modules if m == "treepart" or m.startswith("treepart.")]:
        del sys.modules[name]
    return importlib.import_module("treepart")


def setup(workload, seed, rungs):
    """(median set-up seconds, the last set-up's instances)."""
    times = []
    for rep in range(SETUP_REPS):
        use_cpu(rep)
        t0 = time.perf_counter()
        fresh_import()
        instances = corpus.build(workload, seed, rungs)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), instances


def run_pass(instances, trace=None) -> Pass:
    from treepart import PipelineParams, run

    outcomes, fields, seconds, spans = [], [], [], []
    gc.collect()
    if trace is not None:
        trace.take()
    for inst in instances:
        t0 = time.perf_counter()
        try:
            out = run(inst.graph, PipelineParams(inst.k))
        except Exception as exc:  # a failed verdict; the pass goes on
            out = exc
        seconds.append(time.perf_counter() - t0)
        outcomes.append(out)
        fields.append(None if isinstance(out, Exception) else {r.step: r.fields for r in out.trace})
        if trace is not None:
            spans.append(trace.take())
    return Pass(outcomes, fields, seconds, spans)


def timed_passes(budget, instances, checker, trace=None) -> list:
    """Passes while the next one, as long as the last, fits in `budget`.
    Only the run's first outcomes are kept, so memory does not grow with
    the number of passes."""
    done = []
    start = time.perf_counter()
    while True:
        use_cpu(checker.passes)
        t0 = time.perf_counter()
        done.append(run_pass(instances, trace))
        checker.check(done[-1])
        if checker.passes > 1:
            done[-1].outcomes = None
        now = time.perf_counter()
        if now - start + (now - t0) > budget:
            return done


class Checker:
    """Judges every outcome of every pass and collects the failures."""

    def __init__(self, instances):
        self.instances = instances
        self.attempted = 0
        self.failures = {}  # (pass number, instance index) -> reason
        self.sizes = None  # verdict sizes of the first pass
        self.passes = 0

    def check(self, p: Pass):
        from checks import check_outcome, verdict_size

        sizes = []
        for i, (inst, out) in enumerate(zip(self.instances, p.outcomes)):
            try:
                reason, spent = check_outcome(inst, out, p.fields[i])
                p.verify_s += spent
                size = None if reason else verdict_size(out)
            except Exception as exc:  # a malformed outcome is a failure
                reason, size = f"check raised {type(exc).__name__}: {exc}", None
            if reason is None and self.sizes is not None and size != self.sizes[i]:
                reason = f"verdict size {size} differs from the first pass's {self.sizes[i]}"
            if reason is not None:
                self.failures[(self.passes, i)] = reason
            sizes.append(size)
        if self.sizes is None:
            self.sizes = sizes
        self.attempted += len(self.instances)
        self.passes += 1

    def recheck_certificates(self, first: Pass):
        """Recompute the certificate of each rejecting family's smallest rung."""
        from checks import recheck_certificate

        for i, (inst, out) in enumerate(zip(self.instances, first.outcomes)):
            if inst.rung != 0 or inst.expect == "accept" or (0, i) in self.failures:
                continue
            try:
                reason = recheck_certificate(inst, out, first.fields[i])
            except Exception as exc:  # a recompute that breaks is a failure
                reason = f"recompute raised {type(exc).__name__}: {exc}"
            if reason is not None:
                self.failures[(0, i)] = reason


def median_times(passes):
    """Per instance, the median verdict seconds over the passes."""
    return [statistics.median(s) for s in zip(*(p.seconds for p in passes))]


def growth_exponents(instances, seconds) -> dict:
    """Per family with two or more rungs: the least-squares slope of
    ln(verdict seconds) against ln(n + m)."""
    points = defaultdict(list)
    for inst, s in zip(instances, seconds):
        points[inst.family].append((math.log(inst.graph.n + inst.graph.m), math.log(s)))
    return {
        fam: statistics.linear_regression(*zip(*pts)).slope
        for fam, pts in points.items()
        if len(pts) >= 2
    }


def end_to_end(instances, passes, setup_s, checker) -> dict:
    times = median_times(passes)
    growth = growth_exponents(instances, times)
    sizes = [s for s in checker.sizes if s is not None]
    return {
        "corpus_s": (sum(times), "s"),
        "growth_exp": (max(growth.values(), default=0.0), "slope"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "width_sum": (sum(sizes), "count"),
        "width_max": (max(sizes, default=0), "count"),
    }


def pass_layers(p: Pass) -> dict:
    """Per-layer metrics of one traced pass, summed over its instances."""
    sec, cnt, self_s = Counter(), Counter(), 0.0
    for (s, c, top), total in zip(p.spans, p.seconds):
        sec.update(s)
        cnt.update(c)
        self_s += total - top
    fields = [f for f in p.fields if f is not None]

    def field_sum(step, key):
        return sum(f.get(step, {}).get(key, 0) for f in fields)

    flows, pairs = cnt["separators.mu"], cnt["separators.pairs"]
    m = {
        "treewidth.lower_bound_s": (sec["treewidth.lower_bound"], "s"),
        "treewidth.heuristic_td_s": (sec["treewidth.heuristic_td"], "s"),
        "treewidth.balance_td_s": (sec["treewidth.balance_td"], "s"),
        "treewidth.balance_td_calls": (cnt["treewidth.balance_td"], "count"),
        "treewidth.balance_td_nodes_in": (cnt["treewidth.balance_td_nodes_in"], "count"),
        "pipeline.self_s": (self_s, "s"),
        "separators.flows": (flows, "count"),
        "separators.mu_s": (sec["separators.mu"], "s"),
        "separators.augmentations": (cnt["separators.augmentations"], "count"),
        "separators.flow_hit_ratio": (cnt["separators.flow_hits"] / flows if flows else 0.0, "ratio"),
        "separators.pairs": (pairs, "count"),
        "separators.pruned_ratio": (1 - flows / pairs if pairs else 0.0, "ratio"),
        "separators.candidate_pairs_s": (sec["separators.candidate_pairs"], "s"),
        "separators.build_gb_s": (sec["separators.build_gb"], "s"),
        "separators.b_reduction_s": (sec["separators.b_reduction"], "s"),
        "partitioner.partition_s": (sec["partitioner.partition"], "s"),
        "partitioner.partition_calls": (cnt["partitioner.partition"], "count"),
        "partitioner.combine_blocks_s": (sec["partitioner.combine_blocks"], "s"),
        "partitioner.expand_s": (sec["partitioner.expand"], "s"),
        "partitioner.bags_out": (cnt["partitioner.bags_out"], "count"),
        "graph.connected_components_s": (sec["graph.connected_components"], "s"),
        "graph.biconnected_components_s": (sec["graph.biconnected_components"], "s"),
        "graph.induced_s": (sec["graph.induced"], "s"),
    }
    for step in STEPS:
        m[f"pipeline.{step}_s"] = (field_sum(step, "millis") / 1000, "s")
    m["pipeline.components"] = (cnt["pipeline.components"], "count")
    m["pipeline.blocks"] = (field_sum("step3", "blocks"), "count")
    m["pipeline.quotient_n"] = (field_sum("step3", "h_n"), "count")
    m["pipeline.gb_edges"] = (field_sum("step2", "gb_edges"), "count")
    m["pipeline.w_max"] = (max((f["step1"].get("w", 0) for f in fields), default=0), "count")
    m["decomp.verify_tp_s"] = (p.verify_s, "s")
    return m


def per_layer(untraced, traced, checker) -> dict:
    per_pass = [pass_layers(p) for p in traced]
    m = {
        name: (statistics.median_low(d[name][0] for d in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    traced_s, untraced_s = sum(median_times(traced)), sum(median_times(untraced))
    m["bench.trace_overhead"] = (traced_s / untraced_s - 1, "ratio")
    m["fail_ratio"] = (len(checker.failures) / checker.attempted, "ratio")
    return m


def report_instances(instances, passes, checker):
    from treepart import CONSTANTS

    first = passes[0]
    rows = zip(instances, first.outcomes, first.fields, median_times(passes), checker.sizes)
    for inst, out, f, s, size in rows:
        g = inst.graph
        verdict = "error" if isinstance(out, Exception) else (
            "accept" if out.accepted else type(out.certificate).__name__)
        line = f"instance {inst.label} n={g.n} m={g.m} k={inst.k} verdict={verdict} size={size} s={s:.4f}"
        if verdict == "accept":
            w, delta = f["step1"]["w"], f["step4"]["delta_h"]
            bound = CONSTANTS.bound(w, delta)
            line += f" w={w} delta_h={delta} bound={bound:.1f} width/bound={out.width / bound:.4f}"
        print(line)
    for fam, slope in growth_exponents(instances, median_times(passes)).items():
        print(f"growth {fam} exponent={slope:.3f}")
    step_ms = defaultdict(Counter)
    for inst, f in zip(instances, first.fields):
        for step in STEPS:
            step_ms[inst.family][step] += (f or {}).get(step, {}).get("millis", 0.0)
    for fam, ms in step_ms.items():
        total = sum(ms.values()) or 1.0
        print(f"steps {fam} " + " ".join(f"{step}={ms[step] / total:.3f}" for step in STEPS))


def report_layers(traced, m):
    """Cross-check wrapped spans against the pipeline's step timings, and
    print each timed metric as a share of the traced pass."""
    wrapped, recorded, over = Counter(), Counter(), 0
    for p in traced:
        for (sec, _, _), fields in zip(p.spans, p.fields):
            if fields is None:
                continue
            for step, spans in STEP_SPANS.items():
                if "millis" not in fields[step]:
                    continue
                inside = sum(sec[s] for s in spans)
                wrapped[step] += inside
                recorded[step] += fields[step]["millis"] / 1000
                over += inside > fields[step]["millis"] / 1000 + 1e-6
    for step in STEPS:
        share = wrapped[step] / recorded[step] if recorded[step] else 0.0
        print(f"trace-check {step} wrapped={wrapped[step]:.4f}s recorded={recorded[step]:.4f}s share={share:.3f}")
    print(f"trace-check {'ok' if over == 0 else f'MISMATCH in {over} step records'}")

    total = sum(median_times(traced))
    shares = {name: v / total for name, (v, unit) in m.items()
              if unit == "s" and name != "decomp.verify_tp_s"}
    print("share " + " ".join(f"{name}={v:.3f}" for name, v in shares.items()))
    layers = [s + "_s" for s in LAYER_SPANS] + ["pipeline.self_s"]
    largest = max(layers, key=shares.get)
    print(f"largest-layer {largest} {shares[largest]:.3f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--rungs", type=int, default=None,
                    help="keep only the smallest RUNGS rungs of each family")
    args = ap.parse_args(argv)
    if not (SRC / "treepart" / "__init__.py").is_file():
        print(f"error: no treepart sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_s, instances = setup(args.workload, args.seed, args.rungs)
    from layers import LayerTrace

    checker = Checker(instances)
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = timed_passes(budget, instances, checker)
    checker.recheck_certificates(untraced[0])
    print(f"# {args.workload} seed={args.seed}: {len(instances)} instances, "
          f"{len(untraced)} untraced passes, setup {setup_s:.4f} s")
    report_instances(instances, untraced, checker)
    if args.trace:
        trace = LayerTrace()
        with trace.installed():
            traced = timed_passes(budget, instances, checker, trace)
        print(f"# {len(traced)} traced passes")
        metrics = per_layer(untraced, traced, checker)
        report_layers(traced, metrics)
    else:
        metrics = end_to_end(instances, untraced, setup_s, checker)
    for (pass_no, i), reason in sorted(checker.failures.items()):
        print(f"FAIL pass={pass_no} {instances[i].label}: {reason}")
    result = {
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
