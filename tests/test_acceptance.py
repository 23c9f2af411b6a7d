"""Acceptance gate: twelve criteria, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; each criterion is its own test so a failure pinpoints the clause.
"""

import gc
import itertools
import json
import math
import random
import time
from pathlib import Path

from treepart.bridge import tcd_to_subdivision_tp, tp_lift_subdivision
from treepart.decomp import (
    TreeCutDecomposition,
    TreeDecomposition,
    TreePartition,
    Violation,
    verify_domino,
    verify_td,
    verify_tcd,
    verify_tp,
)
from treepart.exact import (
    brute_disjoint_paths,
    brute_mu,
    completion_tree,
    exact_tpw,
    valid_partitions_upto,
)
from treepart.families import (
    explicit_k3m_partition,
    gen_complete_bipartite,
    random_graph,
    random_tree,
)
from treepart.gadgets import (
    TcmisInstance,
    gen_domino_reduction,
    gen_tcmis_gadget,
    tcmis_witness_to_partition,
    tp_witness_to_domino,
)
from treepart.graph import Graph, subdivide
from treepart.pipeline import PipelineParams, run
from treepart.separators import b_reduction, build_gb, candidate_pairs, mu
from treepart.treewidth import balance_td, heuristic_td
from treepart.partitioner import CONSTANTS, partition_rooted

DATA = Path(__file__).parent / "data"


def _report(num: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d}: {status} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def _complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def _path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def test_criterion_01_validity_unconditional():
    rnd = random.Random(11)
    t0 = time.perf_counter()
    failures = accepts = 0
    for i in range(500):
        n = rnd.randrange(4, 61)
        p = rnd.uniform(0.05, 0.5)
        g = random_graph(n, p, 10_000 + i)
        for k in (1, 2, 3, 4):
            out = run(g, PipelineParams(k=k))
            if out.accepted:
                accepts += 1
                if verify_tp(g, out.tp) != out.width:
                    failures += 1
    elapsed = time.perf_counter() - t0
    _report(
        1,
        failures == 0 and elapsed < 300,
        f"500 graphs x k in 1..4, {accepts} accepts all verified, "
        f"{failures} failures, {elapsed:.1f}s",
    )


def test_criterion_02_rejection_soundness():
    rnd = random.Random(22)
    unsound = rejects = 0
    for i in range(300):
        n = rnd.randrange(2, 11)
        p = rnd.uniform(0.1, 0.7)
        g = random_graph(n, p, 20_000 + i)
        for k in (1, 2, 3):
            out = run(g, PipelineParams(k=k))
            if not out.accepted:
                rejects += 1
                if exact_tpw(g, k) is not None:
                    unsound += 1
    _report(
        2,
        unsound == 0,
        f"300 graphs x k in 1..3, {rejects} rejections, {unsound} unsound",
    )


def test_criterion_03_separator_oracle_equivalence():
    mismatches = checked = 0
    for i in range(100):
        n = random.Random(33 + i).randrange(2, 10)
        g = random_graph(n, 0.45, 30_000 + i)
        for s, t in itertools.combinations(range(g.n), 2):
            checked += 1
            val = mu(g, s, t)
            if val != brute_mu(g, s, t):
                mismatches += 1
            if g.n <= 8 and val != brute_disjoint_paths(g, s, t):
                mismatches += 1
    _report(3, mismatches == 0, f"{checked} pairs on 100 graphs, {mismatches} mismatches")


def test_criterion_04_structural_property_of_optimal_partitions():
    violations = partitions = 0
    for i in range(40):
        n = random.Random(44 + i).randrange(3, 9)
        g = random_graph(n, 0.5, 40_000 + i)
        k = exact_tpw(g, g.n)
        if k == 0:
            continue
        mus = {
            (s, t): mu(g, s, t)
            for s, t in itertools.combinations(range(g.n), 2)
        }
        for parts in valid_partitions_upto(g, k, cap=8):
            partitions += 1
            part_of = {}
            for idx, p in enumerate(parts):
                for v in p:
                    part_of[v] = idx
            tree = completion_tree(g, parts)
            adj = {
                frozenset(e) for e in tree
            }
            for (s, t), val in mus.items():
                same = part_of[s] == part_of[t]
                near = same or frozenset((part_of[s], part_of[t])) in adj
                # the same-bag threshold is max(2k-1, k+1): at k = 1 the
                # 2k-1 form degenerates below the adjacency threshold
                if val >= max(2 * k - 1, k + 1) and not same:
                    violations += 1
                elif val >= k + 1 and not near:
                    violations += 1
    _report(
        4,
        violations == 0,
        f"{partitions} optimal partitions audited, {violations} violations",
    )


def test_criterion_05_transport_validity():
    failures = instances = 0
    for i in range(60):
        rnd = random.Random(55 + i)
        g = random_graph(rnd.randrange(4, 26), rnd.uniform(0.1, 0.4), 50_000 + i)
        td = heuristic_td(g)
        w = td.width()
        b = w + 1 + rnd.randrange(0, 3)
        gb = build_gb(g, b, candidate_pairs(td))
        red = b_reduction(g, gb)
        bags = [sorted({red.part_of[v] for v in bag}) for bag in td.bags]
        tdh = TreeDecomposition(bags, list(td.tree_edges), td.root)
        instances += 1
        if isinstance(verify_td(red.h, tdh), Violation):
            failures += 1
    _report(5, failures == 0, f"{instances} transported decompositions, {failures} invalid")


def test_criterion_06_exact_oracle_regressions():
    ok = True
    for n in range(2, 9):
        ok &= exact_tpw(_complete(n), n) == (n + 1) // 2
    for n in range(3, 9):
        ok &= exact_tpw(_cycle(n), n) == 2
    for seed in range(20):
        ok &= exact_tpw(random_tree(10, seed), 2) == 1
    _report(6, ok, "cliques ceil(n/2), cycles 2, 20 random trees 1")


def test_criterion_07_balancing_contract():
    failures = instances = 0
    for i in range(40):
        rnd = random.Random(77 + i)
        g = random_graph(rnd.randrange(2, 41), rnd.uniform(0.05, 0.3), 70_000 + i)
        for strategy in ("min-degree", "min-fill"):
            td = heuristic_td(g, strategy)
            bal = balance_td(g, td)
            instances += 1
            bad = (
                isinstance(verify_td(g, bal), Violation)
                or bal.width() > 3 * td.width() + 2
                or bal.depth() > 4 * (1 + math.log2(bal.num_nodes))
            )
            failures += bad
    _report(7, failures == 0, f"{instances} balanced decompositions, {failures} out of contract")


def test_criterion_08_partition_width_regression():
    records = json.loads((DATA / "partition_width_regression.json").read_text())
    mismatches = 0
    within = 0
    for rec in records:
        g = Graph(rec["n"], [tuple(e) for e in rec["edges"]])
        td = heuristic_td(g, "min-fill", seed=0)
        tp = partition_rooted(g, td, {0})
        width = verify_tp(g, tp)
        if width != rec["width"]:
            mismatches += 1
        if width <= CONSTANTS.bound(rec["w"], rec["delta"]):
            within += 1
    _report(
        8,
        mismatches == 0 and len(records) == 50,
        f"50 pinned pairs, {mismatches} width mismatches; "
        f"{within}/50 within the reference bound (informational)",
    )


def _hand_tcds():
    out = []
    # singleton chains over paths and cycles of several lengths
    for n in (2, 3, 5, 8):
        g = _path(n)
        tcd = TreeCutDecomposition(
            [[v] for v in range(n)], [(i, i + 1) for i in range(n - 1)], root=0
        )
        out.append((g, tcd))
    for n in (4, 6):
        g = _cycle(n)
        tcd = TreeCutDecomposition(
            [[v] for v in range(n)], [(i, i + 1) for i in range(n - 1)], root=0
        )
        out.append((g, tcd))
    # two-vertex bags over a path
    g = _path(6)
    out.append(
        (g, TreeCutDecomposition([[0, 1], [2, 3], [4, 5]], [(0, 1), (1, 2)], root=0))
    )
    # one-bag decompositions
    out.append((_complete(4), TreeCutDecomposition([[0, 1, 2, 3]], [], root=0)))
    out.append((_cycle(5), TreeCutDecomposition([list(range(5))], [], root=0)))
    # near partition with an empty root over K_2
    out.append(
        (
            Graph(2, [(0, 1)]),
            TreeCutDecomposition([[], [0], [1]], [(0, 1), (1, 2)], root=0),
        )
    )
    return out


def test_criterion_09_subdivision_bridges():
    failures = 0
    tcds = _hand_tcds()
    assert len(tcds) == 10
    for g, tcd in tcds:
        width, nice = verify_tcd(g, tcd)
        assert nice, "hand-built decomposition must be nice"
        g2, _, tp = tcd_to_subdivision_tp(g, tcd)
        realized = verify_tp(g2, tp)
        if isinstance(realized, Violation) or realized > 2 + width * (width + 2) // 2 + width:
            failures += 1
    lifts = 0
    for i in range(50):
        rnd = random.Random(99 + i)
        g = random_graph(rnd.randrange(2, 11), 0.35, 90_000 + i)
        if g.n == 0:
            continue
        k = exact_tpw(g, g.n, cap=12)
        if k == 0:
            continue
        parts = valid_partitions_upto(g, k, cap=10)[0]
        tp = TreePartition(parts, completion_tree(g, parts), root=0)
        counts = {e: rnd.randrange(0, 4) for e in g.edges()}
        lifted, _, out = tp_lift_subdivision(g, tp, counts)
        g2, _ = subdivide(g, counts)
        realized = verify_tp(g2, out)
        lifts += 1
        if lifted != g2 or isinstance(realized, Violation) or realized > k * (k + 1):
            failures += 1
    _report(9, failures == 0, f"10 hand-built lowerings + {lifts} random lifts, {failures} failures")


def _tiny_tcmis_instances():
    return [
        (TcmisInstance(1, [], 1, 1, []), {(0, 1): 1}, None),
        (TcmisInstance(1, [], 1, 2, []), {(0, 1): 2}, None),
        (TcmisInstance(2, [(0, 1)], 1, 1, []), {(0, 1): 1, (1, 1): 1}, None),
        (
            TcmisInstance(2, [(0, 1)], 1, 2, [((0, 1, 1), (1, 1, 1))]),
            {(0, 1): 2, (1, 1): 2},
            {(0, 1): 1, (1, 1): 1},
        ),
        (
            TcmisInstance(1, [], 2, 2, [((0, 1, 1), (0, 2, 1))]),
            {(0, 1): 2, (0, 2) : 2},
            {(0, 1): 1, (0, 2): 1},
        ),
    ]


def test_criterion_10_gadget_fidelity():
    failures = 0
    for inst, witness, violating in _tiny_tcmis_instances():
        gad = gen_tcmis_gadget(inst)
        res = tcmis_witness_to_partition(gad, witness)
        width = verify_tp(gad.h, res.tp)
        if isinstance(width, Violation) or width > gad.big_l or res.overflow:
            failures += 1
        if violating is not None:
            bad = tcmis_witness_to_partition(gad, violating)
            if isinstance(verify_tp(gad.h, bad.tp), Violation):
                failures += 1
            if sorted(bad.overflow) != sorted(gad.markers):
                failures += 1
    pairs = 0
    for i in range(40):
        g = random_graph(random.Random(101 + i).randrange(2, 8), 0.4, 60_000 + i)
        if g.m == 0:
            continue
        k = exact_tpw(g, 3)
        if k is None or k == 0:
            continue
        parts = valid_partitions_upto(g, k, cap=8)[0]
        tp = TreePartition(parts, completion_tree(g, parts), root=0)
        h, reg = gen_domino_reduction(g, k)
        td = tp_witness_to_domino(g, k, tp, reg)
        w = verify_domino(h, td)
        pairs += 1
        if isinstance(w, Violation) or w > reg.big_m - 1:
            failures += 1
        if pairs >= 10:
            break
    _report(
        10,
        failures == 0 and pairs >= 10,
        f"5 instance witnesses + overflow localization + {pairs} reductions, "
        f"{failures} failures",
    )


def test_criterion_11_k3m_observation():
    t0 = time.perf_counter()
    tp = explicit_k3m_partition(1000)
    g = gen_complete_bipartite(3, 1000)
    width = verify_tp(g, tp)
    elapsed = time.perf_counter() - t0
    _report(11, width == 3 and elapsed < 1.0, f"width {width} in {elapsed:.3f}s")


def test_criterion_12_quadratic_time_smoke():
    """Doubling n at most quintuples the time of a path run.  Each rung is
    the best of 3 runs, each after a full collection and with the
    collector paused, so a full collection of the test session's heap
    (tens of milliseconds) never lands inside a timed run."""
    times = []
    for n in (1000, 2000, 4000):
        g = _path(n)
        best = math.inf
        for _ in range(3):
            gc.collect()
            gc.disable()
            try:
                t0 = time.perf_counter()
                out = run(g, PipelineParams(k=2))
                best = min(best, time.perf_counter() - t0)
            finally:
                gc.enable()
            assert out.accepted and verify_tp(g, out.tp) == out.width
        times.append(best)
    ratios = [times[i + 1] / times[i] for i in range(2)]
    _report(
        12,
        all(r <= 5 for r in ratios),
        "path timings "
        + ", ".join(f"{t:.2f}s" for t in times)
        + "; doubling ratios "
        + ", ".join(f"{r:.2f}" for r in ratios),
    )
