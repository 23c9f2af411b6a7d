import gc
import sys
from pathlib import Path

import pytest

from treepart import pipeline, treewidth
from treepart.decomp import TreeDecomposition, Violation, verify_td, verify_tp
from treepart.exact import exact_tpw
from treepart.families import (
    gen_complete_bipartite,
    gen_fan,
    gen_grid,
    gen_multiple_tree,
    gen_wall,
    random_graph,
    random_tree,
)
from treepart.graph import Graph, connected_components
from treepart.pipeline import (
    BlockDegree,
    LargeComponent,
    PipelineParams,
    TreewidthLB,
    degree_threshold,
    run,
)
from treepart.treewidth import heuristic_td, treewidth_lower_bound

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import corpus  # noqa: E402


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_degree_threshold_formula():
    assert degree_threshold(1, 2) == 2
    assert degree_threshold(2, 3) == 6
    assert degree_threshold(3, 8) == 3 * (1 + 2 * 6) + 3  # = 42
    with pytest.raises(ValueError):
        degree_threshold(0, 2)
    with pytest.raises(ValueError):
        degree_threshold(1, 1)


def test_accept_paths_and_trees():
    for g in (Graph(1), cycle(6), random_tree(40, 1)):
        out = run(g, PipelineParams(k=2))
        assert out.accepted
        assert verify_tp(g, out.tp) == out.width


def ladder(n):
    """The 2 x n grid."""
    rails = [(r * n + i, r * n + i + 1) for r in (0, 1) for i in range(n - 1)]
    return Graph(2 * n, rails + [(i, n + i) for i in range(n)])


@pytest.mark.parametrize("g, k", [(cycle(6000), 2), (ladder(4000), 3)], ids=["cycle", "ladder"])
def test_long_thin_blocks_are_accepted(g, k):
    """One block about n/w separator levels long, more than Python's
    default recursion limit, is partitioned and verified."""
    out = run(g, PipelineParams(k=k))
    assert out.accepted
    assert verify_tp(g, out.tp) == out.width


def test_reject_clique_with_certificate():
    out = run(complete(8), PipelineParams(k=1))
    assert not out.accepted
    assert isinstance(out.certificate, TreewidthLB)
    assert out.certificate.lb > out.certificate.bound == 1


def test_reject_is_sound_small_graphs():
    for seed in range(40):
        g = random_graph(8, 0.4, seed)
        for k in (1, 2):
            out = run(g, PipelineParams(k=k))
            if not out.accepted:
                assert exact_tpw(g, k) is None, (seed, k)
            else:
                assert verify_tp(g, out.tp) == out.width


def test_c4_k1_rejected_k2_accepted():
    g = cycle(4)
    out1 = run(g, PipelineParams(k=1))
    assert not out1.accepted and isinstance(out1.certificate, TreewidthLB)
    out2 = run(g, PipelineParams(k=2))
    assert out2.accepted and verify_tp(g, out2.tp) == out2.width


def test_large_component_certificate_recomputes():
    # the three left vertices of K_{3,6} are pairwise 6-connected, so the
    # auxiliary graph has a component of size 3 > k = 2
    from treepart.families import gen_complete_bipartite
    from treepart.separators import mu

    g = gen_complete_bipartite(3, 6)
    out = run(g, PipelineParams(k=2))
    assert not out.accepted
    cert = out.certificate
    assert isinstance(cert, LargeComponent)
    assert cert.vertices == frozenset({0, 1, 2})
    assert len(cert.vertices) > 2
    assert cert.b >= 2 * 2 - 1
    verts = sorted(cert.vertices)
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            assert mu(g, verts[i], verts[j]) >= cert.b


def test_block_degree_certificate_on_fans():
    from treepart.families import gen_fan

    g = gen_fan(7)
    out = run(g, PipelineParams(k=2))
    assert not out.accepted
    cert = out.certificate
    assert isinstance(cert, BlockDegree)
    assert cert.vertex == frozenset({7})  # the apex
    assert cert.degree == 7 > cert.threshold
    # rejection is sound: the fan really exceeds width 2
    assert exact_tpw(g, 2) is None


def test_trace_has_five_steps_in_order():
    out = run(cycle(6), PipelineParams(k=2))
    assert [r.step for r in out.trace] == [
        "step1",
        "step2",
        "step3",
        "step4",
        "step5",
    ]
    line = out.trace[0].format()
    assert line.startswith("step=step1") and "w=" in line


def test_step1_modes_agree_on_acceptance():
    g = random_graph(10, 0.25, 3)
    outs = []
    for step1 in ("heur:min-degree", "heur:min-fill", "exact"):
        outs.append(run(g, PipelineParams(k=2, step1=step1)))
    td = heuristic_td(g)
    outs.append(run(g, PipelineParams(k=2, step1="import", import_td=td)))
    assert len({o.accepted for o in outs}) == 1
    for o in outs:
        if o.accepted:
            assert verify_tp(g, o.tp) == o.width


def test_unknown_step1_mode_is_refused():
    # refused up front, so the verdict never depends on whether step 1
    # reaches the decomposition before the lower bound rejects
    for step1 in ("heur:bogus", "exact:min-degree", "nonsense"):
        with pytest.raises(ValueError, match="unknown step1 mode"):
            PipelineParams(k=2, step1=step1)


def test_b_override_validation():
    g = cycle(6)
    with pytest.raises(ValueError):
        run(g, PipelineParams(k=2, b_override=1))
    out = run(g, PipelineParams(k=2, b_override=10))
    assert out.accepted


def test_deterministic_across_runs():
    g = random_graph(30, 0.12, 9)
    a = run(g, PipelineParams(k=3))
    b = run(g, PipelineParams(k=3))
    assert a.accepted == b.accepted
    if a.accepted:
        assert a.tp.bags == b.tp.bags and a.tp.tree_edges == b.tp.tree_edges


def test_disconnected_input():
    g = Graph(9, [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 5)])
    out = run(g, PipelineParams(k=2))
    assert out.accepted
    assert verify_tp(g, out.tp) == out.width


def test_empty_graph():
    out = run(Graph(0), PipelineParams(k=1))
    assert out.accepted and out.width == 0


def test_invalid_import_td_is_refused():
    # C8 with two bags that miss vertices 6 and 7 and the edges through them
    g = cycle(8)
    td = TreeDecomposition([[0, 1, 2, 3], [4, 5]], [(0, 1)], root=0)
    assert verify_td(g, td) == Violation("vertex-coverage", 6)
    with pytest.raises(ValueError, match="vertex-coverage"):
        run(g, PipelineParams(k=2, step1="import", import_td=td))


def test_import_index_is_built_once(monkeypatch):
    g = Graph(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    td = heuristic_td(g)
    indexed = []
    real = pipeline._td_index

    def counting(t):
        indexed.append(t)
        return real(t)

    monkeypatch.setattr(pipeline, "_td_index", counting)
    assert run(g, PipelineParams(k=1, step1="import", import_td=td)).accepted
    assert sum(t is td for t in indexed) == 1


def test_size_rule_skips_block_decompositions(monkeypatch):
    calls = {"partition_rooted": 0, "partition_isolated": 0, "_extract_sub_td": 0}
    for name in calls:
        real = getattr(pipeline, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(pipeline, name, counting)
    # 10^4 bridges under one cutvertex: each is decided by its size alone
    star = gen_complete_bipartite(1, 10_000)
    out = run(star, PipelineParams(k=1))
    assert out.accepted and verify_tp(star, out.tp) == out.width
    assert calls == {"partition_rooted": 0, "partition_isolated": 0, "_extract_sub_td": 0}
    # a K_{2,12} block below a cutvertex c is decided by its size and c's
    # degree (13 - 1 <= 12 + 2 + 1); the root block, with no cut, is not
    g = gen_multiple_tree(random_tree(8, 1), 12)
    out = run(g, PipelineParams(k=7))
    assert out.accepted and verify_tp(g, out.tp) == out.width
    assert calls == {"partition_rooted": 1, "partition_isolated": 0, "_extract_sub_td": 1}


def test_step4_builds_one_reduced_decomposition_on_first_need(monkeypatch):
    """Step 1 keeps its elimination order, and the first block the size
    rule leaves builds the decomposition's tree from it and reduces it,
    once; a block that is all of H reads it in place.  Blocks the size
    rule decides, and rejects (every `flow_reject` instance), build
    nothing.  Step 2 hands `build_gb` no pair its degree bound rejects, so
    a fan's adjacent pairs of degree-b vertices never reach it."""
    calls = {"_td_from_elimination": 0, "reduce_td": 0, "_td_index": 0, "_extract_sub_td": 0}
    listed = []
    for name in calls:
        real = getattr(pipeline, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(pipeline, name, counting)
        if name == "_td_from_elimination":  # also behind heuristic_td
            monkeypatch.setattr(treewidth, name, counting)
    real_gb = pipeline.build_gb
    monkeypatch.setattr(pipeline, "build_gb", lambda g, b, pairs: listed.append(len(pairs)) or real_gb(g, b, pairs))

    def counted(g, k):
        calls.update(dict.fromkeys(calls, 0))
        listed.clear()
        return run(g, PipelineParams(k=k)).accepted, dict(calls)

    # grid 40 is one block and its own quotient
    assert counted(gen_grid(40), 16) == (
        True, {"_td_from_elimination": 1, "reduce_td": 1, "_td_index": 0, "_extract_sub_td": 0}
    )
    accepted, wall = counted(gen_wall(40), 16)
    assert accepted and wall["_td_from_elimination"] == wall["reduce_td"] == 1
    none = dict.fromkeys(calls, 0)
    assert counted(Graph(2000, [(i, i + 1) for i in range(1999)]), 2) == (True, none)
    assert counted(gen_complete_bipartite(1, 3000), 1) == (True, none)
    assert counted(gen_fan(7), 2) == (False, none)
    for inst in corpus.build("flow_reject", 1):
        assert counted(inst.graph, inst.k) == (False, none), inst.label
    assert counted(gen_fan(1000), 2) == (False, none) and listed == [0]


def test_one_block_input_is_never_copied(monkeypatch):
    """A connected input with one block and no merged pair is its own
    component, quotient and block: the graph `partition_rooted` gets is
    the input itself."""
    seen = []
    real = pipeline.partition_rooted

    def rooted(g, td, s_set):
        seen.append(g)
        return real(g, td, s_set)

    monkeypatch.setattr(pipeline, "partition_rooted", rooted)
    for g, k in ((gen_grid(6), 4), (gen_grid(9), 5), (cycle(9), 2)):
        seen.clear()
        out = run(g, PipelineParams(k=k))
        assert out.accepted and out.trace[1].fields["gb_edges"] == 0
        assert len(seen) == 1 and seen[0] is g


def test_windmill_blades_hand_the_partitioner_a_fixed_share():
    """Windmills of K_{2,12} blades on one hub (vertex 0): the blades
    below the hub are decided by the size rule, and the root blade hands
    `partition_rooted` at most the decomposition's nodes, once, and
    `partition_isolated` nothing; so step 4's input grows linearly in the
    blade count."""
    nodes_in = []
    real = pipeline.partition_rooted

    def counting(g, td, s_set):
        nodes_in.append(len(td.bags))
        return real(g, td, s_set)

    def isolated(g, td, v):
        raise AssertionError("a blade below the hub reached the partitioner")

    for blades in (25, 50, 100):
        g = gen_multiple_tree(gen_complete_bipartite(1, blades), 12)
        nodes_in.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline, "partition_rooted", counting)
            mp.setattr(pipeline, "partition_isolated", isolated)
            out = run(g, PipelineParams(k=7))
        assert out.accepted and verify_tp(g, out.tp) == out.width
        assert len(nodes_in) == 1
        assert nodes_in[0] <= heuristic_td(g).num_nodes


_STEP_KEYS = {
    "step1": {"w", "lb", "millis"},
    "step2": {"b", "gb_edges", "max_component", "millis"},
    "step3": {"h_n", "blocks", "millis"},
    "step4": {"delta_h", "threshold", "millis"},
    "step5": {"millis", "width"},
}


@pytest.mark.parametrize(
    "make, k, flavour, last_full, partial",
    [
        # accept: every step record is complete
        (lambda: cycle(6), 2, None, "step5", {}),
        (lambda: Graph(5, [(0, 1), (1, 2), (3, 4)]), 1, None, "step5", {}),
        # a rejection leaves the later steps empty; the rejecting step keeps
        # what it recorded before the verdict and has no millis
        (lambda: complete(5), 1, TreewidthLB, None, {"step1": set()}),
        (lambda: gen_complete_bipartite(3, 6), 2, LargeComponent, "step2", {}),
        (lambda: gen_fan(7), 2, BlockDegree, "step3", {"step4": {"delta_h", "threshold"}}),
    ],
)
def test_trace_key_sets_per_outcome(make, k, flavour, last_full, partial):
    out = run(make(), PipelineParams(k=k))
    assert out.accepted == (flavour is None)
    if flavour is not None:
        assert isinstance(out.certificate, flavour)
    steps = list(_STEP_KEYS)
    full = steps[: steps.index(last_full) + 1] if last_full else []
    for rec in out.trace:
        if rec.step in full:
            expected = _STEP_KEYS[rec.step]
        else:
            expected = partial.get(rec.step, set())
        assert set(rec.fields) == expected, rec.step


def lb_cases():
    """(graph, k) on connected graphs: both benchmark corpora at their k,
    grids and walls at k = 2 (rejected on the bound after the heuristic),
    and the largest component of random graphs at k in {1, 2, 3, 5}."""
    for workload in corpus.WORKLOADS:
        for inst in corpus.build(workload, 1):
            yield inst.graph, inst.k
    yield gen_grid(9), 2
    yield gen_wall(9), 2
    for i in range(60):
        g = random_graph(6 + i % 25, (0.1, 0.2, 0.35, 0.6)[i % 4], 700 + i)
        g = g.induced(max(connected_components(g), key=len))[0]
        for k in (1, 2, 3, 5):
            yield g, k


def test_step1_lb_is_the_minor_min_degree_bound(monkeypatch):
    """Step 1's lb is `treewidth_lower_bound` whichever branch sets it, and
    the contraction runs only where the minimum degree leaves it open."""
    calls = []
    monkeypatch.setattr(
        pipeline, "treewidth_lower_bound", lambda g: calls.append(g) or treewidth_lower_bound(g)
    )
    branches = set()
    for g, k in lb_cases():
        want = treewidth_lower_bound(g)
        delta = min(map(len, g.adj))
        for step1 in ("heur:min-degree", "import"):
            td = heuristic_td(g, seed=2 if step1 == "import" else 0)
            calls.clear()
            out = run(g, PipelineParams(k=k, step1=step1, import_td=td))
            if isinstance(out.certificate, TreewidthLB):
                assert out.certificate == TreewidthLB(want, 2 * k - 1)
            else:
                assert out.trace[0].fields["lb"] == want
                assert out.trace[0].fields["w"] == td.width()
            if delta > 2 * k - 1:
                branch = "delta > 2k-1"
            else:
                branch = "delta >= w" if delta >= td.width() else "delta < w"
            assert len(calls) == (branch != "delta >= w"), (branch, step1)
            branches.add((branch, step1, isinstance(out.certificate, TreewidthLB)))
    for step1 in ("heur:min-degree", "import"):
        assert {("delta > 2k-1", step1, True), ("delta >= w", step1, False)} <= branches
        assert {("delta < w", step1, True), ("delta < w", step1, False)} <= branches


def test_exact_mode_rejects_on_the_bound_before_its_capacity():
    out = run(gen_grid(5), PipelineParams(k=2, step1="exact"))
    assert out.certificate == TreewidthLB(4, 3)


@pytest.mark.parametrize(
    "g, params",
    [
        (gen_grid(20), PipelineParams(k=4)),
        (gen_wall(14), PipelineParams(k=3)),
        (gen_multiple_tree(random_tree(18, 1), 12), PipelineParams(k=7)),
        (gen_grid(12), PipelineParams(k=4, step1="import", import_td=heuristic_td(gen_grid(12)))),
        (gen_grid(3), PipelineParams(k=2, step1="exact")),
    ],
    ids=["grid", "wall", "multitree", "import", "exact"],
)
def test_run_leaves_no_cyclic_garbage(g, params):
    """A run in any step-1 mode builds no reference cycle, so it frees
    everything it made without the cyclic collector."""
    gc.collect()
    gc.disable()
    try:
        out = run(g, params)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert out.accepted
