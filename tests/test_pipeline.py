import gc
import json
import sys
from pathlib import Path

import pytest

from treepart import graph, pipeline, separators, treewidth
from treepart.decomp import MalformedDecomposition, TreeDecomposition, Violation, verify_td, verify_tp
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
from treepart.ioformats import emit_jsonl
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
from perfbench.checks import _spanning_tree_holds  # noqa: E402
from tools.dump_outputs import _outerplanar, _two_tree  # noqa: E402


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


@pytest.mark.parametrize("n", [2000, 4000, 8000, 16000])
def test_two_trees_reject_on_four_vertices_without_a_flow(monkeypatch, n):
    """A random 2-tree at k = 3 (w = 2, b = 5) has vertices of degree at
    least 5 sharing 5 neighbours, so the first pass of step 2 finds four
    vertices connected in G^b, and the pipeline rejects on exactly those
    with no max-flow at all."""
    flows = []
    monkeypatch.setattr(separators, "mu", lambda *args, **kw: flows.append(args))
    out = run(_two_tree(n, 0), PipelineParams(k=3))
    assert isinstance(out.certificate, LargeComponent)
    assert out.certificate.vertices == frozenset({0, 1, 2, 3})
    assert out.certificate.b == 5
    assert flows == []


def step2_cases():
    """The dump's random graphs and its flow corpus of random 2-trees and
    outerplanar graphs at k = 3."""
    for s in range(300):
        g = random_graph(30, 0.1, s)
        for k in (1, 2, 3, 5):
            yield g, k
    for gen in (_two_tree, _outerplanar):
        for n in (250, 500, 1000):
            for seed in range(4):
                yield gen(n, seed), 3


def test_large_component_is_k_plus_one_vertices_and_matches_all_of_gb(monkeypatch):
    """Each step-2 call that stops early has a component above k exactly
    when all of G^b does, and otherwise returns all of G^b; each
    `LargeComponent` holds k + 1 vertices that pairs with mu >= b span."""
    real = pipeline.build_gb
    checked = []

    def both(g, b, pairs, blocks, k):
        part = real(g, b, pairs, blocks, k)
        full = real(g, b, pairs)
        if max(map(len, connected_components(full))) > k:
            assert max(map(len, connected_components(part))) > k
            assert set(part.edges()) <= set(full.edges())
        else:
            assert part == full
        checked.append(b)
        return part

    monkeypatch.setattr(pipeline, "build_gb", both)
    rejects = 0
    for g, k in step2_cases():
        checked.clear()
        out = run(g, PipelineParams(k=k))
        cert = out.certificate
        if isinstance(cert, LargeComponent):
            rejects += 1
            assert len(cert.vertices) == k + 1
            assert cert.b == checked[-1]
            assert _spanning_tree_holds(g, cert.vertices, cert.b)
    assert rejects == 28


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
    lines = emit_jsonl({"step": r.step, **r.fields} for r in out.trace).splitlines()
    first = json.loads(lines[0])
    assert len(lines) == 5 and first["step"] == "step1" and "w" in first


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
    # a bag listing a vertex twice is malformed, not a wider decomposition
    repeated = TreeDecomposition([[0, 0, 1]], [], root=0)
    with pytest.raises(MalformedDecomposition, match="bag 0 repeats vertex 0"):
        run(Graph(2, [(0, 1)]), PipelineParams(k=1, step1="import", import_td=repeated))


def counting_calls(monkeypatch, names, module=pipeline):
    """Wrap each of module's names so that calls[name] lists the
    arguments of its calls."""
    calls = {name: [] for name in names}
    for name in names:
        real = getattr(module, name)

        def counting(*args, _real=real, _name=name):
            calls[_name].append(args)
            return _real(*args)

        monkeypatch.setattr(module, name, counting)
    return calls


def test_import_is_read_as_one_elimination_order(monkeypatch):
    """An import is read as one perfect elimination order per run, at its
    own root or, without one, at node 0 (`elimination_of`), and each of
    the input's four components restricts that order to its vertices."""
    g = Graph(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    td = heuristic_td(g)
    calls = counting_calls(monkeypatch, ("elimination_of", "restrict_elimination"))
    for t, root in ((td, td.root), (TreeDecomposition(td.bags, td.tree_edges), 0)):
        calls["elimination_of"].clear()
        calls["restrict_elimination"].clear()
        out = run(g, PipelineParams(k=1, step1="import", import_td=t))
        assert out.accepted and verify_tp(g, out.tp) == out.width
        (read,) = calls["elimination_of"]
        assert read[0].bags is td.bags and read[0].root == root and read[1] == g.n
        assert [args[2] for args in calls["restrict_elimination"]] == connected_components(g)


def test_size_rule_skips_block_decompositions(monkeypatch):
    names = ("partition_rooted", "partition_isolated", "clique_tree", "elimination_of", "restrict_elimination")
    calls = counting_calls(monkeypatch, names)
    # 10^4 bridges under one cutvertex: each is decided by its size alone
    star = gen_complete_bipartite(1, 10_000)
    out = run(star, PipelineParams(k=1))
    assert out.accepted and verify_tp(star, out.tp) == out.width
    assert all(not c for c in calls.values())
    # a K_{2,12} block below a cutvertex c is decided by its size and c's
    # degree (13 - 1 <= 12 + 2 + 1); the root block, with no cut, is not,
    # and takes the clique tree of the order restricted to it
    g = gen_multiple_tree(random_tree(8, 1), 12)
    out = run(g, PipelineParams(k=7))
    assert out.accepted and verify_tp(g, out.tp) == out.width
    counts = {name: len(c) for name, c in calls.items()}
    assert counts == dict.fromkeys(names, 0) | dict(partition_rooted=1, clique_tree=1, restrict_elimination=1)


def test_step4_builds_one_reduced_decomposition_on_first_need(monkeypatch):
    """Step 1 keeps its elimination order, and the first block the size
    rule leaves takes it as H's (H being the component), once, with no
    full tree of bags built: a block that is all of H reads its clique
    tree (`clique_tree`), and any other block the clique tree of the
    order restricted to it (`restrict_elimination`).  A merged quotient
    takes one more clique tree, of the component's, whose bags mapped
    onto H give H's order (`elimination_of`), and an import is read as
    one elimination order, restricted to the component in step 1.
    Blocks the size rule decides, and rejects (every `flow_reject`
    instance), build nothing.  Step 2 hands `build_gb` no pair its degree
    bound rejects, so a fan's adjacent pairs of degree-b vertices never
    reach it."""
    calls = counting_calls(monkeypatch, ("clique_tree", "elimination_of", "restrict_elimination"))
    calls |= counting_calls(monkeypatch, ("_td_from_elimination",), treewidth)  # behind heuristic_td
    listed = []
    real_gb = pipeline.build_gb
    monkeypatch.setattr(
        pipeline, "build_gb", lambda g, b, pairs, *rest: listed.append(len(pairs)) or real_gb(g, b, pairs, *rest)
    )

    def counted(g, k, **params):
        for c in calls.values():
            c.clear()
        listed.clear()
        return run(g, PipelineParams(k=k, **params)).accepted, {name: len(c) for name, c in calls.items()}

    # grid 40 is one block and its own quotient; wall 40's big block is
    # not all of it
    none = dict.fromkeys(calls, 0)
    assert counted(gen_grid(40), 16) == (True, dict(none, clique_tree=1))
    assert counted(gen_wall(40), 16) == (True, dict(none, clique_tree=1, restrict_elimination=1))
    # one pair of this graph merges, and one block of its quotient takes
    # the clique tree of the quotient's order restricted to it
    merged = dict(none, clique_tree=2, elimination_of=1, restrict_elimination=1)
    assert counted(random_graph(8, 0.6, 1189), 3) == (True, merged)
    # step 1 reads the import once and restricts it to the component, and
    # step 4 restricts the component's order to the wall's big block
    imported = dict(none, clique_tree=1, elimination_of=1, restrict_elimination=2)
    td = heuristic_td(gen_wall(10), "min-fill", 1)
    assert counted(gen_wall(10), 4, step1="import", import_td=td) == (True, imported)
    assert counted(Graph(2000, [(i, i + 1) for i in range(1999)]), 2) == (True, none)
    assert counted(gen_complete_bipartite(1, 3000), 1) == (True, none)
    assert counted(gen_fan(7), 2) == (False, none)
    for inst in corpus.build("flow_reject", 1):
        assert counted(inst.graph, inst.k) == (False, none), inst.label
    assert counted(gen_fan(1000), 2) == (False, none) and listed == [0]


def test_step3_takes_step2_blocks_when_nothing_merges(monkeypatch):
    """When G^b has no edge, H is the component, and step 3 takes the
    blocks that step 2's block test built for it (a tree) or searches them
    once itself (a grid, whose pairs never reach that test); a merged
    quotient gets its own search after step 2's."""
    searched = []
    real = graph.biconnected_components

    def counting(h):
        searched.append(h.n)
        return real(h)

    monkeypatch.setattr(pipeline, "biconnected_components", counting)
    monkeypatch.setattr(separators, "biconnected_components", counting)
    for g, k, want in (
        (random_tree(300, 1), 1, [300]),
        (gen_grid(10), 4, [100]),
        (random_graph(30, 0.12, 23), 3, [30, 29]),
    ):
        searched.clear()
        out = run(g, PipelineParams(k=k))
        assert out.accepted and verify_tp(g, out.tp) == out.width
        assert searched == want, g


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
    `partition_rooted` a decomposition of at most as many bags as it has
    vertices, once, and `partition_isolated` nothing, however many
    decomposition nodes hold the hub; so step 4's input stays fixed as
    the blade count grows."""
    handed = []
    real = pipeline.partition_rooted

    def counting(g, td, s_set):
        handed.append((g.n, len(td.bags)))
        return real(g, td, s_set)

    def isolated(g, td, v):
        raise AssertionError("a blade below the hub reached the partitioner")

    for blades in (25, 50, 100, 200):
        g = gen_multiple_tree(gen_complete_bipartite(1, blades), 12)
        handed.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline, "partition_rooted", counting)
            mp.setattr(pipeline, "partition_isolated", isolated)
            out = run(g, PipelineParams(k=7))
        assert out.accepted and verify_tp(g, out.tp) == out.width
        assert len(handed) == 1
        size, bags = handed[0]
        assert size == 14 and bags <= size, (blades, handed)


_STEP_KEYS = {
    "step1": {"w", "lb", "millis"},
    "step2": {"b", "gb_edges", "max_component", "millis"},
    "step3": {"h_n", "blocks", "millis"},
    "step4": {
        "delta_h", "threshold", "built_width", "refined_width", "layered_width", "layered_wins", "millis",
    },
    "step5": {"millis", "width"},
}


@pytest.mark.parametrize(
    "make, k, flavour, last_full, partial",
    [
        # accept: every step record is complete
        (lambda: cycle(6), 2, None, "step5", {}),
        (lambda: Graph(5, [(0, 1), (1, 2), (3, 4)]), 1, None, "step5", {}),
        # a rejection leaves the later steps empty; a step-1 reject records
        # its lower bound and millis, and a step-4 reject keeps what it
        # recorded before the verdict, with no millis
        (lambda: complete(5), 1, TreewidthLB, None, {"step1": {"lb", "millis"}}),
        (lambda: gen_complete_bipartite(3, 6), 2, LargeComponent, "step2", {}),
        (lambda: gen_fan(7), 2, BlockDegree, "step3", {"step4": {"delta_h", "threshold"}}),
        # a grid is rejected on step 1's bound after the heuristic ran
        (lambda: gen_grid(9), 2, TreewidthLB, None, {"step1": {"w", "lb", "millis"}}),
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


def disjoint_union(*graphs):
    edges, offset = [], 0
    for h in graphs:
        edges += [(offset + u, offset + v) for u, v in h.edges()]
        offset += h.n
    return Graph(offset, edges)


@pytest.mark.parametrize(
    "g, params, certificate",
    [
        (gen_grid(20), PipelineParams(k=4), None),
        (gen_wall(14), PipelineParams(k=3), None),
        (gen_multiple_tree(random_tree(18, 1), 12), PipelineParams(k=7), None),
        (gen_grid(12), PipelineParams(k=4, step1="import", import_td=heuristic_td(gen_grid(12))), None),
        (gen_grid(3), PipelineParams(k=2, step1="exact"), None),
        (disjoint_union(gen_grid(6), cycle(9), gen_grid(5)), PipelineParams(k=4), None),
        (gen_grid(5), PipelineParams(k=2), TreewidthLB),
        (gen_complete_bipartite(3, 20), PipelineParams(k=2), LargeComponent),
        (gen_fan(7), PipelineParams(k=2), BlockDegree),
    ],
    ids=["grid", "wall", "multitree", "import", "exact", "disconnected", "lb", "component", "degree"],
)
def test_run_leaves_no_cyclic_garbage(g, params, certificate):
    """A run in any step-1 mode, accepting or rejecting with any
    certificate, builds no reference cycle, so it frees everything it made
    without the cyclic collector."""
    gc.collect()
    gc.disable()
    try:
        out = run(g, params)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert out.accepted is (certificate is None)
    assert certificate is None or isinstance(out.certificate, certificate)


@pytest.mark.parametrize("enabled", [True, False])
def test_run_pauses_the_collector_and_restores_it(monkeypatch, enabled):
    """The collector is off while a run works and left as the caller had
    it, also after a run that raises part-way (a b_override below the
    required b)."""
    during = []
    real = pipeline._run_component
    monkeypatch.setattr(pipeline, "_run_component", lambda *args: during.append(gc.isenabled()) or real(*args))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert run(gen_grid(6), PipelineParams(k=4)).accepted
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError, match="b_override 2 below required"):
            run(gen_grid(6), PipelineParams(k=4, b_override=2))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False, False]
