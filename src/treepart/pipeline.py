"""Five-step tree-partition pipeline with certified rejection.

Steps: (1) tree decomposition plus a treewidth lower bound for certified
rejection; (2) auxiliary graph of highly-connected pairs; (3) quotient by
its components, split into blocks; (4) per-block partitions under a degree
threshold, each built on the clique tree of the quotient's perfect
elimination order restricted to the block, as it is (no rebalancing),
narrowed by `refine` or replaced by the refined breadth-first layering
where that is narrower, and combined across cutvertices; (5) expansion
back to the input graph.

Every accepted output passes the tree-partition verifier; every rejection
carries a certificate that recomputes to a genuine obstruction.
"""

from __future__ import annotations

import gc as collector
import operator
import time
from dataclasses import dataclass, field

from .decomp import TreeDecomposition, TreePartition, Violation, verify_td
from .graph import Graph, biconnected_components, connected_components, subgraph, tree_bfs
# candidate_pairs, balance_td and heuristic_td stay importable: perfbench/layers.py times them here
from .separators import b_reduction, build_gb, candidate_pairs  # noqa: F401
from .treewidth import balance_td, clique_tree, eliminate, elimination_of, exact_elimination  # noqa: F401
from .treewidth import heuristic_td, rank_of, restrict_elimination, treewidth_lower_bound  # noqa: F401
from .partitioner import (
    bfs_layering,
    combine_blocks,
    expand,
    partition_by_size,
    partition_isolated,
    partition_rooted,
    refine,
)


def degree_threshold(k: int, b: int) -> int:
    """Maximum block degree compatible with width k at threshold b, with a
    slack of k on top of the neighborhood-counting bound."""
    if k < 1 or b < 2:
        raise ValueError("need k >= 1 and b >= 2")
    return k * (1 + (k - 1) * (b - 2)) + k


@dataclass
class PipelineParams:
    k: int
    step1: str = "heur:min-degree"  # "exact" | "heur:<strategy>" | "import"
    seed: int = 0
    import_td: TreeDecomposition | None = None
    b_override: int | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.step1 not in ("exact", "import", "heur:min-degree", "heur:min-fill"):
            raise ValueError(f"unknown step1 mode {self.step1!r}")
        if self.step1 == "import" and self.import_td is None:
            raise ValueError("step1=import requires import_td")


@dataclass(frozen=True)
class TreewidthLB:
    """Certified treewidth lower bound exceeding 2k-1."""

    lb: int
    bound: int  # the 2k-1 threshold that was exceeded


@dataclass(frozen=True)
class LargeComponent:
    """k + 1 vertices connected in the auxiliary graph G^b: the first k + 1
    that a breadth-first search of step 2's G^b, cut short once a
    component exceeds k, reaches from that component's least vertex."""

    vertices: frozenset
    b: int


@dataclass(frozen=True)
class BlockDegree:
    """Vertex whose degree inside a quotient block exceeds the threshold.

    Vertex sets are given as the original-graph vertex groups making up the
    quotient block, so the certificate is self-contained.
    """

    block: tuple  # tuple of frozensets of original vertices
    vertex: frozenset  # original vertices of the offending quotient vertex
    degree: int
    threshold: int


@dataclass
class TraceRecord:
    step: str
    fields: dict


@dataclass
class PipelineOutcome:
    accepted: bool
    tp: TreePartition | None = None
    width: int | None = None
    certificate: object = None
    trace: list = field(default_factory=list)


def _step1(gc: Graph, params: PipelineParams, old_ids, lb: int, imported):
    """Step 1's decomposition of gc as (width, own, reduced), kept as a
    perfect elimination order: own[v] holds v's later neighbours
    (`eliminate`, `exact_elimination`, or the import's order, imported,
    restricted to old_ids by `restrict_elimination`), so no bag is sorted
    unless step 4 asks.  reduced(red) returns a perfect elimination order
    of the quotient red.h: this one when red.h is gc, else that of its
    clique tree's bags mapped through red.part_of (`elimination_of`)."""
    if imported is not None:
        order, own = restrict_elimination(*imported, old_ids)
    elif params.step1 == "exact":
        order, own = next(filter(None, (exact_elimination(gc, w) for w in range(max(lb, 0), gc.n))))
    else:
        order, own = eliminate(gc, params.step1[5:], params.seed)

    def reduced(red):
        if red.h is gc:
            return order, own
        td = clique_tree(order, own)
        bags = [{red.part_of[v] for v in bag} for bag in td.bags]
        return elimination_of(TreeDecomposition(bags, td.tree_edges, root=0), red.h.n)

    return max(map(len, own)), own, reduced


def _step2_pairs(g: Graph, own, b: int) -> list:
    """The co-bagged pairs step 2 tests, sorted: those whose endpoints both
    have degree >= b, since mu(u, v) <= min(deg u, deg v) - [uv in E], less
    the adjacent ones with an endpoint of degree exactly b, which that
    bound rejects.  They are listed from the later-neighbour sets own of
    `_step1`'s perfect elimination order, whose pairs are the co-bagged
    ones of its decomposition (step 1's tree, or the import's)."""
    deg = list(map(len, g.adj))
    return sorted({
        (h, y) if h < y else (y, h)
        for h in range(g.n) if deg[h] >= b
        for y in own[h]
        if deg[y] >= b and not (b in (deg[h], deg[y]) and g.has_edge(h, y))
    })


def _fold(record: dict, op, **fields) -> None:
    """Fold one component's values into a step's trace record: op is max
    for widths and sizes, operator.add for counts."""
    for key, val in fields.items():
        record[key] = op(record.get(key, 0), val)


def _lap(record: dict, t0: float) -> float:
    """Step timer: add the milliseconds since t0 to the record's `millis`
    and return the current time, where the next step starts.  Steps 1 and 2
    lap before their reject tests, so `TreewidthLB` and `LargeComponent`
    rejects record `millis`; a `BlockDegree` reject, in step 4, does not."""
    now = time.perf_counter()
    _fold(record, operator.add, millis=1000 * (now - t0))
    return now


def _run_component(gc: Graph, params: PipelineParams, old_ids, stats, imported):
    """Returns ("accept", local TreePartition) or ("reject", certificate).

    imported is the import's perfect elimination order of the whole input
    as (rank, later neighbours), read once for all components, or None.

    Step 1 runs the minor-min-degree bound mmd (`treewidth_lower_bound`)
    only where the minimum degree delta leaves it open, since delta <= mmd
    <= tw <= w for the width w of any decomposition (imports are verified
    first).  It runs first when delta > 2k - 1, where it must reject, and
    in exact mode, whose search starts at it and must reject before its
    capacity error.  Otherwise the decomposition comes first, and lb = w
    when delta >= w.  It is kept as its width and a perfect elimination
    order (`_step1`), from whose later-neighbour sets step 2 lists its
    pairs (`_step2_pairs`).

    Step 2 hands `build_gb` k, so on a reject its G^b stops where one
    component first exceeds k, and the trace's gb_edges and max_component
    are that partial graph's.  The certificate is the first k + 1
    vertices a breadth-first search of it reaches from that component's
    least vertex: connected by pairs with mu >= b, and no larger than any
    certificate needs to be.

    Step 3 reuses step 2's components of G^b.  One pass over H's edges
    gives each block its edge list (`BlockForest.block_edges`).  When G^b
    has no edge, H is gc, and the block forest and edge lists that step
    2's block test built for gc, if it ran, are H's.

    Step 4 partitions each block on its own.  The in-block degrees are
    counted from the edge lists, so a cutvertex of high degree costs
    each of its blocks only that block's edges.  A block whose size and
    in-block degrees already fix its partition takes it from
    `partition_by_size`.  Every other block is built as a graph from its
    edge list (H itself when it holds all of H), and the partitioner runs
    on its clique tree as it is: each separator bag is a weighted
    centroid, which every decomposition holds, so no rebalancing comes
    first.  The first such block takes H's perfect elimination order,
    once, from `_step1`'s reduced.  The clique tree (`clique_tree`) is the
    order's for a block that is all of H, else that of the order
    restricted to the block (`restrict_elimination`), with at most one
    bag per block vertex, so a cutvertex shared by many blocks costs each
    block only its own size.  Inputs whose blocks the size rule decides,
    and rejects, build no decomposition at all.  Each partition so built
    has two candidates: `refine` of it, and `refine` of the block's
    breadth-first layering (`bfs_layering`) from its contract vertex, the
    parent cutvertex, which both keep alone in the root bag, or vertex 0
    of a root block.  The block keeps the narrower, counted in input
    vertices, and the refined one on a tie.  `refine` grows no bag, so the
    accepted width is at most what the partition built gives.  The trace
    records the widest block as built, refined and layered, and how many
    blocks the layered candidate won.

    Step 5 expands each quotient vertex into its part; when H is gc, step
    4's partition, whose bags are sorted, is already the answer."""
    k = params.k

    t0 = time.perf_counter()
    delta = min(map(len, gc.adj))
    w = None
    if not (params.step1 == "exact" or delta > 2 * k - 1):
        w, own, reduced = _step1(gc, params, old_ids, 0, imported)
    lb = w if w is not None and delta >= w else treewidth_lower_bound(gc)
    if w is None and lb <= 2 * k - 1:
        w, own, reduced = _step1(gc, params, old_ids, lb, imported)
    _fold(stats["step1"], max, **({"lb": lb} if w is None else {"w": w, "lb": lb}))
    t0 = _lap(stats["step1"], t0)
    if lb > 2 * k - 1:
        return "reject", TreewidthLB(lb, 2 * k - 1)

    b = max(2 * k - 1, w + 1)
    if params.b_override is not None:
        if params.b_override < b:
            raise ValueError(f"b_override {params.b_override} below required {b}")
        b = params.b_override
    blocks = []  # gc's block forest and block edges, when step 2 builds them
    gb = build_gb(gc, b, _step2_pairs(gc, own, b), blocks, k)  # all of G^b unless it rejects
    gb_comps = connected_components(gb)
    _fold(stats["step2"], max, b=b)
    _fold(stats["step2"], operator.add, gb_edges=gb.m)
    largest = max(map(len, gb_comps), default=0)
    _fold(stats["step2"], max, max_component=largest)
    t0 = _lap(stats["step2"], t0)
    if largest > k:
        comp = next(c for c in gb_comps if len(c) > k)
        reached = tree_bfs(gb.adj, comp[0])[1][: k + 1]
        return "reject", LargeComponent(frozenset(old_ids[v] for v in reached), b)

    red = b_reduction(gc, gb, gb_comps)
    h = red.h
    if h is gc and blocks:
        bf, block_edges = blocks[0]
    else:
        bf = biconnected_components(h)
        block_edges = bf.block_edges(h)
    _fold(stats["step3"], operator.add, h_n=h.n, blocks=len(bf.blocks))
    t0 = _lap(stats["step3"], t0)

    thr = degree_threshold(k, max(b, 2))
    _fold(stats["step4"], max, delta_h=h.max_degree())
    stats["step4"]["threshold"] = thr
    degree = [0] * h.n  # in-block degrees of the block being scanned
    degrees = []  # per block: minimum in-block degree, parent cutvertex's in-block degree
    for blk, blk_edges, cut in zip(bf.blocks, block_edges, bf.parent_cut):
        for u, v in blk_edges:
            degree[u] += 1
            degree[v] += 1
        d_cut = 0 if cut is None else degree[cut]
        low = len(blk)
        for v in blk:
            d, degree[v] = degree[v], 0
            low = min(low, d)
            if d > thr:
                groups = tuple(frozenset(old_ids[x] for x in red.parts[u]) for u in blk)
                return "reject", BlockDegree(groups, groups[blk.index(v)], d, thr)
        degrees.append((low, d_cut))
    per_block = {}
    size = None if h is gc else list(map(len, red.parts))  # input vertices per vertex of H
    widest = [0, 0, 0]  # widest partitioned block: built, refined, layered
    layered_wins = 0
    rank = None  # of H's elimination order, taken for the first block that needs it
    for bidx, blk in enumerate(bf.blocks):
        cut = bf.parent_cut[bidx]
        low, d_cut = degrees[bidx]
        tp_block = partition_by_size(blk, low, cut, d_cut)
        if tp_block is None:
            if rank is None:
                order, own = reduced(red)
                rank = rank_of(order)
            sub, new_id = subgraph(h, blk, block_edges[bidx])
            if sub is h:
                sub_td = clique_tree(order, own)
            else:
                sub_td = clique_tree(*restrict_elimination(rank, own, blk))
            if cut is not None:
                root = new_id[cut]
                built = partition_isolated(sub, sub_td, root)
            else:
                root = 0
                built = partition_rooted(sub, sub_td, {0})
            candidates = built, refine(sub, built), refine(sub, bfs_layering(sub, root))
            if size is None:
                widths = [c.width() for c in candidates]
            else:  # in input vertices
                widths = [max(sum(size[blk[x]] for x in bag) for bag in c.bags) for c in candidates]
            layered = widths[2] < widths[1]
            tp_local = candidates[1 + layered]
            layered_wins += layered
            widest = list(map(max, widest, widths))
            tp_block = TreePartition(
                [[blk[x] for x in bag] for bag in tp_local.bags],
                list(tp_local.tree_edges),
                tp_local.root,
            )
        per_block[bidx] = tp_block
    tp_h = combine_blocks(h, bf, per_block)
    _fold(stats["step4"], max, built_width=widest[0], refined_width=widest[1], layered_width=widest[2])
    _fold(stats["step4"], operator.add, layered_wins=layered_wins)
    t0 = _lap(stats["step4"], t0)

    tp = tp_h if h is gc else expand(tp_h, red)  # step 4's bags are sorted
    _lap(stats["step5"], t0)
    return "accept", tp


def run(g: Graph, params: PipelineParams) -> PipelineOutcome:
    """Run the full pipeline on g; disconnected inputs are handled per
    component and the resulting trees joined by arbitrary bag-to-bag edges.

    With step1="import", params.import_td must be a tree decomposition of g:
    a failed `verify_td` clause raises ValueError naming it.

    The cyclic garbage collector is paused for the run, and the caller's
    setting is restored however the run ends.  The pause is process-wide:
    other threads get no automatic collection until the run returns.  It
    is safe because a run builds no reference cycle, so reference
    counting alone frees everything it drops, and the collections its
    allocations would trigger would find none of its objects to free.
    Runs overlapping in threads leave the collector enabled if it was
    when the first of them began.
    """
    enabled = collector.isenabled()
    collector.disable()
    try:
        return _run(g, params)
    finally:
        if enabled:
            collector.enable()


def _run(g: Graph, params: PipelineParams) -> PipelineOutcome:
    if params.step1 == "import":
        res = verify_td(g, params.import_td)
        if isinstance(res, Violation):
            raise ValueError(
                f"import_td is not a tree decomposition of the input: "
                f"{res.clause} at {res.witness!r}"
            )

    stats = {s: {} for s in ("step1", "step2", "step3", "step4", "step5")}
    if g.n == 0:
        trace = [TraceRecord(s, stats[s]) for s in stats]
        return PipelineOutcome(
            accepted=True,
            tp=TreePartition([], [], root=None),
            width=0,
            trace=trace,
        )

    imported = None
    if params.step1 == "import":  # one order for all components, at the import's root or node 0
        td = params.import_td
        order, own = elimination_of(td if td.root is not None else TreeDecomposition(td.bags, td.tree_edges, 0), g.n)
        imported = rank_of(order), own
    bags = []
    edges = []
    roots = []
    for comp in connected_components(g):
        gc, old_ids = g.induced(comp)
        status, payload = _run_component(gc, params, old_ids, stats, imported)
        if status == "reject":
            trace = [TraceRecord(s, stats[s]) for s in stats]
            return PipelineOutcome(accepted=False, certificate=payload, trace=trace)
        offset = len(bags)
        if gc is g:  # a connected input: old_ids is the identity
            bags += payload.bags
        else:
            bags += (sorted(old_ids[v] for v in bag) for bag in payload.bags)
        for i, j in payload.tree_edges:
            edges.append((offset + i, offset + j))
        roots.append(offset + (payload.root if payload.root is not None else 0))
    for extra in roots[1:]:
        edges.append((roots[0], extra))
    tp = TreePartition(bags, edges, root=roots[0])
    width = max(len(b) for b in bags)
    stats["step5"]["width"] = width
    trace = [TraceRecord(s, stats[s]) for s in stats]
    return PipelineOutcome(accepted=True, tp=tp, width=width, trace=trace)
