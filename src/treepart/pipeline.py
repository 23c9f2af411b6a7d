"""Five-step tree-partition pipeline with certified rejection.

Steps: (1) tree decomposition plus a treewidth lower bound for certified
rejection; (2) auxiliary graph of highly-connected pairs; (3) quotient by
its components, split into blocks; (4) per-block partitions under a degree
threshold, built on the quotient's reduced decomposition as it is (no
rebalancing) and combined across cutvertices; (5) expansion back to the
input graph.

Every accepted output passes the tree-partition verifier; every rejection
carries a certificate that recomputes to a genuine obstruction.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field

from .decomp import TreeDecomposition, TreePartition, Violation, verify_td
from .graph import Graph, biconnected_components, connected_components, subgraph
# candidate_pairs, balance_td and heuristic_td stay importable: perfbench/layers.py times them here
from .separators import b_reduction, build_gb, candidate_pairs  # noqa: F401
from .treewidth import _td_from_elimination, balance_td, eliminate, exact_elimination  # noqa: F401
from .treewidth import heuristic_td, occupancy_tables, reduce_td, treewidth_lower_bound  # noqa: F401
from .partitioner import (
    combine_blocks,
    expand,
    partition_by_size,
    partition_isolated,
    partition_rooted,
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
    """Connected component of the auxiliary graph with more than k vertices."""

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

    def format(self) -> str:
        parts = [f"step={self.step}"]
        for key in sorted(self.fields):
            val = self.fields[key]
            if isinstance(val, float):
                parts.append(f"{key}={val:.3f}")
            else:
                parts.append(f"{key}={val}")
        return " ".join(parts)


@dataclass
class PipelineOutcome:
    accepted: bool
    tp: TreePartition | None = None
    width: int | None = None
    certificate: object = None
    trace: list = field(default_factory=list)


def _td_index(td: TreeDecomposition):
    """(vertex -> ascending node ids, node -> ascending incident tree-edge
    ids) of a decomposition, built in one pass over its bags and edges."""
    where = {}
    for i, bag in enumerate(td.bags):
        for v in bag:
            where.setdefault(v, []).append(i)
    incident = [[] for _ in td.bags]
    for e, (i, j) in enumerate(td.tree_edges):
        incident[i].append(e)
        incident[j].append(e)
    return where, incident


def _extract_sub_td(td: TreeDecomposition, new_id, index, cut=None) -> TreeDecomposition:
    """Restriction of a decomposition to a connected vertex subset.

    new_id maps the subset to its new vertex ids; index is `_td_index(td)`.
    Keeps the nodes whose bags meet the subset, in node order, and the tree
    edges between them, in `tree_edges` order; for a set inducing a
    connected subgraph these nodes form a connected subtree, because
    adjacent vertices share a bag and each vertex's occupancy is connected.

    With cut, the subset is a block B below its parent cutvertex cut, and
    only the nodes whose bags meet B - {cut} are kept.  The result is
    still a decomposition of the block:
    - B - cut is connected (a block of three or more vertices is
      2-connected, and a bridge leaves one vertex), so the kept nodes form
      a subtree by the argument above.
    - Every vertex other than cut keeps its whole occupancy.
    - cut's occupancy among the kept nodes is the intersection of two
      subtrees, so it is connected.
    - Each edge cut-x is covered by a node that holds x, and that node is
      kept.
    Each vertex is a member other than the parent cutvertex of exactly one
    block, so over all blocks at most sum |bag| nodes are kept, however
    many blocks share a cutvertex.

    Cost: linear in the kept nodes' bags and tree degrees, so
    O(w * sum |bag|) over all blocks below cutvertices.
    """
    where, incident = index
    nodes = sorted({i for v in new_id if v != cut for i in where.get(v, ())})
    node_id = {i: j for j, i in enumerate(nodes)}
    bags = [sorted(new_id[v] for v in td.bags[i] if v in new_id) for i in nodes]
    edges = []
    for e in sorted({e for i in nodes for e in incident[i]}):
        i, j = td.tree_edges[e]
        if i in node_id and j in node_id:
            edges.append((node_id[i], node_id[j]))
    return TreeDecomposition(bags, edges, root=0)


def _quotient_td(td: TreeDecomposition, red, gc: Graph) -> TreeDecomposition:
    """Step 4's decomposition of the quotient H = red.h of the component
    gc: the step-1 decomposition td when H is gc, else td's bags mapped
    through red.part_of on td's tree; in both cases reduced (`reduce_td`),
    which keeps the width and roots it at 0."""
    if red.h is not gc:
        bags = [sorted({red.part_of[v] for v in bag}) for bag in td.bags]
        td = TreeDecomposition(bags, td.tree_edges, root=0)
    return reduce_td(td)


def _step1(gc: Graph, params: PipelineParams, old_ids, lb: int, import_index):
    """Step 1's decomposition of gc as (width, own, tree): own[v] is v's
    top bag, the one nearest the root (with or without v), and tree()
    builds the decomposition.  For an elimination order own[v] is v's
    neighbour set when eliminated, so no bag is sorted unless step 4 asks."""
    if params.step1 == "import":
        new_id = {v: i for i, v in enumerate(old_ids)}
        td = _extract_sub_td(params.import_td, new_id, import_index)
        top = occupancy_tables(td)[0]
        return td.width(), [td.bags[top[v]] for v in range(gc.n)], lambda: td
    if params.step1 == "exact":
        found = next(filter(None, (exact_elimination(gc, w) for w in range(max(lb, 0), gc.n))))
    else:
        found = eliminate(gc, params.step1[5:], params.seed)
    order, own = found
    return max(map(len, own)), own, lambda: _td_from_elimination(gc.n, order, own)


def _step2_pairs(g: Graph, own, b: int) -> list:
    """The co-bagged pairs step 2 tests, sorted: those whose endpoints both
    have degree >= b, since mu(u, v) <= min(deg u, deg v) - [uv in E], less
    the adjacent ones with an endpoint of degree exactly b, which that
    bound rejects.  They are listed from the top bags own of `_step1`: two
    subtrees of a rooted tree that meet have the top node of their
    intersection at one of their own tops, so two vertices share a bag
    exactly when one is in the other's top bag."""
    deg = list(map(len, g.adj))
    return sorted({
        (h, y) if h < y else (y, h)
        for h in range(g.n) if deg[h] >= b
        for y in own[h]
        if y != h and deg[y] >= b and not (b in (deg[h], deg[y]) and g.has_edge(h, y))
    })


def _fold(record: dict, op, **fields) -> None:
    """Fold one component's values into a step's trace record: op is max
    for widths and sizes, operator.add for counts."""
    for key, val in fields.items():
        record[key] = op(record.get(key, 0), val)


def _lap(record: dict, t0: float) -> float:
    """Step timer: add the milliseconds since t0 to the record's `millis`
    and return the current time, where the next step starts.  A step that
    rejects returns before its lap, so its record has no `millis`."""
    now = time.perf_counter()
    _fold(record, operator.add, millis=1000 * (now - t0))
    return now


def _run_component(gc: Graph, params: PipelineParams, old_ids, stats, import_index):
    """Returns ("accept", local TreePartition) or ("reject", certificate).

    import_index is `_td_index(params.import_td)` with step1="import",
    built once for all components, and None otherwise.

    Step 1 runs the minor-min-degree bound mmd (`treewidth_lower_bound`)
    only where the minimum degree delta leaves it open, since delta <= mmd
    <= tw <= w for the width w of any decomposition (imports are verified
    first).  It runs first when delta > 2k - 1, where it must reject, and
    in exact mode, whose search starts at it and must reject before its
    capacity error.  Otherwise the decomposition comes first, and lb = w
    when delta >= w.  It is kept as its width and top bags (`_step1`), from
    which step 2 lists its pairs (`_step2_pairs`); step 3 reuses step 2's
    components of G^b.

    Step 4 partitions each block on its own.  One pass over H's edges
    gives each block its edge list (`BlockForest.block_edges`), from which
    the in-block degrees are counted, so a cutvertex of high degree costs
    each of its blocks only that block's edges.  A block whose size and
    in-block degrees already fix its partition takes it from
    `partition_by_size`.  Every other block is built as a graph from its
    edge list (H itself when it holds all of H), and the partitioner runs
    on its share of the reduced decomposition as it is: each separator
    bag is a weighted centroid, which every decomposition holds, so no
    rebalancing comes first.  The first such block
    builds step 1's tree, and from it H's reduced decomposition
    (`_quotient_td`), once, and drops the top bags; a block that is all of
    H reads it in place, while any other block extracts its share through
    `_td_index`, built on first use.  Below a cutvertex the extraction
    keeps only the nodes meeting the block minus the cutvertex, so a
    cutvertex shared by many blocks costs each block only its own share of
    the decomposition.  Inputs whose blocks the size rule decides, and
    rejects, build no decomposition at all."""
    k = params.k

    t0 = time.perf_counter()
    delta = min(map(len, gc.adj))
    w = None
    if not (params.step1 == "exact" or delta > 2 * k - 1):
        w, own, tree = _step1(gc, params, old_ids, 0, import_index)
    lb = w if w is not None and delta >= w else treewidth_lower_bound(gc)
    if lb > 2 * k - 1:
        return "reject", TreewidthLB(lb, 2 * k - 1)
    if w is None:
        w, own, tree = _step1(gc, params, old_ids, lb, import_index)
    _fold(stats["step1"], max, w=w, lb=lb)
    t0 = _lap(stats["step1"], t0)

    b = max(2 * k - 1, w + 1)
    if params.b_override is not None:
        if params.b_override < b:
            raise ValueError(f"b_override {params.b_override} below required {b}")
        b = params.b_override
    gb = build_gb(gc, b, _step2_pairs(gc, own, b))
    gb_comps = connected_components(gb)
    _fold(stats["step2"], max, b=b)
    _fold(stats["step2"], operator.add, gb_edges=gb.m)
    _fold(stats["step2"], max, max_component=max((len(c) for c in gb_comps), default=0))
    t0 = _lap(stats["step2"], t0)
    for comp in gb_comps:
        if len(comp) > k:
            return "reject", LargeComponent(
                frozenset(old_ids[v] for v in comp), b
            )

    red = b_reduction(gc, gb, gb_comps)
    h = red.h
    bf = biconnected_components(h)
    _fold(stats["step3"], operator.add, h_n=h.n, blocks=len(bf.blocks))
    t0 = _lap(stats["step3"], t0)

    thr = degree_threshold(k, max(b, 2))
    _fold(stats["step4"], max, delta_h=h.max_degree())
    stats["step4"]["threshold"] = thr
    block_edges = bf.block_edges(h)
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
    tdh = tdh_index = None  # built for the first block that needs them
    for bidx, blk in enumerate(bf.blocks):
        cut = bf.parent_cut[bidx]
        low, d_cut = degrees[bidx]
        tp_block = partition_by_size(blk, low, cut, d_cut)
        if tp_block is None:
            if tdh is None:
                tdh = _quotient_td(tree(), red, gc)
                own = tree = None  # the neighbour sets are not needed again
            sub, new_id = subgraph(h, blk, block_edges[bidx])
            if sub is h:  # extracting all of H returns tdh itself
                sub_td = tdh
            else:
                if tdh_index is None:
                    tdh_index = _td_index(tdh)
                sub_td = _extract_sub_td(tdh, new_id, tdh_index, cut)
            if cut is not None:
                tp_local = partition_isolated(sub, sub_td, new_id[cut])
            else:
                tp_local = partition_rooted(sub, sub_td, {0})
            tp_block = TreePartition(
                [sorted(blk[x] for x in bag) for bag in tp_local.bags],
                list(tp_local.tree_edges),
                tp_local.root,
            )
        per_block[bidx] = tp_block
    tp_h = combine_blocks(h, bf, per_block)
    t0 = _lap(stats["step4"], t0)

    tp = expand(tp_h, red)
    _lap(stats["step5"], t0)
    return "accept", tp


def run(g: Graph, params: PipelineParams) -> PipelineOutcome:
    """Run the full pipeline on g; disconnected inputs are handled per
    component and the resulting trees joined by arbitrary bag-to-bag edges.

    With step1="import", params.import_td must be a tree decomposition of g:
    a failed `verify_td` clause raises ValueError naming it.
    """
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

    import_index = _td_index(params.import_td) if params.step1 == "import" else None
    bags = []
    edges = []
    roots = []
    for comp in connected_components(g):
        gc, old_ids = g.induced(comp)
        status, payload = _run_component(gc, params, old_ids, stats, import_index)
        if status == "reject":
            trace = [TraceRecord(s, stats[s]) for s in stats]
            return PipelineOutcome(accepted=False, certificate=payload, trace=trace)
        offset = len(bags)
        for bag in payload.bags:
            bags.append(sorted(old_ids[v] for v in bag))
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
