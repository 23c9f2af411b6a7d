"""The heap-driven elimination and lower bound, the clique tree of a
perfect elimination order, the subtree-size split choice of
`balance_td`, the block forest, step 2's listing of
pairs from each vertex's own bag, the flow-saving tests of `build_gb`,
the weighted-centroid climb of the partitioner, its job loop, the
component join of `combine_blocks` and step 4's size rule must return exactly what the
straightforward versions return.  The clique tree of an order restricted
to a vertex subset must have exactly the maximal bags of the scan of
that subset.

The straightforward versions are kept here as reference oracles: one `min`
over all alive vertices per step, run on random, hub-heavy and
simplicial-heavy graphs (and, for the lower bound, both the degeneracy and
the contraction bound), one contraction at a time
on explicit neighbour sets, one scan of every bag and tree edge per vertex
subset (keeping the nodes that meet it, or a block minus its parent
cutvertex), one component search per split candidate, a block-forest
search that expands a cutvertex from every block holding it, one pair listing per bag, one
whole-graph flow per pair the degree bound keeps, a centroid that sums
the contract set's counts over every subtree of the whole tree and
descends from the root, the recursive boundary construction (one call per
bag, every component listed and grouped), a union-find join of the
combined partition's tree components, and step 4's full per-block path
(decompose, partition) for every block.  Bags, tree edges (in order),
roots, block forests, auxiliary graphs and separator nodes must match, so
a drift in a tie-break, in edge order or in a pruning test fails.  A balanced tree, whose node numbers
and child order the partitions never read, must match as a rooted,
bag-labelled tree.

The tuple-heap elimination and lower bound, the list-frame block search
and the explicit-stack exact search, which the int-keyed heap, the
iterator frames and the recursive search replaced, are kept as
references too: on both benchmark corpora and 300 random graphs (random
graphs of at most 12 vertices for the exact search) the new code must
return exactly what they return.  So are the subtree vertex sets that
read a tree-cut decomposition before one tree climb per host edge did:
on 2,500 random decompositions, nice and not, the cuts and the thin node
that breaks niceness must match.
"""

import functools
import heapq
import importlib.util
import itertools
import random
import sys
from pathlib import Path

import pytest

from treepart import partitioner, pipeline, treewidth
from treepart.decomp import (
    TreeCutDecomposition,
    TreeDecomposition,
    TreePartition,
    non_nice_node,
    occupancy_tables,
    tcd_cuts,
    verify_td,
)
from treepart.exact import _bits
from treepart.families import (
    gen_complete_bipartite,
    gen_fan,
    gen_grid,
    gen_multiple_tree,
    gen_wall,
    random_graph,
    random_tree,
)
from treepart.graph import (
    BlockForest,
    Graph,
    biconnected_components,
    connected_components,
    subgraph,
    tree_bfs,
)
from treepart.partitioner import (
    CONSTANTS,
    balanced_separator_bag,
    combine_blocks,
    partition_by_size,
    partition_isolated,
    partition_rooted,
)
from treepart.pipeline import PipelineParams, _step1, _step2_pairs, run
from treepart.separators import b_reduction, build_gb, candidate_pairs, mu
from treepart.treewidth import (
    _td_from_elimination,
    balance_td,
    clique_tree,
    eliminate,
    elimination_of,
    exact_elimination,
    _q_mask,
    heuristic_td,
    rank_of,
    restrict_elimination,
    treewidth_lower_bound,
)


# ---------------------------------------------------------------------------
# reference oracles: the full scans
# ---------------------------------------------------------------------------


def ref_td_from_elimination(order, elim_bags):
    pos = {v: i for i, v in enumerate(order)}
    bags = [sorted(elim_bags[v]) for v in order]
    edges = []
    for i, v in enumerate(order[:-1]):
        later = [u for u in elim_bags[v] if u != v]
        j = min(pos[u] for u in later) if later else i + 1
        edges.append((i, j))
    return TreeDecomposition(bags, edges, root=len(order) - 1)


def ref_heuristic_td(g, strategy="min-degree", seed=0):
    n = g.n
    if n == 0:
        return TreeDecomposition([[]], [], root=0)
    rnd = random.Random(seed)
    salt = [rnd.random() for _ in range(n)]
    nbr = [set(g.adj[v]) for v in range(n)]
    alive = set(range(n))
    order = []
    elim_bags = {}

    def fill_score(v):
        nv = sorted(nbr[v])
        return sum(
            1
            for i in range(len(nv))
            for j in range(i + 1, len(nv))
            if nv[j] not in nbr[nv[i]]
        )

    score = (lambda v: len(nbr[v])) if strategy == "min-degree" else fill_score
    for _ in range(n):
        v = min(alive, key=lambda u: (score(u), salt[u], u))
        order.append(v)
        elim_bags[v] = nbr[v] | {v}
        nv = nbr[v]
        for u in nv:
            nbr[u] |= nv
            nbr[u].discard(u)
            nbr[u].discard(v)
        alive.remove(v)
    return ref_td_from_elimination(order, elim_bags)


def ref_treewidth_lower_bound(g):
    n = g.n
    if n == 0:
        return 0
    nbr = [set(g.adj[v]) for v in range(n)]
    alive = set(range(n))
    degen = 0
    while alive:
        v = min(alive, key=lambda u: (len(nbr[u]), u))
        degen = max(degen, len(nbr[v]))
        for u in nbr[v]:
            nbr[u].discard(v)
        alive.remove(v)
    nbr = [set(g.adj[v]) for v in range(n)]
    alive = set(range(n))
    mmd = 0
    while len(alive) > 1:
        v = min(alive, key=lambda u: (len(nbr[u]), u))
        d = len(nbr[v])
        mmd = max(mmd, d)
        alive.remove(v)
        if d == 0:
            continue
        u = min(nbr[v], key=lambda w: (len(nbr[w] & nbr[v]), w))
        for w in nbr[v]:
            nbr[w].discard(v)
            if w != u:
                nbr[w].add(u)
                nbr[u].add(w)
        nbr[u].discard(u)
        nbr[v].clear()
    return max(degen, mmd)


def ref_extract_sub_td(td, vertices, new_id, cut=None):
    """Every node whose bag meets vertices - {cut}, with its bag
    restricted to vertices and renamed by new_id, and the tree edges
    between them, rooted at 0: a decomposition of the subgraph induced by
    a connected vertex subset, or by a block below its parent cutvertex
    cut."""
    vset = set(vertices)
    rest = vset - {cut}
    keep = []
    for i, bag in enumerate(td.bags):
        if rest.intersection(bag):
            keep.append((i, sorted(new_id[v] for v in bag if v in vset)))
    node_id = {i: j for j, (i, _) in enumerate(keep)}
    edges = [
        (node_id[i], node_id[j])
        for i, j in td.tree_edges
        if i in node_id and j in node_id
    ]
    return TreeDecomposition([bag for _, bag in keep], edges, root=0)


def ref_reduce_td(td):
    """Contract node by node on explicit neighbour sets: visit by (bag
    size, id), move each node's neighbours to its lowest-id neighbour
    whose bag contains its own."""
    n = td.num_nodes
    sets = [set(b) for b in td.bags]
    nbr = [set() for _ in range(n)]
    for i, j in td.tree_edges:
        nbr[i].add(j)
        nbr[j].add(i)
    alive = [True] * n
    for i in sorted(range(n), key=lambda x: (len(sets[x]), x)):
        up = [j for j in nbr[i] if sets[i] <= sets[j]]
        if not up:
            continue
        j = min(up)
        alive[i] = False
        for z in nbr[i]:
            nbr[z].discard(i)
            if z != j:
                nbr[z].add(j)
                nbr[j].add(z)
        nbr[i] = set()
    keep = [i for i in range(n) if alive[i]]
    new_id = {i: t for t, i in enumerate(keep)}
    edges = sorted((new_id[i], new_id[j]) for i in keep for j in nbr[i] if i < j)
    return TreeDecomposition([td.bags[i] for i in keep], edges, root=0 if keep else None)


def ref_candidate_pairs(td, vertices=None):
    pairs = set()
    for bag in td.bags:
        bs = sorted(set(bag) if vertices is None else vertices.intersection(bag))
        for i in range(len(bs)):
            for j in range(i + 1, len(bs)):
                pairs.add((bs[i], bs[j]))
    return sorted(pairs)


def ref_balance_td(td):
    if td.num_nodes == 0:
        return TreeDecomposition([[]], [], root=0)
    bags = [sorted(set(b)) for b in td.bags]
    if td.num_nodes == 1:
        return TreeDecomposition([bags[0]], [], root=0)
    adj = td.node_adj()
    parent = [-1] * td.num_nodes
    order = [0]
    seen = [False] * td.num_nodes
    seen[0] = True
    for u in order:
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                order.append(v)
    kids = [[] for _ in range(td.num_nodes)]
    for v in order[1:]:
        kids[parent[v]].append(v)
    nb = list(bags)
    chl = {}
    for u in range(td.num_nodes):
        cs = kids[u]
        cur = u
        while len(cs) > 2:
            dup = len(nb)
            nb.append(nb[u])
            chl[cur] = [cs[0], dup]
            cs = cs[1:]
            cur = dup
        chl[cur] = cs
    badj = [[] for _ in range(len(nb))]
    for u, cs in chl.items():
        for v in cs:
            badj[u].append(v)
            badj[v].append(u)

    out_bags = []
    out_edges = []

    def emit(bag):
        out_bags.append(sorted(bag))
        return len(out_bags) - 1

    def component_of(region, removed, start):
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in badj[u]:
                if v in region and v != removed and v not in comp:
                    comp.add(v)
                    stack.append(v)
        return comp

    def centroid(region):
        best = None
        for c in sorted(region):
            worst = 0
            left = region - {c}
            while left:
                comp = component_of(region, c, min(left))
                worst = max(worst, len(comp))
                left -= comp
            if best is None or (worst, c) < best:
                best = (worst, c)
        return best[1]

    def tree_path(region, a, b):
        prev = {a: None}
        queue = [a]
        qi = 0
        while queue[qi] != b:
            u = queue[qi]
            qi += 1
            for v in badj[u]:
                if v in region and v not in prev:
                    prev[v] = u
                    queue.append(v)
        path = [b]
        while path[-1] != a:
            path.append(prev[path[-1]])
        return path

    def build(region, boundary):
        if len(region) == 1:
            c = next(iter(region))
        elif len(boundary) <= 1:
            c = centroid(region)
        else:
            (_, a1), (_, a2) = boundary
            best = None
            for cand in tree_path(region, a1, a2):
                worst = 0
                for _, a in boundary:
                    if a != cand:
                        worst = max(worst, len(component_of(region, cand, a)))
                if best is None or (worst, cand) < best:
                    best = (worst, cand)
            c = best[1]
        bag = set(nb[c])
        for x, _ in boundary:
            bag |= set(nb[x])
        node = emit(bag)
        children = []
        left = region - {c}
        comps = []
        while left:
            comp = component_of(region, c, min(left))
            comps.append(comp)
            left -= comp
        comps.sort(key=min)
        for comp in comps:
            bnd = [(x, a) for x, a in boundary if a in comp]
            entry = min(v for v in badj[c] if v in comp)
            bnd.append((c, entry))
            children.append(build(comp, bnd))
        for ch in children:
            out_edges.append((node, ch))
        return node

    build(set(range(len(nb))), [])
    return TreeDecomposition(out_bags, out_edges, root=0)


def ref_biconnected_components(g):
    n = g.n
    disc = [0] * n
    low = [0] * n
    timer = 1
    edge_stack = []
    raw_blocks = []
    cutset = set()
    for root in range(n):
        if disc[root]:
            continue
        stack = [[root, -1, 0]]
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        while stack:
            u, parent, i = stack[-1]
            if i < len(g.adj[u]):
                stack[-1][2] = i + 1
                v = g.adj[u][i]
                if v == parent:
                    continue
                if not disc[v]:
                    edge_stack.append((u, v))
                    disc[v] = low[v] = timer
                    timer += 1
                    if u == root:
                        root_children += 1
                    stack.append([v, u, 0])
                elif disc[v] < disc[u]:
                    edge_stack.append((u, v))
                    if disc[v] < low[u]:
                        low[u] = disc[v]
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[u] < low[p]:
                        low[p] = low[u]
                    if low[u] >= disc[p]:
                        block = set()
                        while edge_stack and edge_stack[-1] != (p, u):
                            a, b = edge_stack.pop()
                            block.add(a)
                            block.add(b)
                        if edge_stack:
                            a, b = edge_stack.pop()
                            block.add(a)
                            block.add(b)
                        if block:
                            raw_blocks.append(sorted(block))
                        if p != root:
                            cutset.add(p)
        if root_children >= 2:
            cutset.add(root)
    blocks = raw_blocks
    in_blocks = {}
    for b, bl in enumerate(blocks):
        for v in bl:
            in_blocks.setdefault(v, []).append(b)
    parent_cut = [None] * len(blocks)
    parent_block = [None] * len(blocks)
    visited = [False] * len(blocks)
    for start in sorted(range(len(blocks)), key=lambda b: blocks[b]):
        if visited[start]:
            continue
        visited[start] = True
        queue = [start]
        while queue:
            b = queue.pop(0)
            for v in blocks[b]:
                if v not in cutset:
                    continue
                for b2 in in_blocks[v]:
                    if not visited[b2]:
                        visited[b2] = True
                        parent_cut[b2] = v
                        parent_block[b2] = b
                        queue.append(b2)
    home = [None] * n
    for b, blk in enumerate(blocks):
        for x in blk:
            if parent_cut[b] != x:
                home[x] = b
    for b, cut in enumerate(parent_cut):
        if cut is not None:
            assert home[cut] == parent_block[b], b
    return BlockForest(blocks, sorted(cutset), parent_cut, home)


# The tuple-heap elimination and lower bound, and the list-frame block
# search, that the int-keyed heap and the iterator frames replaced: the
# same algorithms, entries (key, tie, x) and frames [u, parent, next arc].


def _tuple_pick(heap, cur, low):
    while True:
        key, tie, x = heapq.heappop(heap)
        if key == cur[x]:
            return x
        if key == low[x] and key < cur[x]:
            low[x] = cur[x]
            heapq.heappush(heap, (low[x], tie, x))


def _tuple_lower(heap, cur, low, x, c, tie, s):
    cur[x] = c
    if c < low[x]:
        low[x] = c // 2 if c > 2 * s + 4 else c
        heapq.heappush(heap, (low[x], tie, x))


def _fill(nbr, v):
    nv = nbr[v]
    return (len(nv) * (len(nv) - 1) - sum(len(nbr[u] & nv) for u in nv)) // 2


def tuple_heap_eliminate(g, strategy="min-degree", seed=0):
    n = g.n
    rnd = random.Random(seed)
    salt = [rnd.random() for _ in range(n)]
    nbr = [set(a) for a in g.adj]
    min_fill = strategy == "min-fill"
    cur = [_fill(nbr, v) for v in range(n)] if min_fill else [len(nv) for nv in nbr]
    low = list(cur)
    heap = [(cur[v], salt[v], v) for v in range(n)]
    heapq.heapify(heap)
    stamp = list(range(n))
    order = []
    for _ in range(n):
        v = _tuple_pick(heap, cur, low)
        s, cur[v] = cur[v], -1
        order.append(v)
        nv = nbr[v]
        simplicial = s == 0 if min_fill else (
            s < 2 or s == 2 and min(nv) in nbr[max(nv)] or nv <= nbr[stamp[min(nv)]])
        if simplicial:
            d = len(nv) - 1
            for u in nv:
                nu = nbr[u]
                nu.discard(v)
                c = cur[u] - len(nu) + d if min_fill else len(nu)
                _tuple_lower(heap, cur, low, u, c, salt[u], s)
            continue
        rescore = set() if min_fill else nv
        for u in nv:
            before = len(nbr[u])
            nbr[u] |= nv
            nbr[u].discard(u)
            nbr[u].discard(v)
            stamp[u] = v
            if min_fill and len(nbr[u]) >= before:
                rescore |= nbr[u]
        for u in rescore:
            _tuple_lower(heap, cur, low, u, _fill(nbr, u) if min_fill else len(nbr[u]), salt[u], s)
    return order, nbr


def tuple_heap_lower_bound(g):
    n = g.n
    if n == 0:
        return 0
    nbr = [set(g.adj[v]) for v in range(n)]
    cur = [len(nv) for nv in nbr]
    low = list(cur)
    heap = [(d, v, v) for v, d in enumerate(cur)]
    heapq.heapify(heap)
    mmd = 0
    for _ in range(n - 1):
        v = _tuple_pick(heap, cur, low)
        nv = nbr[v]
        d, cur[v] = cur[v], -1
        mmd = max(mmd, d)
        if d == 0:
            continue
        u = min(nv) if d <= 2 else min([(len(nbr[w] & nv), w) for w in nv])[1]
        nu = nbr[u]
        nu |= nv
        nu.discard(u)
        nu.discard(v)
        for w in nv:
            nw = nbr[w]
            if w != u:
                nw.discard(v)
                nw.add(u)
            _tuple_lower(heap, cur, low, w, len(nw), w, d)
        nv.clear()
    return mmd


def list_frame_biconnected_components(g):
    n = g.n
    disc = [0] * n
    low = [0] * n
    timer = 1
    entered = []
    blocks = []
    parent_cut = []
    home = [None] * n
    for root in range(n):
        if disc[root]:
            continue
        stack = [[root, -1, 0]]
        disc[root] = low[root] = timer
        timer += 1
        at_root = []
        while stack:
            u, parent, i = stack[-1]
            if i < len(g.adj[u]):
                stack[-1][2] = i + 1
                v = g.adj[u][i]
                if v == parent:
                    continue
                if not disc[v]:
                    disc[v] = low[v] = timer
                    timer += 1
                    entered.append(v)
                    stack.append([v, u, 0])
                elif disc[v] < low[u]:
                    low[u] = disc[v]
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[u] < low[p]:
                        low[p] = low[u]
                    if low[u] >= disc[p]:
                        b = len(blocks)
                        block = [p]
                        while True:
                            x = entered.pop()
                            home[x] = b
                            block.append(x)
                            if x == u:
                                break
                        block.sort()
                        blocks.append(block)
                        parent_cut.append(p)
                        if p == root:
                            at_root.append(b)
        if at_root:
            rb = min(at_root, key=blocks.__getitem__)
            parent_cut[rb] = None
            home[root] = rb
    cutvertices = sorted({c for c in parent_cut if c is not None})
    return BlockForest(blocks, cutvertices, parent_cut, home)

def ref_build_gb(g, b, pairs):
    edges = []
    for u, v in pairs:
        bound = min(g.degree(u), g.degree(v)) - (1 if g.has_edge(u, v) else 0)
        if bound >= b and mu(g, u, v, cap=b) >= b:
            edges.append((min(u, v), max(u, v)))
    return Graph(g.n, sorted(edges))


def ref_tables(td):
    """(top, children, order) of the rooted decomposition td: order is a
    breadth-first order of its nodes from the root, top[v] the first node
    in it whose bag holds v, and children[t] t's children."""
    adj = td.node_adj()
    seen = {td.root}
    order = [td.root]
    children = [[] for _ in adj]
    for t in order:
        for c in adj[t]:
            if c not in seen:
                seen.add(c)
                children[t].append(c)
                order.append(c)
    top = {}
    for t in order:
        for v in td.bags[t]:
            top.setdefault(v, t)
    return top, children, order


def ref_centroid(tables, wset):
    """The full pass: count each vertex of wset at its top node, sum the
    counts over every subtree of the whole tree, then descend from the
    root into the child counting more than half of wset while there is
    one."""
    top, children, order = tables
    count = [0] * len(children)
    for v in wset:
        count[top[v]] += 1
    for t in reversed(order):
        count[t] += sum(count[c] for c in children[t])
    node = order[0]
    while True:
        heavy = [c for c in children[node] if 2 * count[c] > len(wset)]
        if not heavy:
            return node
        node = heavy[0]


def heavy_components(g, universe, bag, wset):
    """The components of g[universe - bag] holding more than half of wset,
    by one search per component."""
    comps = connected_components(g, set(universe) - set(bag))
    return [c for c in comps if 2 * len(wset.intersection(c)) > len(wset)]


class RefBuilder:
    def __init__(self):
        self.bags = []
        self.edges = []

    def emit(self, bag) -> int:
        self.bags.append(sorted(bag))
        return len(self.bags) - 1


def ref_partition_into(g, td, tables, width, builder, universe, s_set) -> int:
    """The recursive boundary construction, one call per bag; returns the
    root node id of the subtree built for g[universe], whose root bag
    contains s_set."""
    if len(universe) <= len(s_set) + width + 1:
        return builder.emit(universe)
    sep_node = ref_centroid(tables, s_set) if s_set else td.root
    bag = s_set | (set(td.bags[sep_node]) & universe)
    if not bag:
        bag = {min(universe)}
    root = builder.emit(bag)
    comps = [set(c) for c in connected_components(g, universe - bag)]
    touched = set().union(*(g.adj[v] for v in bag))
    boundaries = [comp & touched for comp in comps]
    for sub_universe, sub_s in partitioner._group_components(
        comps, boundaries, CONSTANTS.window_low(width)
    ):
        child = ref_partition_into(g, td, tables, width, builder, sub_universe, sub_s)
        builder.edges.append((root, child))
    return root


def ref_rooted_td(td):
    return td if td.root is not None else TreeDecomposition(td.bags, td.tree_edges, root=0)


def ref_partition_rooted(g, td, s_set):
    s_set = set(s_set)
    if g.n == 0:
        return TreePartition([], [], root=None)
    td = ref_rooted_td(td)
    tables = ref_tables(td)
    builder = RefBuilder()
    roots = []
    for comp in connected_components(g):
        comp = set(comp)
        roots.append(ref_partition_into(g, td, tables, td.width(), builder, comp, s_set & comp))
    for extra in roots[1:]:
        builder.edges.append((roots[0], extra))
    return TreePartition(builder.bags, builder.edges, root=roots[0])


def ref_partition_isolated(g, td, v):
    td = ref_rooted_td(td)
    width = td.width()
    if g.n == 1:
        return TreePartition([[v]], [], root=0)
    if g.n <= CONSTANTS.window_low(width) + 1:
        rest = sorted(u for u in range(g.n) if u != v)
        return TreePartition([[v], rest], [(0, 1)], root=0)
    tables = ref_tables(td)
    builder = RefBuilder()
    root = builder.emit({v})
    nv = set(g.adj[v])
    for comp in connected_components(g, set(range(g.n)) - {v}):
        comp = set(comp)
        child = ref_partition_into(g, td, tables, width, builder, comp, nv & comp)
        builder.edges.append((root, child))
    return TreePartition(builder.bags, builder.edges, root=root)


def ref_combine_blocks(h, bf, per_block):
    bags = []
    edges = []
    holder = {}
    order = []
    kids = bf.children()
    for b in bf.roots():
        stack = [b]
        while stack:
            x = stack.pop()
            order.append(x)
            stack.extend(sorted(kids[x], reverse=True))
    for b in order:
        tp = per_block[b]
        cut = bf.parent_cut[b]
        skip = None
        if cut is not None:
            for i, bag in enumerate(tp.bags):
                if cut in bag:
                    if list(bag) != [cut]:
                        raise ValueError(f"block {b} does not isolate cutvertex {cut}")
                    skip = i
                    break
            if skip is None:
                raise ValueError(f"block {b} does not contain cutvertex {cut}")
        remap = {}
        for i, bag in enumerate(tp.bags):
            if i == skip:
                remap[i] = holder[cut]
                continue
            remap[i] = len(bags)
            bags.append(list(bag))
            for u in bag:
                if u not in holder:
                    holder[u] = remap[i]
        for i, j in tp.tree_edges:
            edges.append((remap[i], remap[j]))
    for u in range(h.n):
        if u not in holder:
            holder[u] = len(bags)
            bags.append([u])
    if bags:
        comp = list(range(len(bags)))

        def find(x):
            while comp[x] != x:
                comp[x] = comp[comp[x]]
                x = comp[x]
            return x

        for i, j in edges:
            ri, rj = find(i), find(j)
            if ri != rj:
                comp[ri] = rj
        for i in range(1, len(bags)):
            ri, r0 = find(i), find(0)
            if ri != r0:
                comp[ri] = r0
                edges.append((0, i))
    return TreePartition(bags, edges, root=0 if bags else None)


# The subtree-set reading of a tree-cut decomposition that one climb per
# host edge (`tree_climbs`) replaced: the vertex set below every node, and
# the union of the sibling subtrees of every thin node.


def ref_tcd_cuts(g, tcd):
    parent, order = tree_bfs(tcd.node_adj(), tcd.root)
    below = [set(b) for b in tcd.bags]
    for u in reversed(order):
        p = parent[u]
        if p != -1:
            below[p] |= below[u]
    cut = {}
    for t in order[1:]:
        sub = below[t]
        cut[t] = sum(w not in sub for v in sub for w in g.adj[v])
    return cut, parent, order, below


def ref_non_nice_node(g, tcd, cuts):
    cut, parent, order, below = cuts
    adj = tcd.node_adj()
    for t in order[1:]:
        if cut[t] <= 2:
            p = parent[t]
            sib_vertices = set()
            for s in adj[p]:
                if s != t and parent[s] == p:
                    sib_vertices |= below[s]
            if any(w in sib_vertices for v in below[t] for w in g.adj[v]):
                return t
    return None


# The explicit-stack search of `exact_elimination` that the recursive
# `_feasible` replaced: the same moves in the same order, and the same memo.


def stack_feasible(adj_mask, k, memo, s_mask):
    full = (1 << len(adj_mask)) - 1
    stack = []
    t = s_mask
    while True:
        hit = True if t == full else memo.get(t)
        if hit:
            for m, _ in stack:
                memo[m] = True
            return True
        if hit is None:
            moves = sorted((bin(_q_mask(adj_mask, t, v)).count("1"), v) for v in _bits(full & ~t))
            stack.append((t, iter([t | 1 << v for c, v in moves if c <= k])))
        while True:
            if not stack:
                return False
            m, untried = stack[-1]
            t = next(untried, 0)
            if t:
                break
            memo[m] = False
            stack.pop()


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------


def random_corpus():
    """About 200 seeded G(n, p) graphs, from forests to dense ones."""
    out = []
    for i in range(200):
        n = 5 + i % 31
        p = (0.05, 0.1, 0.2, 0.35, 0.6)[i % 5]
        out.append(random_graph(n, p, 1000 + i))
    return out



@functools.cache
def bench_graphs():
    """The graphs of both benchmark workloads, seed 7, from perfbench."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("bench_corpus", path)
    corpus = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return tuple(inst.graph for w in ("accept", "flow_reject") for inst in corpus.build(w, 7))


def heap_corpus():
    """The benchmark graphs, then 300 seeded G(n, p) graphs: the random
    corpus and 100 larger sparse ones."""
    extra = [random_graph(40 + i % 41, (0.03, 0.06, 0.12, 0.25)[i % 4], 6000 + i) for i in range(100)]
    return list(bench_graphs()) + random_corpus() + extra

def random_tcds(count=2500):
    """Seeded tree-cut decompositions: a G(n, p) graph on at most 12
    vertices, a random tree of at most 10 nodes listed in shuffled order
    and orientation, each vertex in one random node, a random root."""
    rng = random.Random(30)
    for i in range(count):
        g = random_graph(rng.randrange(13), rng.choice((0.1, 0.2, 0.35)), 3000 + i)
        nodes = rng.randrange(1, 11)
        perm = rng.sample(range(nodes), nodes)
        edges = [(perm[rng.randrange(t)], perm[t]) for t in range(1, nodes)]
        edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in rng.sample(edges, len(edges))]
        bags = [[] for _ in range(nodes)]
        for v in range(g.n):
            bags[rng.randrange(nodes)].append(v)
        yield g, TreeCutDecomposition(bags, edges, root=rng.randrange(nodes))


def random_bag_trees():
    """Trees of bags over few vertices, in shuffled node order, where each
    node copies its parent's bag, keeps part of it, or keeps part of it
    and adds a vertex of its own: runs of equal bags, nested bags and
    bags that nest in neither direction, met in every id order."""
    rng = random.Random(5)
    for _ in range(600):
        n = rng.randint(1, 60)
        bags, edges = [sorted(rng.sample(range(4), rng.randint(0, 3)))], []
        for i in range(1, n):
            p = rng.randrange(i)
            part = sorted(rng.sample(bags[p], rng.randint(0, len(bags[p]))))
            bags.append(
                (list(bags[p]), part, part + [4 + i])[rng.choice((0, 0, 1, 2))]
            )
            edges.append((p, i) if rng.random() < 0.5 else (i, p))
        perm = list(range(n))
        rng.shuffle(perm)
        shuffled = [None] * n
        for i, bag in enumerate(bags):
            shuffled[perm[i]] = bag
        yield TreeDecomposition(shuffled, [(perm[i], perm[j]) for i, j in edges], root=0)


def hub_corpus():
    """Graphs whose hubs lose one degree per step, so the elimination heap
    pushes halved keys and pops them below their scores: K_{a,N}, fans,
    windmills of K_{2,12} blades, tree multiples, and random graphs with a
    few added hubs joined to a random half of the vertices."""
    for a in (1, 2, 3, 10):
        for n in (12, 40, 70):
            yield gen_complete_bipartite(a, n)
    for n in (10, 40, 90):
        yield gen_fan(n)
    for blades in (1, 3, 6):
        yield gen_multiple_tree(gen_complete_bipartite(1, blades), 12)
    for m in (2, 5, 9):
        yield gen_multiple_tree(random_tree(8, m), m)
    for i in range(40):
        rng = random.Random(2000 + i)
        n = rng.randint(20, 60)
        g = random_graph(n, (0.03, 0.08, 0.15)[i % 3], 3000 + i)
        hubs = rng.randint(1, 3)
        edges = g.edges()
        for h in range(n, n + hubs):
            edges += [(v, h) for v in rng.sample(range(h), h // 2)]
        yield Graph(n + hubs, edges)


def blow_up(g, rng):
    """Each vertex of g becomes a clique or an independent set of 1-4
    twins, joined to all twins of its neighbours."""
    copies, n = [], 0
    for _ in range(g.n):
        copies.append(range(n, n + rng.randint(1, 4)))
        n += len(copies[-1])
    edges = [(a, b) for u, v in g.edges() for a in copies[u] for b in copies[v]]
    for c in copies:
        if rng.random() < 0.5:
            edges += itertools.combinations(c, 2)
    return Graph(n, edges)


def random_ktree(n, k, rng):
    """A random k-tree: a (k+1)-clique, then each vertex joined to a
    random k-clique already there."""
    edges = list(itertools.combinations(range(k + 1), 2))
    cliques = [tuple(c) for c in itertools.combinations(range(k + 1), k)]
    for v in range(k + 1, n):
        base = rng.choice(cliques)
        edges += [(u, v) for u in base]
        cliques += [base[:i] + base[i + 1 :] + (v,) for i in range(k)]
    return Graph(n, edges)


def simplicial_corpus():
    """Graphs where most eliminations are of simplicial vertices (whose
    remaining neighbours form a clique), mixed with ones that are not:
    twin blow-ups of random graphs, random k-trees, K_{a,N}, fans and tree
    multiples."""
    rng = random.Random(77)
    for i in range(120):
        n = rng.randint(3, 14)
        yield blow_up(random_graph(n, (0.1, 0.25, 0.5)[i % 3], 4000 + i), rng)
    for k in [1, 2, 3, 4, 5] * 12:
        yield random_ktree(rng.randint(k + 1, 40), k, rng)
    for a in (1, 2, 3, 5, 10):
        for n in (1, 2, 7, 20, 45):
            yield gen_complete_bipartite(a, n)
    for n in (2, 3, 5, 17, 40, 80):
        yield gen_fan(n)
    for i in range(32):
        yield gen_multiple_tree(random_tree(rng.randint(2, 12), 5000 + i), rng.randint(1, 6))


def star(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def glued_cliques(p, q):
    """K_p on 0..p-1 and K_q on p-1..p+q-2, sharing the cutvertex p-1."""
    left = [(i, j) for i in range(p) for j in range(i + 1, p)]
    right = [(i, j) for i in range(p - 1, p + q - 1) for j in range(i + 1, p + q - 1)]
    return Graph(p + q - 1, left + right)


def block_chain(seed, max_size=15, blocks=8):
    """Cycles, cliques and bridges of 2..max_size vertices, each glued at a
    random vertex of the graph built so far."""
    rng = random.Random(seed)
    edges, n = [], 1
    for _ in range(blocks):
        kind = rng.choice(("cycle", "clique", "bridge"))
        s = 2 if kind == "bridge" else rng.randint(3 if kind == "cycle" else 2, max_size)
        new = [rng.randrange(n)] + list(range(n, n + s - 1))
        n += s - 1
        if kind == "cycle":
            edges += [(new[i], new[(i + 1) % s]) for i in range(s)]
        else:
            edges += list(itertools.combinations(new, 2))
    return Graph(n, edges)


def spoked_cycle(length, spokes):
    """A pendant vertex 0 on a hub, vertex 1, joined to `spokes` evenly
    spaced vertices of a cycle on 2..length + 1: one block of length + 1
    vertices below the cutvertex 1, of minimum degree 2 for spokes <
    length."""
    cycle = [(2 + i, 2 + (i + 1) % length) for i in range(length)]
    hub = [(1, 2 + i * length // spokes) for i in range(spokes)]
    return Graph(length + 2, [(0, 1)] + hub + cycle)


def size_rule_cases():
    """(graph, k) runs for step 4's size rule: tree multiples with every m
    up to 14 at a k with b > m, and at k = ceil(m / 2), where step 2 merges
    tree vertices, windmills of K_{2,12} blades on one hub, block chains,
    the smallest rung of each benchmark family (perfbench/corpus.py) at
    its k, cycles below a hub joined to some of their vertices, and random
    graphs."""
    tree = random_tree(20, 3)
    for m in range(1, 15):
        yield gen_multiple_tree(tree, m), (m + 1) // 2 + 1
        yield gen_multiple_tree(random_tree(4, m), m), (m + 1) // 2
    for blades in (1, 2, 7, 30):
        yield gen_multiple_tree(star(blades), 12), 7
    for length in range(10, 17):  # blocks at n - 1 = spokes + 3 .. spokes + 5
        for spokes in range(length - 5, length - 2):
            yield spoked_cycle(length, spokes), 3
    yield gen_multiple_tree(random_tree(60, 10), 3), 3
    for seed in range(40):
        for k in (2, 8):
            yield block_chain(seed), k
    yield path(350), 2
    yield random_tree(265, 1), 1
    yield star(22), 1
    yield gen_multiple_tree(random_tree(18, 2), 12), 7
    yield gen_grid(14), 4
    yield gen_wall(14), 3
    yield gen_complete_bipartite(10, 300), 9
    yield gen_complete_bipartite(13, 600), 12
    yield gen_multiple_tree(random_tree(30, 4), 40), 20
    yield gen_fan(250), 2
    yield gen_complete_bipartite(6, 60), 3
    for g in random_corpus():
        yield g, 3


def split_first(tp):
    """The one-bag partition tp with its first vertex split off into the
    root bag: what the size rule returns for a root block it decides."""
    (bag,) = tp.bags
    return TreePartition([bag[:1], bag[1:]], [(0, 1)], root=0)


def size_rule_fires(n, min_degree, cut, cut_degree):
    """Where `partition_by_size` must decide a block: the fallbacks of
    `partition_isolated` and `partition_rooted` at width min_degree, and
    the leaf test of the one component below cut."""
    if cut is None:
        return n <= min_degree + 2
    return n <= CONSTANTS.window_low(min_degree) + 1 or n - 1 <= cut_degree + min_degree + 1


def in_degree(g, blk, v):
    blkset = set(blk)
    return sum(u in blkset for u in g.adj[v])


def min_in_degree(g, blk):
    return min(in_degree(g, blk, v) for v in blk)


def step2_cases():
    """(name, graph, b): tree multiples with m parallel paths around b,
    complete bipartite graphs and glued cliques at every b they make
    matter."""
    tree = random_tree(9, 5)
    for b in (1, 2, 3, 4):
        for m in range(max(b - 1, 1), b + 2):
            yield f"multitree{m}-b{b}", gen_multiple_tree(tree, m), b
    for a, n in ((2, 7), (3, 12), (5, 9)):
        for b in range(1, a + 2):
            yield f"K{a},{n}-b{b}", gen_complete_bipartite(a, n), b
    for p, q in ((3, 4), (4, 5), (5, 5)):
        for b in range(1, q):
            yield f"cliques{p},{q}-b{b}", glued_cliques(p, q), b


STRUCTURED = {
    "star300": lambda: star(300),
    "path2000": lambda: path(2000),
    "grid20": lambda: gen_grid(20),
    "wall20": lambda: gen_wall(20),
}


def same_td(a, b):
    return (a.bags, a.tree_edges, a.root) == (b.bags, b.tree_edges, b.root)


def bag_set(td):
    """td's bags, each sorted, in sorted order: what two decompositions
    built on different trees can share."""
    return sorted(tuple(sorted(bag)) for bag in td.bags)


def rooted_code(td):
    """The canonical encoding of td as a rooted, bag-labelled tree:
    (bag, sorted encodings of the children) at the root."""
    parent, order = tree_bfs(td.node_adj(), td.root)
    below = [[] for _ in range(td.num_nodes)]
    for v in reversed(order):
        code = (tuple(td.bags[v]), tuple(sorted(below[v])))
        if parent[v] == -1:
            return code
        below[parent[v]].append(code)


def same_rooted_tree(a, b):
    """a and b are the same rooted, bag-labelled tree, whatever their node
    numbers and the order of their children and tree edges."""
    return a.num_nodes == b.num_nodes and rooted_code(a) == rooted_code(b)


def check_blocks(g, td, balance=8):
    """On up to `balance` evenly spaced blocks of g, the balanced tree of
    the block's extracted decomposition (`ref_extract_sub_td`) is the
    reference one.  The cap keeps the quadratic oracles affordable on
    graphs with thousands of blocks."""
    blocks = biconnected_components(g).blocks
    for blk in blocks[:: max(1, len(blocks) // balance)][:balance]:
        sub, old = g.induced(blk)
        want = ref_extract_sub_td(td, blk, {v: i for i, v in enumerate(old)})
        assert same_rooted_tree(balance_td(sub, want), ref_balance_td(want)), blk


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("strategy", ["min-degree", "min-fill"])
@pytest.mark.parametrize("seed", [0, 3])
def test_heuristic_td_matches_scan_on_random_graphs(strategy, seed):
    for idx, g in enumerate(random_corpus()):
        got = heuristic_td(g, strategy, seed)
        assert same_td(got, ref_heuristic_td(g, strategy, seed)), idx


def test_lower_bound_matches_scan_on_random_graphs():
    for idx, g in enumerate(random_corpus()):
        assert treewidth_lower_bound(g) == ref_treewidth_lower_bound(g), idx


@pytest.mark.parametrize("strategy", ["min-degree", "min-fill"])
@pytest.mark.parametrize("seed", [0, 3])
def test_heuristic_td_matches_scan_on_hub_graphs(strategy, seed):
    for idx, g in enumerate(hub_corpus()):
        got = heuristic_td(g, strategy, seed)
        assert same_td(got, ref_heuristic_td(g, strategy, seed)), idx


@pytest.mark.parametrize("strategy", ["min-degree", "min-fill"])
@pytest.mark.parametrize("seed", [0, 1, 3])
def test_heuristic_td_matches_scan_on_simplicial_graphs(strategy, seed):
    for idx, g in enumerate(simplicial_corpus()):
        got = heuristic_td(g, strategy, seed)
        assert same_td(got, ref_heuristic_td(g, strategy, seed)), idx


def test_lower_bound_matches_scan_on_hub_graphs():
    for idx, g in enumerate(hub_corpus()):
        assert treewidth_lower_bound(g) == ref_treewidth_lower_bound(g), idx


def test_balance_and_extraction_match_scan_on_random_graphs():
    for idx, g in enumerate(random_corpus()):
        td = heuristic_td(g, "min-fill" if idx % 2 else "min-degree", idx % 4)
        assert same_rooted_tree(balance_td(g, td), ref_balance_td(td)), idx
        check_blocks(g, td)


@pytest.mark.parametrize("name", sorted(STRUCTURED))
def test_structured_families_match_scan(name):
    g = STRUCTURED[name]()
    assert treewidth_lower_bound(g) == ref_treewidth_lower_bound(g)
    for strategy in ("min-degree", "min-fill"):
        td = heuristic_td(g, strategy, 3)
        assert same_td(td, ref_heuristic_td(g, strategy, 3)), strategy
    td = heuristic_td(g)
    assert same_rooted_tree(balance_td(g, td), ref_balance_td(td))
    check_blocks(g, td)




@pytest.mark.parametrize("strategy", ["min-degree", "min-fill"])
@pytest.mark.parametrize("seed", [0, 3])
def test_int_heap_eliminate_matches_tuple_heap(strategy, seed):
    for idx, g in enumerate(heap_corpus()):
        assert eliminate(g, strategy, seed) == tuple_heap_eliminate(g, strategy, seed), idx


def test_int_heap_lower_bound_matches_tuple_heap():
    for idx, g in enumerate(heap_corpus()):
        assert treewidth_lower_bound(g) == tuple_heap_lower_bound(g), idx


def test_iterator_frames_match_list_frames():
    for idx, g in enumerate(heap_corpus()):
        assert biconnected_components(g) == list_frame_biconnected_components(g), idx


def test_recursive_feasible_matches_explicit_stack(monkeypatch):
    """At every k < n on random graphs of at most 12 vertices, `_feasible`
    gives the explicit stack's answer and memo, and `exact_elimination`
    the same (order, nbrs), or None."""
    graphs = [random_graph(n, p, seed) for n in range(1, 13) for p in (0.2, 0.4, 0.6) for seed in range(3)]
    cases = [(g, k) for g in graphs for k in range(g.n)]
    got = []
    for idx, (g, k) in enumerate(cases):
        adj_mask = [sum(1 << v for v in nu) for nu in g.adj]
        memo, want_memo = {}, {}
        assert treewidth._feasible(adj_mask, k, memo, 0) == stack_feasible(adj_mask, k, want_memo, 0), idx
        assert memo == want_memo, idx
        got.append(exact_elimination(g, k))
    monkeypatch.setattr(treewidth, "_feasible", stack_feasible)
    assert got == [exact_elimination(g, k) for g, k in cases]
    assert got.count(None) > 50 and len(got) - got.count(None) > 50, got.count(None)

def test_block_forest_matches_scan():
    graphs = [star(leaves) for leaves in (0, 1, 2, 60, 500)]
    graphs += [random_tree(n, seed) for n, seed in ((2, 0), (40, 1), (600, 2))]
    graphs += [path(300), glued_cliques(4, 5)] + random_corpus()
    # windmills: 12-fold blades on the hub, vertex 0
    graphs += [gen_multiple_tree(gen_complete_bipartite(1, m), 12) for m in (1, 2, 7, 30)]
    for idx, g in enumerate(graphs):
        assert biconnected_components(g) == ref_biconnected_components(g), idx


def test_block_edges_and_block_of_match_scans():
    """On the random corpus, windmills of 1, 7 and 30 blades and tree
    multiples: every edge lies in exactly one block's list, each list is
    in `g.edges()` order, each block's subgraph from its list is the plain
    adjacency scan `g.induced(blk)`, and `block_of` is the one block found
    by scanning the blocks that hold both ends."""
    graphs = random_corpus()
    graphs += [gen_multiple_tree(gen_complete_bipartite(1, m), 12) for m in (1, 7, 30)]
    graphs += [gen_multiple_tree(random_tree(12, m), m) for m in range(1, 13)]
    for idx, g in enumerate(graphs):
        bf = biconnected_components(g)
        lists = bf.block_edges(g)
        assert sorted(e for edges in lists for e in edges) == g.edges(), idx
        holders = [set() for _ in range(g.n)]
        for b, (blk, edges) in enumerate(zip(bf.blocks, lists)):
            assert edges == sorted(edges), (idx, b)
            assert all(u in blk and v in blk for u, v in edges), (idx, b)
            sub, new_id = subgraph(g, blk, edges)
            assert (sub, list(new_id)) == g.induced(blk), (idx, b)
            for v in blk:
                holders[v].add(b)
        for u, v in itertools.combinations(range(g.n), 2):
            shared = holders[u] & holders[v]
            assert len(shared) <= 1, (idx, u, v)
            assert bf.block_of(u, v) == (shared.pop() if shared else None), (idx, u, v)


@pytest.mark.parametrize("b", [1, 2, 3, 4])
def test_build_gb_matches_flow_per_pair_on_random_graphs(b):
    for idx, g in enumerate(random_corpus()):
        td = heuristic_td(g, "min-fill" if idx % 2 else "min-degree", idx % 4)
        pairs = candidate_pairs(td)
        want = ref_build_gb(g, b, pairs)
        assert build_gb(g, b, pairs) == want, idx
        own = eliminate(g, "min-fill" if idx % 2 else "min-degree", idx % 4)[1]
        assert build_gb(g, b, _step2_pairs(g, own, b)) == want, idx


@pytest.mark.parametrize(
    "g, b", [pytest.param(g, b, id=name) for name, g, b in step2_cases()]
)
def test_build_gb_matches_flow_per_pair_on_structured_graphs(g, b):
    pairs = list(itertools.combinations(range(g.n), 2))
    assert build_gb(g, b, pairs) == ref_build_gb(g, b, pairs)
    want = ref_build_gb(g, b, candidate_pairs(heuristic_td(g)))
    assert build_gb(g, b, _step2_pairs(g, eliminate(g)[1], b)) == want


def pair_cases():
    """(graph, b) runs of step 2's pair listing: random graphs, twin
    blow-ups, tree multiples with m = 2..14 at b = m - 1, m, m + 1, K_{a,N}
    at b = a, a + 1, fans, grids and walls, and all of them at b = 2, 3."""
    rng = random.Random(15)
    graphs = [(g, ()) for g in random_corpus()[::3]]
    graphs += [(blow_up(random_graph(rng.randint(3, 9), 0.3, 6000 + i), rng), ()) for i in range(30)]
    graphs += [(gen_multiple_tree(random_tree(6, m), m), (m - 1, m, m + 1)) for m in range(2, 15)]
    graphs += [(gen_complete_bipartite(a, n), (a, a + 1)) for a, n in ((1, 30), (2, 12), (3, 20), (10, 30))]
    graphs += [(gen_fan(n), (4,)) for n in (10, 40)]
    graphs += [(make(side), (4,)) for make in (gen_grid, gen_wall) for side in (5, 8)]
    for g, extra in graphs:
        for b in sorted({2, 3, *extra}):
            yield g, b


@pytest.mark.parametrize("strategy", ["min-degree", "min-fill"])
def test_step2_pairs_are_the_co_bagged_pairs_less_adjacent_tight_ones(strategy):
    """Listed from each vertex's own bag, step 2's pairs are the co-bagged
    pairs of vertices of degree >= b less the adjacent ones with an
    endpoint of degree exactly b, for `_step1`'s elimination and for an
    imported (balanced) decomposition read through `elimination_of`, whose
    reduced decomposition has the reference contraction's bags; G^b is
    the per-pair flow oracle's on all co-bagged pairs, so keeping the
    adjacent tight pairs would not change it.  Listing only (h, y) with
    y > h, or dropping every pair with an endpoint of degree b, would: G^b
    of a sublist of the pairs is G^b restricted to it, since `build_gb`
    decides each pair on its own."""
    params = PipelineParams(k=1, step1="heur:" + strategy, seed=1)
    differ = {"y > h only": 0, "no degree-b endpoint": 0}
    imported = 0
    for idx, (g, b) in enumerate(pair_cases()):
        td = heuristic_td(g, strategy, 1)
        w, own, reduced = _step1(g, params, range(g.n), 0, None)
        own_quotient = b_reduction(g, Graph(g.n))
        assert w == td.width() and same_td(clique_tree(*reduced(own_quotient)), ref_reduce_td(td)), idx
        deg = [g.degree(v) for v in range(g.n)]
        high = {v for v in range(g.n) if deg[v] >= b}

        def listed(t):
            return [
                (u, v) for u, v in ref_candidate_pairs(t, high)
                if b not in (deg[u], deg[v]) or not g.has_edge(u, v)
            ]

        pairs = _step2_pairs(g, own, b)
        assert pairs == listed(td), idx
        gb = build_gb(g, b, pairs)
        assert gb == ref_build_gb(g, b, ref_candidate_pairs(td, high)), idx
        mutants = {
            "y > h only": {(h, y) for h in high for y in own[h] if y > h and y in high},
            "no degree-b endpoint": {(u, v) for u, v in pairs if b not in (deg[u], deg[v])},
        }
        for name, mutant in mutants.items():
            differ[name] += not mutant.issuperset(gb.edges())
        if len(connected_components(g)) == 1:
            balanced = balance_td(g, td)
            imports = PipelineParams(k=1, step1="import", import_td=balanced)
            order, nbrs = elimination_of(balanced, g.n)
            w, own, reduced = _step1(g, imports, range(g.n), 0, (rank_of(order), nbrs))
            assert w == balanced.width(), idx
            assert bag_set(clique_tree(*reduced(own_quotient))) == bag_set(ref_reduce_td(balanced)), idx
            assert _step2_pairs(g, own, b) == listed(balanced), idx
            imported += 1
    assert differ["y > h only"] >= 100 and differ["no degree-b endpoint"] >= 25, differ
    assert imported > 150, imported


def block_partitions(g):
    """Step 4's per-block partitions of any host graph, each built on the
    extracted decomposition of the block below its parent cutvertex
    (without the block-degree check)."""
    td = heuristic_td(g)
    bf = biconnected_components(g)
    per_block = {}
    for bidx, blk in enumerate(bf.blocks):
        sub, old = g.induced(blk)
        new_id = {v: i for i, v in enumerate(old)}
        cut = bf.parent_cut[bidx]
        sub_td = ref_extract_sub_td(td, blk, new_id, cut)
        if cut is not None:
            local = partition_isolated(sub, sub_td, new_id[cut])
        else:
            local = partition_rooted(sub, sub_td, {0})
        per_block[bidx] = TreePartition(
            [sorted(old[x] for x in bag) for bag in local.bags],
            list(local.tree_edges),
            local.root,
        )
    return bf, per_block


def centroid_cases(rng):
    """(graph, decomposition): the random corpus, grid 20 and wall 20,
    each with its heuristic decomposition, that decomposition reduced
    (as step 4 reads it), balanced, and renumbered at random."""
    graphs = random_corpus() + [gen_grid(20), gen_wall(20)]
    for idx, g in enumerate(graphs):
        td = heuristic_td(g, "min-fill" if idx % 2 else "min-degree", idx % 4)
        for t in (td, ref_reduce_td(td), balance_td(g, td), renumbered(td, rng)):
            yield g, t


def random_contract(rng, n):
    """A random nonempty vertex set: small like a job's boundary half the
    time, else of any size."""
    return set(rng.sample(range(n), rng.randint(1, n if rng.random() < 0.5 else min(n, 8))))


def test_separator_walk_matches_counting_walk(monkeypatch):
    """Every centroid, from direct calls with random contract sets and
    from both partitions' job loops, on heuristic, reduced, balanced and
    renumbered decompositions, is the node the full pass picks."""
    walks = []
    tabled = []  # the full pass's tables of the decomposition last tabled
    real_tables = partitioner.occupancy_tables
    real = partitioner._centroid

    def tables(td):
        tabled[:] = [ref_tables(td)]
        return real_tables(td)

    def checked(top, parent, depth, wset):
        got = real(top, parent, depth, wset)
        walks.append(got == ref_centroid(tabled[0], wset))
        return got

    monkeypatch.setattr(partitioner, "occupancy_tables", tables)
    monkeypatch.setattr(partitioner, "_centroid", checked)
    rng = random.Random(11)
    for g, t in centroid_cases(rng):
        for _ in range(2):
            balanced_separator_bag(g, t, random_contract(rng, g.n))
        partition_rooted(g, t, {0})
        partition_isolated(g, t, rng.randrange(g.n))
    assert len(walks) > 1000 and all(walks), (len(walks), walks.count(False))


def test_centroid_bag_is_a_balanced_separator():
    """On the same decompositions, with random contract sets and random
    universes holding them: the centroid is the full pass's node, and no
    component of g[U] minus its restricted bag holds more than half of
    the contract set, by a search of every component."""
    rng = random.Random(23)
    checked = 0
    for g, t in centroid_cases(rng):
        tables = occupancy_tables(t)
        ref = ref_tables(t)
        for _ in range(4):
            wset = random_contract(rng, g.n)
            universe = wset | set(rng.sample(range(g.n), rng.randint(0, g.n)))
            node = partitioner._centroid(*tables, wset)
            assert node == ref_centroid(ref, wset), (g.n, sorted(wset))
            assert not heavy_components(g, universe, t.bags[node], wset), (g.n, sorted(wset))
            checked += 1
    assert checked > 1000, checked


def test_job_loop_matches_recursive_construction():
    """Both partitions, with rooted contracts {0} and random ones and with
    random isolated vertices, on heuristic, reduced and balanced
    decompositions, and on the heuristic decompositions of cycles up to
    3,000 vertices (the recursion is about n/6 calls deep there): bags,
    tree edges in order and root match the recursion's.  Nodes with
    several children and deep subtrees make the child order and the edge
    order count."""
    rng = random.Random(5)
    graphs = random_corpus() + [gen_grid(m) for m in (10, 20, 30)]
    graphs += [gen_wall(m) for m in (10, 20, 30)]
    cases = []
    for idx, g in enumerate(graphs):
        td = heuristic_td(g, "min-fill" if idx % 2 else "min-degree", idx % 4)
        cases += [(g, td), (g, ref_reduce_td(td)), (g, balance_td(g, td))]
    for n in (100, 1000, 3000):
        g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
        cases.append((g, heuristic_td(g)))
    branching = 0
    for idx, (g, td) in enumerate(cases):
        for s_set in ({0}, rng.sample(range(g.n), rng.randint(0, min(g.n, 8)))):
            got = partition_rooted(g, td, s_set)
            assert same_td(got, ref_partition_rooted(g, td, s_set)), idx
            branching += len(got.tree_edges) > len({i for i, _ in got.tree_edges})
        for v in rng.sample(range(g.n), min(g.n, 2)):
            got = partition_isolated(g, td, v)
            assert same_td(got, ref_partition_isolated(g, td, v)), (idx, v)
    assert branching > 50, branching


def renumbered(td, rng):
    """td with its nodes renumbered at random, the root moving with them,
    and its tree edges shuffled and each flipped or not at random."""
    new = list(range(td.num_nodes))
    rng.shuffle(new)
    bags = [None] * td.num_nodes
    for i, bag in enumerate(td.bags):
        bags[new[i]] = bag
    edges = [(new[i], new[j]) if rng.random() < 0.5 else (new[j], new[i]) for i, j in td.tree_edges]
    rng.shuffle(edges)
    return TreeDecomposition(bags, edges, root=new[td.root])


def test_partitions_read_no_node_numbering():
    """The partitions read a decomposition only as a rooted tree of bags:
    on reduced decompositions (as step 4 reads them) and balanced ones,
    any renumbering of the nodes, and any order and direction of the tree
    edges, give the same partitions."""
    rng = random.Random(19)
    graphs = random_corpus() + [gen_grid(20), gen_wall(14)]
    for idx, g in enumerate(graphs):
        td = heuristic_td(g, "min-fill" if idx % 2 else "min-degree", idx % 4)
        for t in (ref_reduce_td(td), balance_td(g, td)):
            rooted = partition_rooted(g, t, {0})
            isolated = {v: partition_isolated(g, t, v) for v in rng.sample(range(g.n), min(g.n, 2))}
            for _ in range(2):
                other = renumbered(t, rng)
                assert same_rooted_tree(other, t), idx
                assert partition_rooted(g, other, {0}) == rooted, idx
                for v, want in isolated.items():
                    assert partition_isolated(g, other, v) == want, (idx, v)


def test_combine_blocks_matches_union_find(monkeypatch):
    """Same combined partition on the pipeline's own blocks and on
    disconnected hosts, where the component join adds edges."""
    calls = []
    real = pipeline.combine_blocks

    def checked(h, bf, per_block):
        got = real(h, bf, per_block)
        calls.append(same_td(got, ref_combine_blocks(h, bf, per_block)))
        return got

    monkeypatch.setattr(pipeline, "combine_blocks", checked)
    for g in random_corpus()[::2] + [star(60), path(200), random_tree(300, 4)]:
        run(g, PipelineParams(k=3))
    assert len(calls) > 100 and all(calls)

    disconnected = 0
    for seed in range(40):
        g = random_graph(25, 0.08, seed)
        disconnected += len(connected_components(g)) > 1
        bf, per_block = block_partitions(g)
        got = combine_blocks(g, bf, per_block)
        assert same_td(got, ref_combine_blocks(g, bf, per_block)), seed
    assert disconnected > 30


def test_size_rule_matches_full_block_path(monkeypatch):
    """Each run is made twice, once with the size rule and once with every
    block on the full path; every block's partition must agree, and the
    rule must decide exactly the blocks its size bound names.  The rule
    stands for the partitioner's output, before step 4 narrows it, so both
    runs keep the partition as built: `refine` returns its input, and the
    layered candidate is one bag, which never wins.  For a root block the
    rule splits the first vertex off the partitioner's one bag, so the run
    with the rule is at most as wide."""
    monkeypatch.setattr(pipeline, "refine", lambda g, tp: tp)
    monkeypatch.setattr(pipeline, "bfs_layering", lambda g, root: TreePartition([list(range(g.n))], [], 0))
    real_rule = pipeline.partition_by_size
    real_combine = pipeline.combine_blocks
    use_rule = [True]
    fired = []  # one flag per rule call of the current component
    combined = []  # (h, bf, per_block, flags) per combine_blocks call

    def rule(block, min_degree, cut, cut_degree):
        tp = real_rule(block, min_degree, cut, cut_degree) if use_rule[0] else None
        fired.append(tp is not None)
        return tp

    def combine(h, bf, per_block):
        combined.append((h, bf, per_block, fired[:]))
        fired.clear()
        return real_combine(h, bf, per_block)

    monkeypatch.setattr(pipeline, "partition_by_size", rule)
    monkeypatch.setattr(pipeline, "combine_blocks", combine)
    shortcuts = full = 0
    for idx, (g, k) in enumerate(size_rule_cases()):
        runs = []
        for flag in (True, False):
            use_rule[0] = flag
            combined.clear()
            fired.clear()
            out = run(g, PipelineParams(k=k))
            runs.append((out.accepted, out.width, list(combined)))
        (acc, width, fast), (acc_full, width_full, slow) = runs
        assert (acc, len(fast)) == (acc_full, len(slow)), idx
        assert not acc or width <= width_full, idx
        for (h, bf, per_block, flags), (_, _, per_block_full, _) in zip(fast, slow):
            assert len(flags) == len(bf.blocks), idx
            for bidx, blk in enumerate(bf.blocks):
                cut = bf.parent_cut[bidx]
                want = per_block_full[bidx]
                if flags[bidx] and cut is None:
                    want = split_first(want)
                assert same_td(per_block[bidx], want), (idx, blk)
                d_cut = 0 if cut is None else in_degree(h, blk, cut)
                assert flags[bidx] == size_rule_fires(
                    len(blk), min_in_degree(h, blk), cut, d_cut
                ), (idx, blk)
                shortcuts += flags[bidx]
                full += not flags[bidx]
    assert shortcuts > 1500 and full > 100, (shortcuts, full)


def test_size_rule_matches_partitioner_in_both_roles():
    """Every block of the chains, tree multiples and random graphs, as a
    root block and below each of its vertices: where the rule decides, it
    returns what the partitioner builds from the block's extracted
    decomposition (`ref_extract_sub_td`) and from its balanced tree, with
    the first vertex of a root block split off its one bag."""
    decided = 0
    graphs = [block_chain(seed) for seed in range(40, 70)]
    graphs += [gen_multiple_tree(random_tree(12, m), m) for m in range(1, 13)]
    graphs += random_corpus()[::4]
    for idx, g in enumerate(graphs):
        td = heuristic_td(g)
        for blk in biconnected_components(g).blocks:
            sub, old = g.induced(blk)
            new_id = {v: i for i, v in enumerate(old)}
            sub_td = ref_extract_sub_td(td, blk, new_id)
            low = min_in_degree(sub, range(sub.n))
            for cut in [None] + list(range(sub.n)):
                if cut is None:
                    got = partition_by_size(blk, low)
                else:
                    got = partition_by_size(blk, low, old[cut], sub.degree(cut))
                if got is None:
                    continue
                for t in (sub_td, balance_td(sub, sub_td)):
                    if cut is None:
                        local = partition_rooted(sub, t, {0})
                    else:
                        local = partition_isolated(sub, t, cut)
                    want = TreePartition(
                        [sorted(old[x] for x in bag) for bag in local.bags],
                        list(local.tree_edges),
                        local.root,
                    )
                    if cut is None:
                        want = split_first(want)
                    assert same_td(got, want), (idx, blk, cut)
                decided += 1
    assert decided > 2500, decided


def extraction_cases():
    """(graph, k): tree multiples with m = 2..12 at k = ceil(m / 2), where
    2k - 1 <= m lets step 2 merge tree vertices, and at k + 1; windmills of
    K_{2,12} blades on one hub; chains of cycles and cliques; random
    graphs; walls."""
    for m in range(2, 13):
        for nodes in (3, 8):
            g = gen_multiple_tree(random_tree(nodes, m), m)
            for k in ((m + 1) // 2, (m + 1) // 2 + 1):
                yield g, k
    for blades in (1, 2, 7, 30):
        yield gen_multiple_tree(star(blades), 12), 7
    for seed in range(40):
        yield block_chain(seed), 8
    for g in random_corpus():
        yield g, 3
    for side in (6, 10, 15):
        yield gen_wall(side), 3


def step4_td(g, red):
    """The clique tree of the quotient red.h's perfect elimination order,
    as `_step1` builds the order from `eliminate(g)`: the order itself,
    and when red.h is not g, that of its clique tree's bags mapped onto
    red.h."""
    td = clique_tree(*eliminate(g))
    if red.h is g:
        return td
    bags = [sorted({red.part_of[v] for v in bag}) for bag in td.bags]
    return clique_tree(*elimination_of(TreeDecomposition(bags, td.tree_edges, root=0), red.h.n))


def maximal_bags(td):
    """The bags of td that lie inside no other, each once, as `bag_set`
    lists them."""
    sets = {frozenset(bag) for bag in td.bags}
    return sorted(tuple(sorted(x)) for x in sets if not any(x < y for y in sets))


def test_step4_hands_each_block_a_clique_tree_of_its_restricted_order(monkeypatch):
    """On the pipeline's own quotients, every block that reaches the
    partitioner, whether a root block or below a cutvertex, is handed a
    decomposition of the block with at most as many bags as the block
    has vertices, whose bags are the maximal ones among the restrictions
    to the block of the bags of H's clique tree (`step4_td`), at the same
    width: the clique tree of H's order restricted to the block."""
    seen = {}  # the last component, its quotient and H's clique tree, and the last block
    real_reduction = pipeline.b_reduction
    real_subgraph = pipeline.subgraph
    real_rooted = pipeline.partition_rooted
    real_isolated = pipeline.partition_isolated
    counts = {"root": 0, "below_cut": 0, "below_cut_3+": 0, "part_of_h": 0, "merged": 0}

    def reduction(g, gb, parts=None):
        seen["g"], seen["red"] = g, real_reduction(g, gb, parts)
        seen["tree"] = step4_td(g, seen["red"])
        return seen["red"]

    def subgraph(h, blk, edges):
        seen["blk"] = blk
        return real_subgraph(h, blk, edges)

    def check(sub, td, cut):
        blk, h = seen["blk"], seen["red"].h
        want = ref_extract_sub_td(seen["tree"], blk, {v: i for i, v in enumerate(blk)})
        assert sub.n == len(blk) and td.num_nodes <= len(blk), blk
        assert bag_set(td) == maximal_bags(want), blk
        assert verify_td(sub, td) == want.width(), blk
        counts["root" if cut is None else "below_cut"] += 1
        counts["below_cut_3+"] += cut is not None and len(blk) > 2
        counts["part_of_h"] += len(blk) < h.n
        counts["merged"] += h is not seen["g"]

    def rooted(sub, td, s_set):
        check(sub, td, None)
        return real_rooted(sub, td, s_set)

    def isolated(sub, td, v):
        check(sub, td, v)
        return real_isolated(sub, td, v)

    monkeypatch.setattr(pipeline, "b_reduction", reduction)
    monkeypatch.setattr(pipeline, "subgraph", subgraph)
    monkeypatch.setattr(pipeline, "partition_rooted", rooted)
    monkeypatch.setattr(pipeline, "partition_isolated", isolated)
    for g, k in extraction_cases():
        run(g, PipelineParams(k=k))
    assert counts["root"] > 70 and counts["below_cut_3+"] > 25, counts
    assert counts["part_of_h"] > 90 and counts["merged"] >= 4, counts


def restriction_cases():
    """(kind, graph, order, nbrs, subsets): a perfect elimination order of a
    chordal supergraph of graph, with the sorted vertex lists it is
    restricted to.  On the random corpus, grid 20 and wall 20: step 1's
    elimination (`eliminate`) and an import's order (`elimination_of` of
    a heuristic decomposition), each with every component and every
    block; and the order `_step1` builds for the quotient by the
    components of a random half of the edges, with every block of the
    quotient."""
    rng = random.Random(31)
    for idx, g in enumerate(random_corpus() + [gen_grid(20), gen_wall(20)]):
        strategy = "min-fill" if idx % 2 else "min-degree"
        subsets = connected_components(g) + biconnected_components(g).blocks
        yield ("eliminate", g, *eliminate(g, strategy, idx % 4), subsets)
        yield ("import", g, *elimination_of(heuristic_td(g, strategy, idx % 4), g.n), subsets)
        red = b_reduction(g, Graph(g.n, [e for e in g.edges() if rng.random() < 0.5]))
        _, _, reduced = _step1(g, PipelineParams(k=1, step1="heur:" + strategy), range(g.n), 0, None)
        yield ("merged" if red.h.n < g.n else "quotient", red.h, *reduced(red), biconnected_components(red.h).blocks)


def test_restrict_elimination_is_a_perfect_elimination_order_of_each_subset():
    """`restrict_elimination(rank_of(order), nbrs, vertices)` orders
    0..len(vertices)-1 so that each restricted nbrs[v] is after v and a
    clique; its pairs are the co-bagged pairs of the order's clique tree
    restricted to the vertices (`ref_extract_sub_td`), its clique tree's
    bags are the maximal restricted bags, at the same width, and that
    clique tree is a decomposition of the induced subgraph."""
    counts = {}
    for idx, (kind, g, order, nbrs, subsets) in enumerate(restriction_cases()):
        tree = clique_tree(order, nbrs)
        for vertices in subsets:
            new_id = {v: i for i, v in enumerate(vertices)}
            sub_order, sub_nbrs = restrict_elimination(rank_of(order), nbrs, vertices)
            m = len(vertices)
            assert sorted(sub_order) == list(range(m)), (idx, vertices)
            pos = rank_of(sub_order)
            want = ref_extract_sub_td(tree, vertices, new_id)
            pairs = set(candidate_pairs(want))
            listed = set()
            for v in range(m):
                assert all(pos[u] > pos[v] for u in sub_nbrs[v]), (idx, vertices, v)
                assert pairs.issuperset(itertools.combinations(sorted(sub_nbrs[v]), 2)), (idx, vertices, v)
                listed.update((min(u, v), max(u, v)) for u in sub_nbrs[v])
            assert listed == pairs, (idx, vertices)
            got = clique_tree(sub_order, sub_nbrs)
            assert bag_set(got) == maximal_bags(want), (idx, vertices)
            assert got.width() == want.width(), (idx, vertices)
            assert verify_td(g.induced(vertices)[0], got) == got.width(), (idx, vertices)
            counts[kind, m < g.n] = counts.get((kind, m < g.n), 0) + 1
    assert min(counts["eliminate", True], counts["import", True]) > 1000, counts
    assert counts["merged", True] > 300 and counts["merged", False] > 20, counts


def test_clique_tree_is_the_reduced_elimination_decomposition():
    """`clique_tree` returns exactly the reference contraction of the
    elimination's decomposition: bags, sorted tree edges and root, for
    min-degree and min-fill on connected and disconnected random graphs,
    grids, walls, stars and paths, for the exact search, and for no
    vertices."""
    connected = {True: 0, False: 0}
    cases = [(g, strategy, idx % 4) for idx, g in enumerate(random_corpus())
             for strategy in ("min-degree", "min-fill")]
    cases += [(make(), "min-degree", 0) for make in STRUCTURED.values()]
    for idx, (g, strategy, seed) in enumerate(cases):
        order, nbrs = eliminate(g, strategy, seed)
        want = ref_reduce_td(_td_from_elimination(order, nbrs))
        assert same_td(clique_tree(order, nbrs), want), (idx, strategy)
        connected[len(connected_components(g)) == 1] += 1
    assert min(connected.values()) > 100, connected
    for s in range(40):
        g = random_graph(12, 0.3, s)
        order, nbrs = next(filter(None, (exact_elimination(g, w) for w in range(g.n))))
        want = ref_reduce_td(_td_from_elimination(order, nbrs))
        assert same_td(clique_tree(order, nbrs), want), s
    assert same_td(clique_tree([], []), ref_reduce_td(_td_from_elimination([], [])))


def dense(td):
    """td with its vertices renumbered 0..n-1 in id order, and n."""
    new_id = {v: i for i, v in enumerate(sorted({v for bag in td.bags for v in bag}))}
    bags = [[new_id[v] for v in bag] for bag in td.bags]
    return TreeDecomposition(bags, td.tree_edges, root=td.root), len(new_id)


def elimination_cases():
    """(decomposition, n), each rooted at its own root and at two random
    nodes: heuristic (min-degree and min-fill) and balanced decompositions
    of the random corpus, grid 20 and wall 20; an import's restriction to
    each component (`ref_extract_sub_td`); the heuristic decompositions
    mapped onto the quotient by the components of a random half of the
    edges, where many bags become equal or nested; and random trees of
    bags with runs of equal and nested bags and empty bags."""
    rng = random.Random(29)
    tds = []
    for idx, g in enumerate(random_corpus() + [gen_grid(20), gen_wall(20)]):
        td = heuristic_td(g, "min-fill" if idx % 2 else "min-degree", idx % 4)
        tds += [(td, g.n), (balance_td(g, td), g.n)]
        for comp in connected_components(g):
            new_id = {v: i for i, v in enumerate(comp)}
            tds.append((ref_extract_sub_td(td, comp, new_id), len(comp)))
        half = Graph(g.n, [e for e in g.edges() if rng.random() < 0.5])
        red = b_reduction(g, half)
        bags = [sorted({red.part_of[v] for v in bag}) for bag in td.bags]
        tds.append((TreeDecomposition(bags, td.tree_edges, root=0), red.h.n))
    tds += [dense(td) for td in itertools.islice(random_bag_trees(), 200)]
    for td, n in tds:
        if n:
            for root in (td.root, rng.randrange(td.num_nodes), rng.randrange(td.num_nodes)):
                yield TreeDecomposition(td.bags, td.tree_edges, root=root), n


def test_elimination_of_is_a_perfect_elimination_order_of_the_co_bagged_pairs():
    """`elimination_of(td, n)` orders 0..n-1 so that each nbrs[v] is the
    set of v's later neighbours in the graph of td's co-bagged pairs, and
    a clique there (so the order is a perfect elimination order of it),
    with max |nbrs[v]| = td.width(); the clique tree of the order has the
    reference contraction's bags: the maximal bags of td, each once."""
    cases = 0
    for idx, (td, n) in enumerate(elimination_cases()):
        order, nbrs = elimination_of(td, n)
        assert sorted(order) == list(range(n)), idx
        pos = [0] * n
        for i, v in enumerate(order):
            pos[v] = i
        pairs = candidate_pairs(td)
        edges = set(pairs)
        listed = set()
        for v in order:
            assert all(pos[u] > pos[v] for u in nbrs[v]), (idx, v)
            assert edges.issuperset(itertools.combinations(sorted(nbrs[v]), 2)), (idx, v)
            listed.update((min(u, v), max(u, v)) for u in nbrs[v])
        assert sorted(listed) == pairs, idx
        assert max(map(len, nbrs)) == td.width(), idx
        assert bag_set(clique_tree(order, nbrs)) == bag_set(ref_reduce_td(td)), idx
        cases += 1
    assert cases > 4000, cases


def test_candidate_pairs_match_per_bag_listing():
    for idx, g in enumerate(random_corpus()):
        td = heuristic_td(g, "min-fill" if idx % 2 else "min-degree", idx % 4)
        assert candidate_pairs(td) == ref_candidate_pairs(td), idx


def test_tcd_climbs_match_subtree_sets():
    """One climb per host edge gives every cut and the first thin node
    with an edge into a sibling subtree exactly as the subtree vertex sets
    do, on decompositions both nice and not."""
    offenders = 0
    for idx, (g, tcd) in enumerate(random_tcds()):
        cuts = tcd_cuts(g, tcd)
        cut, parent, depth, order, _ = cuts
        ref = ref_tcd_cuts(g, tcd)
        assert (parent, order) == (ref[1], ref[2]), idx
        assert {t: cut[t] for t in order[1:]} == ref[0] and cut[tcd.root] == 0, idx
        assert all(depth[t] == depth[parent[t]] + 1 for t in order[1:]), idx
        offender = non_nice_node(cuts)
        assert offender == ref_non_nice_node(g, tcd, ref), idx
        offenders += offender is not None
    assert 400 < offenders < 2100, offenders
