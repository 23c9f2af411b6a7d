"""The heap-driven elimination and lower bound, the indexed block
extraction and the subtree-size split choice of `balance_td` must return
exactly what the straightforward scans return.

The scans are kept here as reference oracles: one `min` over all alive
vertices per step, one scan of every bag and tree edge per block, and one
component search per split candidate.  Bags, tree edges (in order) and
roots must match, so a drift in a tie-break or in edge order fails.
"""

import random

import pytest

from treepart.decomp import TreeDecomposition
from treepart.families import gen_grid, gen_wall, random_graph
from treepart.graph import Graph, biconnected_components
from treepart.pipeline import _extract_sub_td, _td_index
from treepart.treewidth import balance_td, heuristic_td, treewidth_lower_bound


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


def ref_extract_sub_td(td, vertices, new_id):
    vset = set(vertices)
    keep = []
    for i, bag in enumerate(td.bags):
        inter = [new_id[v] for v in bag if v in vset]
        if inter:
            keep.append((i, sorted(inter)))
    node_id = {i: j for j, (i, _) in enumerate(keep)}
    edges = [
        (node_id[i], node_id[j])
        for i, j in td.tree_edges
        if i in node_id and j in node_id
    ]
    return TreeDecomposition([bag for _, bag in keep], edges, root=0)


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
        if len(children) <= 2:
            for ch in children:
                out_edges.append((node, ch))
        else:
            inter = emit(bag)
            out_edges.append((node, children[0]))
            out_edges.append((node, inter))
            out_edges.append((inter, children[1]))
            out_edges.append((inter, children[2]))
        return node

    build(set(range(len(nb))), [])
    return TreeDecomposition(out_bags, out_edges, root=0)


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


def star(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


STRUCTURED = {
    "star300": lambda: star(300),
    "path2000": lambda: path(2000),
    "grid20": lambda: gen_grid(20),
    "wall20": lambda: gen_wall(20),
}


def same_td(a, b):
    return (a.bags, a.tree_edges, a.root) == (b.bags, b.tree_edges, b.root)


def check_blocks(g, td, extract=60, balance=8):
    """On up to `extract` evenly spaced blocks of g: indexed extraction
    equals the full scan; on up to `balance` of them, so does the balanced
    tree of the extracted decomposition.  The caps keep the quadratic
    oracles affordable on graphs with thousands of blocks."""
    index = _td_index(td)
    blocks = biconnected_components(g).blocks
    step = max(1, len(blocks) // extract)
    for count, blk in enumerate(blocks[::step]):
        sub, old = g.induced(blk)
        new_id = {v: i for i, v in enumerate(old)}
        got = _extract_sub_td(td, new_id, index)
        want = ref_extract_sub_td(td, blk, new_id)
        assert same_td(got, want), blk
        if count < balance:
            assert same_td(balance_td(sub, got), ref_balance_td(want)), blk


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


def test_balance_and_extraction_match_scan_on_random_graphs():
    for idx, g in enumerate(random_corpus()):
        td = heuristic_td(g, "min-fill" if idx % 2 else "min-degree", idx % 4)
        assert same_td(balance_td(g, td), ref_balance_td(td)), idx
        check_blocks(g, td)


@pytest.mark.parametrize("name", sorted(STRUCTURED))
def test_structured_families_match_scan(name):
    g = STRUCTURED[name]()
    assert treewidth_lower_bound(g) == ref_treewidth_lower_bound(g)
    for strategy in ("min-degree", "min-fill"):
        td = heuristic_td(g, strategy, 3)
        assert same_td(td, ref_heuristic_td(g, strategy, 3)), strategy
    td = heuristic_td(g)
    assert same_td(balance_td(g, td), ref_balance_td(td))
    check_blocks(g, td)

