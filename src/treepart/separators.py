"""Pairwise minimum separators via unit-capacity max-flow on the vertex-split
digraph, the auxiliary graph of highly-connected pairs, and its quotient.

mu(s, t) is measured in G-st: the direct edge, if present, is removed
before computing the minimum separator, for adjacent and non-adjacent
pairs alike.  By Menger's theorem it is the largest number of internally
disjoint s-t paths in G-st, and those paths are all the flow holds: each
vertex's two neighbours on its path (see `mu`).

`build_gb` settles most pairs without a flow, by three exact tests that
run before it (see its docstring): a degree bound and a common-neighbour
accept on every pair first, then, for b >= 2, a block test that also
moves any remaining flow from G onto the one block holding both
endpoints.  Given k, it stops once k + 1 vertices are connected.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graph import Graph, biconnected_components, connected_components, find, quotient, subgraph


def mu(g: Graph, s: int, t: int, cap: int | None = None) -> int:
    """min(mu(s, t), cap): size of a minimum s-t separator in G-st.

    Unit-capacity max-flow from s_out to t_in on the split digraph (node
    2v = v_in, 2v+1 = v_out; arcs v_in -> v_out, and u_out -> w_in for
    each edge uw other than st, both ways), with breadth-first augmenting
    paths scanned in vertex id order.  The flow is a set of internally
    disjoint s-t paths, held as pred[v] and succ[v], v's neighbours on its
    path, or -1 when v is on none.  Residual arcs: v_in -> v_out when v is
    free, else only v_in -> pred[v]_out; v_out -> w_in unless pred[w] == v
    (succ[v] == t for w = t); v_out -> v_in when v is on a path.
    Augmenting sets succ[u], pred[w] = w, u for each arc u_out -> w_in it
    takes and frees v (pred[v] = succ[v] = -1) for each v_out -> v_in; an
    arc w_in -> u_out needs no write, as the arcs on either side of it
    overwrite pred[w] and succ[u].  It stops after `cap` augmenting paths;
    each costs one search, O(n + m), and at most min(mu, cap) + 1 run.
    """
    n = g.n
    if not (0 <= s < n and 0 <= t < n) or s == t:
        raise ValueError(f"s = {s} and t = {t} must be distinct vertices in 0..{n - 1}")
    if cap is None:
        cap = n
    if cap <= 0:
        return 0
    adj = g.adj
    pred = [-1] * n
    succ = [-1] * n
    src = 2 * s + 1
    sink = 2 * t
    flow = 0
    parent = [-1] * (2 * n)
    seen = [0] * (2 * n)  # seen[x] == stamp: x reached by this search, no resets
    while flow < cap:
        stamp = flow + 1
        seen[src] = stamp
        queue = [src]
        for x in queue:
            v = x >> 1
            if not x & 1:  # v_in: one arc out
                y = 2 * v + 1 if pred[v] < 0 else 2 * pred[v] + 1
                if seen[y] != stamp:
                    seen[y] = stamp
                    parent[y] = x
                    queue.append(y)
                continue
            for w in adj[v]:
                if w == t:
                    if v != s and succ[v] != t:
                        break  # t_in reached
                elif pred[w] != v and seen[2 * w] != stamp:
                    seen[2 * w] = stamp
                    parent[2 * w] = x
                    queue.append(2 * w)
            else:
                if pred[v] >= 0 and seen[2 * v] != stamp:
                    seen[2 * v] = stamp
                    parent[2 * v] = x
                    queue.append(2 * v)
                continue
            parent[sink] = x
            break
        else:
            break  # t_in unreachable: the flow is maximum
        y = sink
        while y != src:
            x = parent[y]
            if x & 1 and not y & 1:
                u, w = x >> 1, y >> 1
                if u == w:
                    pred[u] = succ[u] = -1
                else:
                    succ[u], pred[w] = w, u
            y = x
        flow += 1
    return flow


def candidate_pairs(td) -> list:
    """Deduplicated vertex pairs co-occurring in some bag, sorted."""
    pairs = set()
    for bag in td.bags:
        pairs.update(itertools.combinations(sorted(set(bag)), 2))
    return sorted(pairs)


def build_gb(g: Graph, b: int, pairs, blocks=None, k=None) -> Graph:
    """Auxiliary graph joining the given pairs uv with mu(u, v) >= b; with
    k given, possibly only part of it, holding k + 1 vertices connected in
    G^b when G^b has them.

    blocks, when given, is a list to which the block forest of g and its
    `block_edges` are appended as one pair when test 3 below builds them,
    so a caller that needs g's blocks too builds them once.

    Pairs are settled by three exact tests, cheapest first, in two passes:
    tests 1 and 2 on every pair, then test 3 on the pairs they leave open;
    a flow runs only when none of them settles a pair.

    1. Degree bound, O(1): every u-v path in G-uv leaves u and v by
       distinct edges, so mu <= min(deg u, deg v) - [uv in E].  Skip when
       this is below b; the neighbour sets, built once per vertex, answer
       [uv in E].
    2. Common neighbours, O(min(deg u, deg v)) on those sets: each w in
       N(u) & N(v) gives the path u-w-v, which avoids uv, and these paths
       share no inner vertex, so mu >= |N(u) & N(v)|.  Accept when the
       count, which stops there, reaches b.
    3. Blocks, for b >= 2 only, O(1) per pair after one O(n + m) pass,
       made once the second pass has a pair, for the block forest and each
       block's edges.  Two vertices share at most one block (`block_of`),
       and every simple u-v path stays inside it.  With no shared block a
       cutvertex separates u and v, so mu <= 1 < b: skip.  Otherwise apply
       the degree bound inside the block, first with the block's size less
       one (no bridge passes), then on the block's subgraph, built once per
       block from its edges, where the flow runs.  With b = 1 a pair split
       by a cutvertex can still reach mu = 1, so the flow runs on all of G.

    With k given, each accepted pair is joined in a union-find, and the
    pairs accepted so far are returned as soon as one component exceeds
    k: a reject then tests no further pair, and runs no flow when the
    first pass decides it.  That partial graph has exactly one component
    above k, and it depends on pair order; without k, or when no
    component exceeds k, the output is all of G^b and does not.
    """
    if b < 1:
        raise ValueError("b must be >= 1")
    nbrs = [None] * g.n  # vertex -> neighbour set, built on first use
    edges = []
    if k is not None:
        root = list(range(g.n))  # union-find over the joined pairs
        size = [1] * g.n  # at a representative: its component's size

    def join(u, v) -> bool:
        """Add uv to G^b; True when k is given and uv's component exceeds it."""
        edges.append((min(u, v), max(u, v)))
        if k is None:
            return False
        ru, rv = find(root, u), find(root, v)
        if ru != rv:
            if size[ru] > size[rv]:
                ru, rv = rv, ru
            root[ru] = rv
            size[rv] += size[ru]
        return size[rv] > k

    left = []  # (u, v, [uv in E]) for the pairs tests 1 and 2 leave open
    for u, v in pairs:
        nu = nbrs[u] = nbrs[u] or set(g.adj[u])  # an empty set is rebuilt, in O(1)
        nv = nbrs[v] = nbrs[v] or set(g.adj[v])
        adjacent = v in nu
        if min(len(nu), len(nv)) - adjacent < b:
            continue
        small, big = sorted((nu, nv), key=len)
        if len(list(itertools.islice(filter(big.__contains__, small), b))) < b:
            left.append((u, v, adjacent))
        elif join(u, v):
            return Graph(g.n, sorted(edges))
    if left and b >= 2:
        forest = biconnected_components(g)
        block_edges = forest.block_edges(g)
        if blocks is not None:
            blocks.append((forest, block_edges))
    subs = {}  # block id -> (subgraph, vertex -> subgraph id)
    for u, v, adjacent in left:
        if b == 1:
            if mu(g, u, v, cap=b) >= b and join(u, v):
                break
            continue
        i = forest.block_of(u, v)
        if i is None or len(forest.blocks[i]) - 1 - adjacent < b:  # no block, or too small
            continue
        if i not in subs:
            subs[i] = subgraph(g, forest.blocks[i], block_edges[i])
        sub, new_id = subs[i]
        su, sv = new_id[u], new_id[v]
        if min(sub.degree(su), sub.degree(sv)) - adjacent < b:
            continue
        if mu(sub, su, sv, cap=b) >= b and join(u, v):
            break
    return Graph(g.n, sorted(edges))


@dataclass
class BReduction:
    """Quotient of G by the connected components of the auxiliary graph."""

    h: Graph
    part_of: list  # V(G) -> part id
    parts: list  # part id -> sorted vertex list


def b_reduction(g: Graph, gb: Graph, parts=None) -> BReduction:
    """The quotient of g by gb's components; parts, when given, must be
    `connected_components(gb)`, which is then not searched again.  By an
    edgeless gb, whose parts are the singletons, it is g, with no pass."""
    if gb.n != g.n:
        raise ValueError("auxiliary graph must share the vertex set")
    if parts is None:
        parts = connected_components(gb)
    if not gb.m:
        return BReduction(g, list(range(g.n)), parts)
    h, part_of = quotient(g, parts)
    return BReduction(h, part_of, parts)
