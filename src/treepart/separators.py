"""Pairwise minimum separators via unit-capacity max-flow on the vertex-split
digraph, the auxiliary graph of highly-connected pairs, and its quotient.

mu(s, t) is measured in G-st: the direct edge, if present, is removed
before computing the minimum separator, for adjacent and non-adjacent
pairs alike.  By Menger's theorem it is the largest number of internally
disjoint s-t paths in G-st.

`build_gb` settles most pairs without a flow, by three exact tests that
run before it (see its docstring): a degree bound, a common-neighbour
accept, and, for b >= 2, a block test that also moves any remaining flow
from G onto the one block holding both endpoints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graph import Graph, biconnected_components, connected_components, quotient, subgraph


def mu(g: Graph, s: int, t: int, cap: int | None = None) -> int:
    """min(mu(s, t), cap): size of a minimum s-t separator in G-st.

    Unit-capacity max-flow between s_out and t_in on the split digraph
    (v_in -> v_out per vertex, both directions per edge), with breadth-first
    augmenting paths scanned in vertex id order.  The flow stops as soon as
    `cap` augmenting paths have been found.  Each augmenting path costs one
    breadth-first search, O(n + m), and a call runs at most min(mu, cap) + 1
    of them.
    """
    if s == t:
        raise ValueError("s == t")
    n = g.n
    if cap is None:
        cap = n
    if cap <= 0:
        return 0

    # Node encoding: 2v = v_in, 2v+1 = v_out.  Arcs are implicit:
    #   v_in -> v_out            (vertex capacity)
    #   u_out -> v_in for uv in E, uv != st
    # Residuals are tracked per vertex (split arc) and per directed edge.
    vertex_used = bytearray(n)  # split arc saturated
    edge_flow = {}  # (u, v) -> 1 when u_out -> v_in carries flow

    src = 2 * s + 1
    sink = 2 * t
    flow = 0
    parent = [-1] * (2 * n)
    seen = [0] * (2 * n)  # seen[x] == stamp: x reached by the current search
    while flow < cap:
        # BFS from s_out to t_in in the residual network; each search has
        # its own stamp, so nothing is reset between augmentations
        stamp = flow + 1
        seen[src] = stamp
        queue = [src]
        qi = 0
        found = False
        while qi < len(queue) and not found:
            x = queue[qi]
            qi += 1
            v, is_out = x >> 1, x & 1
            if is_out:
                # forward edge arcs v_out -> w_in, split residual v_out -> v_in
                for w in g.adj[v]:
                    if (v == s and w == t) or (v == t and w == s):
                        continue
                    if edge_flow.get((v, w)):
                        continue
                    y = 2 * w
                    if y == sink:
                        parent[y] = x
                        found = True
                        break
                    if seen[y] != stamp:
                        seen[y] = stamp
                        parent[y] = x
                        queue.append(y)
                if not found and vertex_used[v] and seen[2 * v] != stamp:
                    seen[2 * v] = stamp
                    parent[2 * v] = x
                    queue.append(2 * v)
            else:
                # split arc v_in -> v_out, edge residuals v_in -> w_out
                if not vertex_used[v] and seen[2 * v + 1] != stamp:
                    seen[2 * v + 1] = stamp
                    parent[2 * v + 1] = x
                    queue.append(2 * v + 1)
                for w in g.adj[v]:
                    if edge_flow.get((w, v)):
                        y = 2 * w + 1
                        if seen[y] != stamp:
                            seen[y] = stamp
                            parent[y] = x
                            queue.append(y)
        if not found:
            break
        # augment along the parent chain
        y = sink
        while y != src:
            x = parent[y]
            xv, x_out = x >> 1, x & 1
            yv, y_out = y >> 1, y & 1
            if xv == yv:
                vertex_used[xv] = 1 if y_out else 0
            elif x_out and not y_out:
                edge_flow[(xv, yv)] = 1
            else:
                edge_flow.pop((yv, xv), None)
            y = x
        flow += 1
    return flow


def candidate_pairs(td, vertices=None) -> list:
    """Deduplicated vertex pairs co-occurring in some bag, sorted.

    With `vertices` (a set), each bag is first restricted to it, so only
    pairs of those vertices are listed.  Pairs are listed once per distinct
    restricted bag, so many bags restricting to the same few vertices (the
    hubs of K_{a,N}) cost one listing.
    """
    restricted = {
        tuple(sorted(set(bag) if vertices is None else vertices.intersection(bag)))
        for bag in td.bags
    }
    pairs = set()
    for bs in restricted:
        pairs.update(itertools.combinations(bs, 2))
    return sorted(pairs)


def build_gb(g: Graph, b: int, pairs) -> Graph:
    """Auxiliary graph joining the given pairs uv with mu(u, v) >= b.

    Each pair goes through three exact tests, cheapest first; a flow runs
    only when none of them settles it:

    1. Degree bound, O(1): every u-v path in G-uv leaves u and v by
       distinct edges, so mu <= min(deg u, deg v) - [uv in E].  Skip when
       this is below b; the neighbour sets, built once per vertex, answer
       [uv in E].
    2. Common neighbours, O(min(deg u, deg v)) on those sets: each w in
       N(u) & N(v) gives the path u-w-v, which avoids uv, and these paths
       share no inner vertex, so mu >= |N(u) & N(v)|.  Accept when the
       count, which stops there, reaches b.
    3. Blocks, for b >= 2 only, O(1) per pair after one O(n + m) pass,
       made when a pair first gets here, for the block forest and each
       block's edges.  Two vertices share at most one block (`block_of`),
       and every simple u-v path stays inside it.  With no shared block a
       cutvertex separates u and v, so mu <= 1 < b: skip.  Otherwise apply
       the degree bound with degrees inside the block, and run the flow on
       the block's subgraph, built once per block from its edges.  With
       b = 1 a pair split by a cutvertex can still reach mu = 1, so the
       flow runs on all of G.

    Output does not depend on pair order.
    """
    if b < 1:
        raise ValueError("b must be >= 1")
    nbrs = [None] * g.n  # vertex -> neighbour set, built on first use
    forest = None  # b >= 2: the block forest and its block_edges, built on first use
    blocks = {}  # block id -> (subgraph, vertex -> subgraph id)
    edges = []
    for u, v in pairs:
        nu = nbrs[u] = nbrs[u] or set(g.adj[u])  # an empty set is rebuilt, in O(1)
        nv = nbrs[v] = nbrs[v] or set(g.adj[v])
        adjacent = v in nu
        if min(len(nu), len(nv)) - adjacent < b:
            continue
        small, big = sorted((nu, nv), key=len)
        if len(list(itertools.islice(filter(big.__contains__, small), b))) == b:
            edges.append((min(u, v), max(u, v)))
            continue
        if b == 1:
            if mu(g, u, v, cap=b) >= b:
                edges.append((min(u, v), max(u, v)))
            continue
        if forest is None:
            forest = biconnected_components(g)
            block_edges = forest.block_edges(g)
        i = forest.block_of(u, v)
        if i is None:
            continue
        if i not in blocks:
            blocks[i] = subgraph(g, forest.blocks[i], block_edges[i])
        sub, new_id = blocks[i]
        su, sv = new_id[u], new_id[v]
        if min(sub.degree(su), sub.degree(sv)) - adjacent < b:
            continue
        if mu(sub, su, sv, cap=b) >= b:
            edges.append((min(u, v), max(u, v)))
    return Graph(g.n, sorted(edges))


@dataclass
class BReduction:
    """Quotient of G by the connected components of the auxiliary graph."""

    h: Graph
    part_of: list  # V(G) -> part id
    parts: list  # part id -> sorted vertex list


def b_reduction(g: Graph, gb: Graph, parts=None) -> BReduction:
    """The quotient of g by gb's components; parts, when given, must be
    `connected_components(gb)`, which is then not searched again."""
    if gb.n != g.n:
        raise ValueError("auxiliary graph must share the vertex set")
    if parts is None:
        parts = connected_components(gb)
    h, part_of = quotient(g, parts)
    return BReduction(h, part_of, parts)
