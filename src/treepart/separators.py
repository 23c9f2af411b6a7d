"""Pairwise minimum separators via unit-capacity max-flow on the vertex-split
digraph, the auxiliary graph of highly-connected pairs, and its quotient.

mu(s, t) is measured in G-st: the direct edge, if present, is removed
before computing the minimum separator, for adjacent and non-adjacent
pairs alike.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, connected_components, quotient


def mu(g: Graph, s: int, t: int, cap: int | None = None) -> int:
    """min(mu(s, t), cap): size of a minimum s-t separator in G-st.

    Unit-capacity max-flow between s_out and t_in on the split digraph
    (v_in -> v_out per vertex, both directions per edge), with breadth-first
    augmenting paths scanned in vertex id order.  The flow stops as soon as
    `cap` augmenting paths have been found.
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
    while flow < cap:
        # BFS from s_out to t_in in the residual network
        for i in range(2 * n):
            parent[i] = -1
        parent[src] = src
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
                    if parent[y] == -1:
                        parent[y] = x
                        queue.append(y)
                if not found and vertex_used[v] and parent[2 * v] == -1:
                    parent[2 * v] = x
                    queue.append(2 * v)
            else:
                # split arc v_in -> v_out, edge residuals v_in -> w_out
                if not vertex_used[v] and parent[2 * v + 1] == -1:
                    parent[2 * v + 1] = x
                    queue.append(2 * v + 1)
                for w in g.adj[v]:
                    if edge_flow.get((w, v)):
                        y = 2 * w + 1
                        if parent[y] == -1:
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


def candidate_pairs(td) -> list:
    """Deduplicated vertex pairs co-occurring in some bag, sorted."""
    pairs = set()
    for bag in td.bags:
        bs = sorted(set(bag))
        for i in range(len(bs)):
            for j in range(i + 1, len(bs)):
                pairs.add((bs[i], bs[j]))
    return sorted(pairs)


def build_gb(g: Graph, b: int, pairs) -> Graph:
    """Auxiliary graph joining the given pairs whose separator is >= b.

    The degree of each endpoint (in G-st) upper-bounds mu, so pairs that
    cannot reach b are skipped without running a flow.  Output does not
    depend on pair order.
    """
    if b < 1:
        raise ValueError("b must be >= 1")
    edges = []
    for u, v in pairs:
        bound = min(g.degree(u), g.degree(v)) - (1 if g.has_edge(u, v) else 0)
        if bound >= b and mu(g, u, v, cap=b) >= b:
            edges.append((min(u, v), max(u, v)))
    return Graph(g.n, sorted(edges))


@dataclass
class BReduction:
    """Quotient of G by the connected components of the auxiliary graph."""

    h: Graph
    part_of: list  # V(G) -> part id
    parts: list  # part id -> sorted vertex list
    weights: list  # part id -> component size

    def max_weight(self) -> int:
        return max(self.weights, default=0)


def b_reduction(g: Graph, gb: Graph) -> BReduction:
    if gb.n != g.n:
        raise ValueError("auxiliary graph must share the vertex set")
    parts = connected_components(gb)
    h, part_of = quotient(g, parts)
    return BReduction(h, part_of, parts, [len(p) for p in parts])
