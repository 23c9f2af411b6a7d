"""Bridges between tree-cut decompositions, subdivisions, and
tree-partitions.

tcd_to_subdivision_tp turns a nice tree-cut decomposition of width k into a
tree-partition of a subdivision of the graph, of width at most
2 + k(k+2)/2 + k.  tp_lift_subdivision turns a width-k tree-partition into
one of any prescribed subdivision, of width at most k(k+1).
"""

from __future__ import annotations

from .decomp import (
    TreeCutDecomposition,
    TreePartition,
    Violation,
    read_tcd,
    tree_climbs,
    verify_tp,
)
from .graph import Graph, part_index, subdivide, tree_bfs


def tcd_to_subdivision_tp(g: Graph, tcd: TreeCutDecomposition):
    """Tree-partition of a subdivision of g from a nice tree-cut
    decomposition.

    Each edge uv is subdivided by the tree distance between the nodes
    holding u and v; the path vertices are placed one per node along that
    tree path (skipping u's node), so every edge of the subdivision joins
    vertices of the same or adjacent bags.  Empty nodes are contracted
    away.  Returns (subdivided graph, subdivision map, tree-partition).
    """
    res = read_tcd(g, tcd)
    if isinstance(res, Violation):
        raise ValueError(f"invalid tree-cut decomposition: {res}")
    width, (_, parent, depth, _, thin), node_of = res
    if thin is not None:
        raise ValueError(f"decomposition is not nice: thin node {thin} has edges into a sibling subtree")

    # sorted adjacency: the walk lists children in ascending order, which
    # fixes the bag numbering of the output
    order = tree_bfs([sorted(a) for a in tcd.node_adj()], tcd.root)[1]
    edges = g.edges()
    climbs = [tree_climbs(parent, depth, node_of[u], node_of[v]) for u, v in edges]
    tree_paths = [up_u + [top] + up_v[::-1] for up_u, top, up_v in climbs]  # u's node to v's
    g2, smap = subdivide(g, {e: len(nodes) - 1 for e, nodes in zip(edges, tree_paths)})

    bags = [list(b) for b in tcd.bags]
    for e, nodes in zip(edges, tree_paths):
        for vertex, node in zip(smap.paths[e], nodes[1:]):
            bags[node].append(vertex)

    # contract nodes that stayed empty: their children re-attach upward
    alive = [bool(b) for b in bags]
    live_anchor = [None] * tcd.num_nodes  # nearest live ancestor-or-self
    new_id = {}
    edges = []
    first_live = None
    for t in order:
        up = live_anchor[parent[t]] if parent[t] != -1 else None
        if alive[t]:
            new_id[t] = len(new_id)
            live_anchor[t] = t
            if up is not None:
                edges.append((new_id[up], new_id[t]))
            elif first_live is not None:
                edges.append((new_id[first_live], new_id[t]))
            if first_live is None:
                first_live = t
        else:
            live_anchor[t] = up if up is not None else first_live

    tp = TreePartition(
        [sorted(bags[t]) for t in order if alive[t]],
        edges,
        root=new_id[first_live] if first_live is not None else None,
    )
    realized = verify_tp(g2, tp)
    bound = 2 + width * (width + 2) // 2 + width
    assert not isinstance(realized, Violation), realized
    assert realized <= bound, (realized, bound)
    return g2, smap, tp


def hang_folded(bags, edges, anchor: int, groups):
    """Append the bags groups[0] + groups[-1], groups[1] + groups[-2], ...
    as a path hung below the anchor bag; returns each group's bag."""
    node = [None] * len(groups)
    for a in range((len(groups) + 1) // 2):
        b = len(groups) - 1 - a
        bags.append(list(groups[a]) + (list(groups[b]) if a < b else []))
        edges.append((anchor, len(bags) - 1))
        anchor = node[a] = node[b] = len(bags) - 1
    return node


def tp_lift_subdivision(g: Graph, tp: TreePartition, counts):
    """Tree-partition of subdivide(g, counts) from a width-k partition of g,
    of width at most k(k+1).  Returns (subdivided graph, subdivision map,
    tree-partition); the partition is tp itself when no edge is subdivided.

    The partition is rooted at bag 0.  Same-bag edges fold their path into
    a fresh branch of width at most 2; child-to-parent edges put the path
    vertex nearest the parent into the child bag and fold the rest.
    """
    k = verify_tp(g, tp)
    if isinstance(k, Violation):
        raise ValueError(f"invalid tree-partition: {k}")
    g2, smap = subdivide(g, counts)
    if g2.n == g.n:
        return g2, smap, tp

    parent = tree_bfs(tp.node_adj(), 0)[0]
    node_of = part_index(tp.bags, g.n)[0]
    bags = [list(b) for b in tp.bags]
    edges = list(tp.tree_edges)
    for u, v in g.edges():
        path = smap.paths[(u, v)]
        if not path:
            continue
        nu, nv = node_of[u], node_of[v]
        if nu == nv:
            hang_folded(bags, edges, nu, [[x] for x in path])
            continue
        if parent[nv] == nu:
            child, path = nv, list(reversed(path))
        elif parent[nu] == nv:
            child = nu
        else:
            raise AssertionError("edge between non-adjacent bags")
        # path now runs from the child-bag endpoint to the parent-bag one
        bags[child].append(path[-1])
        hang_folded(bags, edges, child, [[x] for x in path[:-1]])

    out = TreePartition([sorted(b) for b in bags], edges, root=0)
    realized = verify_tp(g2, out)
    assert not isinstance(realized, Violation), realized
    assert realized <= k * (k + 1), (realized, k)
    return g2, smap, out
