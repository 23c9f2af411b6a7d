"""Models and verifiers for tree decompositions, tree-partitions, domino
tree decompositions and tree-cut decompositions.

Verifiers recompute everything from scratch and return either the width
(an int, or a (width, nice) pair for tree-cut decompositions) or a
:class:`Violation` naming the first failed clause in deterministic scan
order.  Malformed indices or tree shapes raise MalformedDecomposition, a
ValueError, instead, so structural garbage is never confused with a
definitional violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import Graph, part_index, tree_bfs


@dataclass(frozen=True)
class Violation:
    """First violated clause of a decomposition definition, with a witness."""

    clause: str
    witness: object = None

    def __bool__(self):
        return False

    def __str__(self):
        return f"{self.clause}: {self.witness!r}"


class MalformedDecomposition(ValueError):
    """Out-of-range or repeated bag entries, a tree shape that is no tree, or a bad root."""


@dataclass
class BaggedTree:
    """Tree on nodes 0..len(bags)-1 with one vertex list (bag) per node.

    The base of the three decomposition types: they differ in what their
    bags must satisfy, which the verifiers below check.
    """

    bags: list  # node -> sorted vertex list
    tree_edges: list  # (i, j) pairs
    root: int | None = None

    @property
    def num_nodes(self):
        return len(self.bags)

    def node_adj(self):
        """Node adjacency lists, neighbors in `tree_edges` order."""
        adj = [[] for _ in self.bags]
        for i, j in self.tree_edges:
            adj[i].append(j)
            adj[j].append(i)
        return adj


@dataclass
class TreeDecomposition(BaggedTree):
    """Tree plus covering bags.  Nodes are 0..len(bags)-1."""

    def width(self):
        return max((len(b) for b in self.bags), default=1) - 1

    def depth(self):
        """Depth of the rooted tree (root at depth 0); requires root set."""
        return max(occupancy_tables(self)[2])


def occupancy_tables(td: TreeDecomposition):
    """Occupancy tables of a rooted decomposition, as (top, parent, depth).

    parent[t] is t's parent node, -1 at the root (`tree_bfs`), depth[t]
    is t's distance from the root, and top[v] is the first node in
    breadth-first order whose bag holds v, which in a valid decomposition
    is the highest node of v's occupancy subtree.  So v occupies a node in
    the subtree of a node t outside its bag exactly when climbing parent
    pointers from top[v] reaches t.  One pass over the nodes in
    breadth-first order sets each top[v] once, at its first bag.
    """
    if td.root is None:
        raise ValueError("decomposition is not rooted")
    if not 0 <= td.root < td.num_nodes:
        raise ValueError(f"root {td.root} is not a node")
    parent, order, depth = tree_bfs(td.node_adj(), td.root)
    top = {}
    for i in order:
        for v in td.bags[i]:
            if v not in top:
                top[v] = i
    return top, parent, depth


@dataclass
class TreePartition(BaggedTree):
    """Tree whose bags partition the host's vertex set."""

    def width(self):
        return max((len(b) for b in self.bags), default=0)


@dataclass
class TreeCutDecomposition(BaggedTree):
    """Rooted tree with a near partition of the host's vertices.

    Stored adh/tor values, if any, are ignored by the verifier; everything
    is recomputed from the bags and the host graph.
    """

    root: int = 0


def _check_tree_shape(t: BaggedTree, root: int = 0):
    """The walk (parent, order, depth) of `tree_bfs` from root over t's
    nodes, or MalformedDecomposition unless the edges form a tree on them."""
    num_nodes, tree_edges = t.num_nodes, t.tree_edges
    for i, j in tree_edges:
        if not (0 <= i < num_nodes and 0 <= j < num_nodes) or i == j:
            raise MalformedDecomposition(f"bad tree edge ({i},{j})")
    if num_nodes == 0:
        if tree_edges:
            raise MalformedDecomposition("tree edges on zero nodes")
        return [], [], []
    if len(tree_edges) != num_nodes - 1:
        raise MalformedDecomposition(
            f"tree must have {num_nodes - 1} edges, got {len(tree_edges)}"
        )
    parent, order, depth = tree_bfs(t.node_adj(), root)
    if len(order) != num_nodes:
        raise MalformedDecomposition("tree is disconnected")
    return parent, order, depth


def _check_bag_indices(g: Graph, bags) -> None:
    for i, bag in enumerate(bags):
        for v in bag:
            if not (0 <= v < g.n):
                raise MalformedDecomposition(f"bag {i} mentions vertex {v} outside 0..{g.n - 1}")


def verify_td(g: Graph, td: TreeDecomposition):
    """Width of a valid tree decomposition, or the first Violation."""
    _check_bag_indices(g, td.bags)
    _check_tree_shape(td)
    if g.n == 0:
        return max((len(b) for b in td.bags), default=1) - 1

    where = [[] for _ in range(g.n)]
    for i, bag in enumerate(td.bags):
        for v in bag:
            if where[v] and where[v][-1] == i:
                raise MalformedDecomposition(f"bag {i} repeats vertex {v}")
            where[v].append(i)
    for v in range(g.n):
        if not where[v]:
            return Violation("vertex-coverage", v)
    bag_sets = [set(b) for b in td.bags]
    for u, v in g.edges():
        if not any(v in bag_sets[i] for i in where[u]):
            return Violation("edge-coverage", (u, v))
    # the nodes holding v induce a forest of (its nodes) - (its edges) trees
    pieces = [len(nodes) for nodes in where]
    for i, j in td.tree_edges:
        for v in bag_sets[i] & bag_sets[j]:
            pieces[v] -= 1
    for v in range(g.n):
        if pieces[v] != 1:
            return Violation("occupancy-connectivity", v)
    return max(len(b) for b in td.bags) - 1


def verify_tp(g: Graph, tp: TreePartition):
    """Width of a valid tree-partition, or the first Violation."""
    _check_bag_indices(g, tp.bags)
    _check_tree_shape(tp)
    if g.n == 0 and tp.num_nodes == 0:
        return 0

    for i, bag in enumerate(tp.bags):
        if not bag:
            return Violation("empty-bag", i)
    node_of, twice = part_index(tp.bags, g.n)
    if twice is not None:
        return Violation("vertex-in-two-bags", twice)
    if -1 in node_of:
        return Violation("vertex-coverage", node_of.index(-1))
    tree_edge_set = {(min(i, j), max(i, j)) for i, j in tp.tree_edges}
    for u, v in g.edges():
        iu, iv = node_of[u], node_of[v]
        if iu != iv and (min(iu, iv), max(iu, iv)) not in tree_edge_set:
            return Violation("edge-locality", (u, v))
    return max(len(b) for b in tp.bags)


def verify_domino(g: Graph, td: TreeDecomposition):
    """verify_td plus the at-most-two-bags-per-vertex condition."""
    base = verify_td(g, td)
    if isinstance(base, Violation):
        return base
    counts = [0] * g.n
    for bag in td.bags:
        for v in bag:
            counts[v] += 1
    for v in range(g.n):
        if counts[v] > 2:
            return Violation("vertex-in-three-bags", v)
    return base


def tree_climbs(parent, depth, a, b):
    """(up_a, top, up_b): the nodes climbed from nodes a and b of a tree,
    rooted by parent and depth, to their lowest common ancestor top, which
    neither list holds.  Each is the child end of one tree edge on the path
    from a to b, which runs up_a, top, then up_b reversed."""
    up_a, up_b = [], []
    while depth[a] > depth[b]:
        up_a.append(a)
        a = parent[a]
    while depth[b] > depth[a]:
        up_b.append(b)
        b = parent[b]
    while a != b:
        up_a.append(a)
        up_b.append(b)
        a = parent[a]
        b = parent[b]
    return up_a, a, up_b


def read_tcd(g: Graph, tcd: TreeCutDecomposition):
    """(width, (cut, parent, depth, order, thin), node_of) of a valid
    tree-cut decomposition, or a Violation; `verify_tcd` and the
    subdivision bridge both read it.

    The tree is rooted by `tree_bfs` from tcd.root, and node_of is
    `part_index` of the bags.  Each host edge adds one to the cut of every
    node it climbs (`tree_climbs`), cut 0 at the root, so the cost is
    O(n + m + nodes * width).  A node is thin when the cut of its parent
    edge is at most 2, and thin is the first thin node, in walk order,
    whose subtree has an edge into a sibling subtree (both sides of the
    edge climb), or None when the decomposition is nice.
    """
    _check_bag_indices(g, tcd.bags)
    if not (0 <= tcd.root < max(tcd.num_nodes, 1)):
        raise MalformedDecomposition(f"bad root {tcd.root}")
    parent, order, depth = _check_tree_shape(tcd, tcd.root)
    node_of, twice = part_index(tcd.bags, g.n)
    if twice is not None:
        return Violation("vertex-in-two-bags", twice)
    if -1 in node_of:
        return Violation("near-partition-coverage", node_of.index(-1))

    cut = [0] * tcd.num_nodes
    joins = [False] * tcd.num_nodes  # an edge joins its subtree to a sibling's
    for u, v in g.edges():
        up_u, _, up_v = tree_climbs(parent, depth, node_of[u], node_of[v])
        for t in up_u + up_v:
            cut[t] += 1
        if up_u and up_v:
            joins[up_u[-1]] = joins[up_v[-1]] = True
    bold = [0] * tcd.num_nodes  # bold edges at each node: cut at least 3
    for t in order[1:]:
        if cut[t] >= 3:
            bold[t] += 1
            bold[parent[t]] += 1
    width = max((max(len(bag) + b, c) for bag, b, c in zip(tcd.bags, bold, cut)), default=0)
    thin = next((t for t in order[1:] if joins[t] and cut[t] <= 2), None)
    return width, (cut, parent, depth, order, thin), node_of


def verify_tcd(g: Graph, tcd: TreeCutDecomposition):
    """(width, nice) of a valid tree-cut decomposition, or a Violation."""
    res = read_tcd(g, tcd)
    if isinstance(res, Violation):
        return res
    width, (*_, thin), _ = res
    return width, thin is None
