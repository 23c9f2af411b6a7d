"""Tree-partition construction from a tree decomposition under a degree
bound: balanced-separator walk, boundary recursion with an optional rooted
or isolated-vertex contract, combination of per-block partitions across
cutvertices, and expansion of quotient vertices.

The recursion is correctness-first: every output passes the tree-partition
verifier unconditionally; realized widths are tracked empirically against
the reference bound rather than enforced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .decomp import TreeDecomposition, TreePartition
from .graph import BlockForest, Graph, connected_components
from .treewidth import occupancy_tables


@dataclass(frozen=True)
class PartitionConstants:
    """Window constants of the separator-based construction.

    alpha and gamma are exact to double precision (~16 digits); windows are
    real-valued products of them, compared with exact integer sizes via
    plain float comparison (sizes well below 2**50 are exact in doubles).
    """

    alpha: float = 1.0 + 1.0 / math.sqrt(2.0)
    gamma: float = 1.0 + math.sqrt(2.0)

    def window_low(self, w: int) -> float:
        return (self.gamma + 1.0) * (w + 1)

    def window_high(self, w: int, delta: int) -> float:
        return 3.0 * (self.gamma + 1.0) * (w + 1) * delta

    def bound(self, w: int, delta: int) -> float:
        """Reference width bound gamma*(w+1)*(3*gamma*delta - 1)."""
        return self.gamma * (w + 1) * (3.0 * self.gamma * delta - 1.0)


CONSTANTS = PartitionConstants()


def _heavy_vertex(g: Graph, universe, bag, wset):
    """A vertex of the component of g[universe - bag] holding more than
    half of wset, or None when bag is a balanced separator of wset in
    g[universe].

    Searches start only at wset vertices, and stop as soon as one
    component is heavy, or as soon as the wset vertices not yet reached
    are too few to make any further component heavy."""
    half = len(wset) / 2.0
    outside = [v for v in wset if v in universe and v not in bag]
    left = len(outside)  # wset vertices outside bag not yet reached
    seen = set()
    for s in outside:
        if left <= half:
            return None
        if s in seen:
            continue
        seen.add(s)
        stack = [s]
        hits = 1
        while stack and hits <= half:
            u = stack.pop()
            for v in g.adj[u]:
                if v not in seen and v in universe and v not in bag:
                    seen.add(v)
                    stack.append(v)
                    hits += v in wset
        if hits > half:
            return s
        left -= hits
    return None


def _walk_tables(g: Graph, td: TreeDecomposition):
    """`occupancy_tables(g, td)` plus the node adjacency, the tables every
    separator walk of one partition reads."""
    return occupancy_tables(g, td) + (td.node_adj(),)


def _separator_walk(g: Graph, td: TreeDecomposition, tables, universe, wset):
    """Node whose restricted bag is a balanced separator of wset in
    g[universe], found by descending into the heavy component's subtree.

    tables is `_walk_tables(g, td)`, built once per partition.

    The heavy component H of a node t is connected and avoids t's bag, so
    the nodes whose bags meet H form a connected subtree of T - t.  It is
    below t: at the root every part of T - t is below it, and at a child t
    the heavy component of its parent lies in t's subtree and shares a
    wset vertex with H (each holds more than half of wset), which pins H
    to a child subtree of t.  So top[x] of any x in H names the child to
    step into, and that child's subtree holds more than half of wset, which
    makes it the unique child with the most wset vertices.  Only an invalid
    decomposition can leave no child holding H.  The component search
    (`_heavy_vertex`) therefore returns just one vertex of H, and never
    lists the other components.
    """
    top, tin, tout, adj = tables
    node = td.root
    parent = -1
    for _ in range(td.num_nodes):
        x = _heavy_vertex(g, universe, set(td.bags[node]) & universe, wset)
        if x is None:
            return node
        t = tin[top[x]]
        child = next(
            (c for c in adj[node] if c != parent and tin[c] <= t <= tout[c]), None
        )
        if child is None:
            break
        parent, node = node, child
    raise AssertionError("no balanced separator bag found")


def balanced_separator_bag(g: Graph, td: TreeDecomposition, wset) -> int:
    """Node of td whose bag is a balanced separator of wset in g.

    td must be rooted; the walk starts at the root and visits at most
    depth+1 nodes, moving into the child subtree that holds the component
    with more than half of wset whenever the current bag is not balanced.
    """
    if not wset:
        return td.root if td.root is not None else 0
    tables = _walk_tables(g, td)
    return _separator_walk(g, td, tables, set(range(g.n)), set(wset))


def _group_components(comps, boundaries, cap: float):
    """First-fit-decreasing grouping of components by boundary size.

    Groups keep their combined boundary size at most cap when possible;
    a single component with an oversized boundary forms its own group.
    """
    order = sorted(range(len(comps)), key=lambda i: (-len(boundaries[i]), min(comps[i])))
    groups = []  # (component index list, total boundary)
    for i in order:
        size = len(boundaries[i])
        placed = False
        for grp in groups:
            if grp[1] + size <= cap:
                grp[0].append(i)
                grp[1] += size
                placed = True
                break
        if not placed:
            groups.append([[i], size])
    out = []
    for idx, _ in groups:
        universe = set()
        boundary = set()
        for i in idx:
            universe |= comps[i]
            boundary |= boundaries[i]
        out.append((universe, boundary))
    out.sort(key=lambda t: min(t[0]))
    return out


class _Builder:
    def __init__(self):
        self.bags = []
        self.edges = []

    def emit(self, bag) -> int:
        self.bags.append(sorted(bag))
        return len(self.bags) - 1


def _partition_into(g, td, tables, width, builder, universe, s_set) -> int:
    """Recursive boundary construction; returns the root node id of the
    subtree built for g[universe], whose root bag contains s_set."""
    if len(universe) <= len(s_set) + width + 1:
        return builder.emit(universe)
    sep_node = _separator_walk(g, td, tables, universe, s_set)
    bag = s_set | (set(td.bags[sep_node]) & universe)
    if not bag:
        bag = {min(universe)}
    root = builder.emit(bag)
    comps = [set(c) for c in connected_components(g, universe - bag)]
    touched = set().union(*(g.adj[v] for v in bag))
    boundaries = [comp & touched for comp in comps]
    for sub_universe, sub_s in _group_components(
        comps, boundaries, CONSTANTS.window_low(width)
    ):
        child = _partition_into(g, td, tables, width, builder, sub_universe, sub_s)
        builder.edges.append((root, child))
    return root


def _rooted_td(td: TreeDecomposition) -> TreeDecomposition:
    if td.root is not None:
        return td
    return TreeDecomposition(td.bags, td.tree_edges, root=0)


def partition_rooted(g: Graph, td: TreeDecomposition, s_set) -> TreePartition:
    """Tree-partition of g whose root bag contains s_set.

    The root bag is s_set plus a balanced-separator bag for it; components
    of the remainder are grouped by boundary size and recursed with their
    neighborhoods of the root bag as the next contract sets.
    """
    s_set = set(s_set)
    if any(not (0 <= v < g.n) for v in s_set):
        raise ValueError("s_set outside the vertex range")
    if g.n == 0:
        return TreePartition([], [], root=None)
    td = _rooted_td(td)
    tables = _walk_tables(g, td)
    width = td.width()
    builder = _Builder()
    roots = []
    for comp in connected_components(g):
        comp = set(comp)
        roots.append(
            _partition_into(g, td, tables, width, builder, comp, s_set & comp)
        )
    for extra in roots[1:]:
        builder.edges.append((roots[0], extra))
    return TreePartition(builder.bags, builder.edges, root=roots[0])


def partition_isolated(g: Graph, td: TreeDecomposition, v: int) -> TreePartition:
    """Tree-partition of g in which v is the only vertex of its bag.

    Root bag {v}; each component of g-v hangs below it, built with the
    neighborhood of v in the component as its root-bag contract.  Small
    graphs take the two-bag fallback {v}, V-{v}.
    """
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    td = _rooted_td(td)
    width = td.width()
    if g.n == 1:
        return TreePartition([[v]], [], root=0)
    if g.n <= CONSTANTS.window_low(width) + 1:
        rest = sorted(u for u in range(g.n) if u != v)
        return TreePartition([[v], rest], [(0, 1)], root=0)
    tables = _walk_tables(g, td)
    builder = _Builder()
    root = builder.emit({v})
    nv = set(g.adj[v])
    for comp in connected_components(g, set(range(g.n)) - {v}):
        comp = set(comp)
        child = _partition_into(g, td, tables, width, builder, comp, nv & comp)
        builder.edges.append((root, child))
    return TreePartition(builder.bags, builder.edges, root=root)


def partition_by_size(block, min_degree: int, cut=None, cut_degree=0) -> TreePartition | None:
    """The partition of a connected graph on the sorted vertex list block
    (at least two vertices, minimum degree min_degree, and at least
    cut_degree neighbours of cut) that `partition_isolated` at cut, or with
    no cut `partition_rooted` with a one-vertex s_set, returns from every
    tree decomposition of it, in the graph's own vertex ids; None when its
    size does not fix it.

    Proof: any decomposition's width w is at least the treewidth, which is
    at least min_degree (with no bag inside a neighbouring bag, a leaf bag
    holds a vertex found in no other bag, so also all its neighbours), and
    every rule below holds for every w >= min_degree once it holds at
    min_degree: the two bags {cut}, rest when n <= window_low(w) + 1, and
    the single bag when n <= 1 + w + 1.  Below cut the two bags also come
    when n - 1 <= cut_degree + w + 1: block - cut, connected as a block of
    three or more vertices is 2-connected, is then the one component
    `partition_isolated` recurses on, with contract N(cut), and that call's
    leaf test |universe| <= |contract| + w + 1 emits it whole.
    """
    n = len(block)
    if cut is not None and (
        n <= CONSTANTS.window_low(min_degree) + 1 or n - 1 <= cut_degree + min_degree + 1
    ):
        return TreePartition([[cut], [v for v in block if v != cut]], [(0, 1)], root=0)
    if cut is None and n <= min_degree + 2:
        return TreePartition([list(block)], [], root=0)
    return None


def combine_blocks(h: Graph, bf: BlockForest, per_block) -> TreePartition:
    """Merge per-block partitions of h across its cutvertices.

    per_block maps block id -> TreePartition over that block's vertices
    (host vertex ids).  Every non-root block's partition must isolate its
    parent cutvertex; that singleton bag is removed and its tree neighbors
    re-attach to the bag already holding the cutvertex.
    """
    bags = []
    edges = []
    holder = {}  # host vertex -> combined node id

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
                        raise ValueError(
                            f"block {b} does not isolate cutvertex {cut}"
                        )
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

    # the edges form a forest, one tree when they number len(bags) - 1 (every
    # connected host); otherwise join its trees, which come ordered by
    # minimum node, so node 0's tree is first
    if len(edges) < len(bags) - 1:
        for comp in connected_components(Graph(len(bags), edges))[1:]:
            edges.append((0, comp[0]))
    return TreePartition(bags, edges, root=0 if bags else None)


def expand(tp_h: TreePartition, red) -> TreePartition:
    """Replace each quotient vertex in a partition of red.h by the member
    vertices of its part."""
    bags = []
    for bag in tp_h.bags:
        out = []
        for hv in bag:
            out.extend(red.parts[hv])
        bags.append(sorted(out))
    return TreePartition(bags, list(tp_h.tree_edges), root=tp_h.root)
