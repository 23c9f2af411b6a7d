"""Tree-partition construction from a tree decomposition under a degree
bound: separator bags at weighted centroids of the decomposition tree,
one loop over a stack of boundary jobs with an optional rooted or
isolated-vertex contract (no recursion, so long thin blocks need no deep
call stack), combination of per-block partitions across cutvertices, and
expansion of quotient vertices.

The job loop is correctness-first: every output passes the tree-partition
verifier unconditionally; realized widths are tracked empirically against
the reference bound rather than enforced.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
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


def _centroid(top, parent, depth, wset) -> int:
    """Node whose bag is a balanced separator of the nonempty set wset:
    the weighted centroid of the rooted tree, each vertex of wset counted
    once at its top node.  (top, parent, depth) is `occupancy_tables(td)`.

    Climbing from the deepest counted node upward, each node adds its
    count to its parent's, until all climbs meet at one node, which then
    counts all of wset; a heap keyed on depth pops a node only after all
    its counted descendants.  Each node that counts more than half of
    wset is the heavy child of its parent, and the walk descends from the
    meeting node through heavy children to a node with none.  The cost is
    the size of the subtree spanned by the counted nodes, times log of it.

    The restricted bag of the node t reached is a balanced separator of
    wset in g[U] for every vertex set U:
    - a vertex outside bag(t) has all its nodes on one side of t (in one
      child subtree, or in the part of the tree above t), and two
      adjacent vertices share a node, so each component of g[U] - bag(t)
      lies within one side;
    - a side's count is at least the vertices of wset that side holds
      outside bag(t), since their top nodes are on it;
    - at t every side counts at most half of wset: each child subtree by
      the stop, and the part above t because t's own subtree counts more
      than half (t is the meeting node, or a heavy child).
    """
    count = Counter(top[x] for x in wset)
    heap = [(-depth[t], t) for t in count]
    heapq.heapify(heap)
    heavy = {}
    while True:
        t = heapq.heappop(heap)[1]
        if not heap:
            break
        p = parent[t]
        if p not in count:
            count[p] = 0
            heapq.heappush(heap, (-depth[p], p))
        count[p] += count[t]
        if 2 * count[t] > len(wset):
            heavy[p] = t
    while t in heavy:
        t = heavy[t]
    return t


def balanced_separator_bag(g: Graph, td: TreeDecomposition, wset) -> int:
    """Node of the rooted decomposition td whose bag is a balanced
    separator of wset in g: no component of g minus the bag holds more
    than half of wset.  It is the weighted centroid of wset's top nodes
    (`_centroid`), or the root for an empty wset.
    """
    wset = set(wset)
    if any(not (0 <= v < g.n) for v in wset):
        raise ValueError("wset outside the vertex range")
    if not wset:
        return td.root if td.root is not None else 0
    return _centroid(*occupancy_tables(td), wset)


def _group_components(comps, boundaries, cap: float):
    """First-fit-decreasing grouping of components by boundary size.

    Groups keep their combined boundary size at most cap when possible;
    a single component with an oversized boundary forms its own group.
    """
    order = sorted(range(len(comps)), key=lambda i: (-len(boundaries[i]), min(comps[i])))
    groups = []  # (component index list, total boundary)
    for i in order:
        size = len(boundaries[i])
        for grp in groups:
            if grp[1] + size <= cap:
                grp[0].append(i)
                grp[1] += size
                break
        else:
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


def _partition(g: Graph, td: TreeDecomposition, bags, jobs):
    """Run the jobs (universe, s_set, parent) of a partition of g whose
    first bags are `bags`; returns (bags, tree edges, node of each job
    whose parent is None).

    A job's bag is its whole universe when that is small, else s_set plus
    the restricted bag of s_set's weighted centroid (`_centroid`, which
    reads the one `occupancy_tables(td)` built here), or of the root when
    s_set is empty.  td is read as it is: any rooted decomposition of g,
    whose width sets the leaf test and the grouping cap.  The components of
    the rest, grouped by boundary size, become child jobs whose s_sets are
    their neighbourhoods of the bag; when the whole boundary fits one
    group, the rest is the one child job and is never split.  A node's bag
    is appended when its job is popped, and the edge (parent, node) is
    pushed below its child jobs, so it lands right after its subtree.
    """
    if td.root is None:
        td = TreeDecomposition(td.bags, td.tree_edges, root=0)
    tables = occupancy_tables(td)
    width = td.width()
    cap = CONSTANTS.window_low(width)
    edges = []
    tops = []
    stack = jobs[::-1]
    while stack:
        job = stack.pop()
        if len(job) == 2:  # an edge (parent, node) whose subtree is done
            edges.append(job)
            continue
        universe, s_set, parent = job
        node = len(bags)
        if parent is None:
            tops.append(node)
        else:
            stack.append((parent, node))
        if len(universe) <= len(s_set) + width + 1:
            bags.append(sorted(universe))
            continue
        sep_node = _centroid(*tables, s_set) if s_set else td.root
        bag = s_set | (set(td.bags[sep_node]) & universe)
        if not bag:
            bag = {min(universe)}
        bags.append(sorted(bag))
        rest = universe - bag
        touched = set().union(*(g.adj[v] for v in bag))
        boundary = rest & touched
        if len(boundary) <= cap:
            # component boundaries are disjoint, so first-fit decreasing
            # would put every component into one group
            stack.append((rest, boundary, node))
            continue
        comps = [set(c) for c in connected_components(g, rest)]
        groups = _group_components(comps, [comp & touched for comp in comps], cap)
        stack.extend((u, s, node) for u, s in reversed(groups))
    return bags, edges, tops


def partition_rooted(g: Graph, td: TreeDecomposition, s_set) -> TreePartition:
    """Tree-partition of g whose root bag contains s_set.

    Each component of g is one job with its share of s_set: its root bag
    is that share plus a balanced-separator bag for it, and the components
    of the remainder, grouped by boundary size, become child jobs with
    their neighbourhoods of the bag as their s_sets.  The first
    component's root is the root; the others hang below it.
    """
    s_set = set(s_set)
    if any(not (0 <= v < g.n) for v in s_set):
        raise ValueError("s_set outside the vertex range")
    if g.n == 0:
        return TreePartition([], [], root=None)
    jobs = [(comp, s_set & comp, None) for comp in map(set, connected_components(g))]
    bags, edges, roots = _partition(g, td, [], jobs)
    edges += [(roots[0], extra) for extra in roots[1:]]
    return TreePartition(bags, edges, root=roots[0])


def partition_isolated(g: Graph, td: TreeDecomposition, v: int) -> TreePartition:
    """Tree-partition of g in which v is the only vertex of its bag.

    Root bag {v}; each component of g-v hangs below it, built with the
    neighborhood of v in the component as its root-bag contract.  Small
    graphs take the two-bag fallback {v}, V-{v}.
    """
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    width = td.width()
    if g.n == 1:
        return TreePartition([[v]], [], root=0)
    if g.n <= CONSTANTS.window_low(width) + 1:
        rest = sorted(u for u in range(g.n) if u != v)
        return TreePartition([[v], rest], [(0, 1)], root=0)
    nv = set(g.adj[v])
    comps = connected_components(g, set(range(g.n)) - {v})
    bags, edges, _ = _partition(g, td, [[v]], [(c, nv & c, 0) for c in map(set, comps)])
    return TreePartition(bags, edges, root=0)


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
    three or more vertices is 2-connected, is then the one component job
    of `partition_isolated`, with contract N(cut), and that job's leaf
    test |universe| <= |contract| + w + 1 emits it whole.
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
