"""Hardness-reduction gadget generators and their constructive witness
converters.

Two reductions are implemented: a chained multicolor independent-set
instance compiled to a graph whose tree-partitions of width L encode
solutions, and a degree-bounded graph compiled to a graph whose domino
tree decompositions of width M-1 encode width-k tree-partitions.  Both
witness converters are total: an invalid witness still produces a
structure, and invalidity surfaces as a localized bag overflow or a failed
verification instead of a construction-time error.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .bridge import hang_folded
from .decomp import TreePartition, TreeDecomposition, Violation, verify_tp
from .graph import Graph, connected_components, part_index, tree_bfs


class _Builder:
    """Next vertex id and edge list of a graph under construction."""

    def __init__(self, n=0, edges=None):
        self.n = n
        self.edges = [] if edges is None else edges

    def alloc(self, count):
        self.n += count
        return list(range(self.n - count, self.n))

    def clique(self, count):
        vs = self.alloc(count)
        self.edges += itertools.combinations(vs, 2)
        return vs

    def join(self, xs, ys):
        self.edges += itertools.product(xs, ys)

    def cluster(self, z, big_l):
        """A 2L-clique whose first L vertices are joined to z; returns its
        two halves."""
        cv = self.clique(2 * big_l)
        self.join(z, cv[:big_l])
        return cv[:big_l], cv[big_l:]


def gen_cluster_gadget(h: Graph, z, big_l: int):
    """Extend h with a 2L-clique whose first L vertices are joined to the
    clique z; the new vertices are h.n .. h.n + 2L - 1 in order.  Raises
    ValueError unless L >= 1 and z is a nonempty clique of h."""
    z = sorted(z)
    if not z:
        raise ValueError("z must be nonempty")
    if big_l < 1:
        raise ValueError(f"L must be >= 1, got {big_l}")
    if z[0] < 0 or z[-1] >= h.n:
        raise ValueError(f"z has a vertex outside 0..{h.n - 1}")
    for a, b in itertools.combinations(z, 2):
        if not h.has_edge(a, b):
            raise ValueError(f"z is not a clique: missing edge {a},{b}")
    out = _Builder(h.n, h.edges())
    out.cluster(z, big_l)
    return Graph(out.n, out.edges)


# ---------------------------------------------------------------------------
# chained multicolor independent set -> tree-partition width L
# ---------------------------------------------------------------------------


@dataclass
class TcmisInstance:
    """Chained multicolor independent-set instance on a binary tree.

    Classes are indexed (i, c) for tree node i and color c in 1..k, each of
    size exactly r; class members are (i, c, s) with s in 1..r.  Edges join
    members of distinct classes of the same node or of adjacent nodes.
    """

    tree_n: int
    tree_edges: list
    k: int
    r: int
    edges: list  # [((i, c, s), (i2, c2, s2)), ...]

    def validate(self):
        if self.tree_n < 1 or self.k < 1 or self.r < 1:
            raise ValueError("need tree_n, k, r >= 1")
        if len(self.tree_edges) != self.tree_n - 1:
            raise ValueError("tree must have n-1 edges")
        t = Graph(self.tree_n, self.tree_edges)
        if len(connected_components(t)) > 1:
            raise ValueError("tree is disconnected")
        if t.max_degree() > 3:
            raise ValueError("tree is not binary")
        eset = {(min(u, v), max(u, v)) for u, v in self.tree_edges}
        for (i, c, s), (i2, c2, s2) in self.edges:
            for (a, b, d) in ((i, c, s), (i2, c2, s2)):
                if not (0 <= a < self.tree_n and 1 <= b <= self.k and 1 <= d <= self.r):
                    raise ValueError(f"member ({a},{b},{d}) out of range")
            if (i, c) == (i2, c2):
                raise ValueError("edge inside a single class")
            if i != i2 and (min(i, i2), max(i, i2)) not in eset:
                raise ValueError(f"edge between non-adjacent tree nodes {i},{i2}")
        return self


@dataclass
class TcmisGadget:
    """Compiled instance: host graph plus the layout registry."""

    h: Graph
    inst: TcmisInstance
    big_l: int  # target width L
    big_n: int  # subdivision count N
    parent: list  # trunk-tree parent per trunk node (-1 at the root)
    orig_of: list  # trunk node of each instance tree node
    grand_of: list  # trunk node of each instance node's grandparent
    p_count: list  # path-cover count per trunk node
    markers: dict  # trunk node -> list of edge indices checked there
    trunk: list  # trunk node -> vertex list of its clique
    chains: dict  # (i, c) -> list of clique vertex lists (position 1 first)
    clusters: list  # (key, first-half vertices, second-half vertices)
    flags: list = field(default_factory=list)

    def chain_length(self) -> int:
        return 2 * self.big_n + self.inst.r + 5


def gen_tcmis_gadget(inst: TcmisInstance) -> TcmisGadget:
    """Compile an instance into its host graph.

    Raises ValueError when the size arithmetic degenerates (a trunk clique
    would need fewer than one vertex, which happens when some trunk node is
    covered by more than six instance paths).
    """
    inst.validate()
    k, r, m = inst.k, inst.r, len(inst.edges)
    big_n = (m + 1) * r
    big_l = 36 * k + 5

    # extended instance tree: nodes 0..tree_n-1, then iprime, then r0,
    # rooted at r0 with node 0 below iprime
    iprime, r0 = inst.tree_n, inst.tree_n + 1
    ext_adj = [[] for _ in range(inst.tree_n + 2)]
    for u, v in inst.tree_edges:
        ext_adj[u].append(v)
        ext_adj[v].append(u)
    ext_adj[0].append(iprime)
    ext_adj[iprime] += [0, r0]
    ext_adj[r0].append(iprime)
    # sorted adjacency fixes the walk order, and with it the trunk vertex ids
    ext_parent, ext_order, _ = tree_bfs([sorted(a) for a in ext_adj], r0)

    # trunk tree: the extended tree with every edge subdivided big_n times;
    # node 0 is r0, and each later node gets its big_n subdivision nodes
    # and then itself
    parent = [-1]
    trunk_of_ext = {r0: 0}
    for x in ext_order[1:]:
        up = trunk_of_ext[ext_parent[x]]
        for _ in range(big_n + 1):
            parent.append(up)
            up = len(parent) - 1
        trunk_of_ext[x] = up
    num_trunk = len(parent)
    orig_of = [trunk_of_ext[i] for i in range(inst.tree_n)]

    def ancestor(t, steps):
        for _ in range(steps):
            t = parent[t]
            if t == -1:
                raise ValueError("walked past the trunk root")
        return t

    grand_of = []
    for i in range(inst.tree_n):
        grand_of.append(ancestor(orig_of[i], 2 * (big_n + 1)))

    # p(t): number of instance nodes whose path to their grandparent covers t
    p_count = [0] * num_trunk
    for i in range(inst.tree_n):
        t = orig_of[i]
        for _ in range(2 * (big_n + 1) + 1):
            p_count[t] += 1
            t = parent[t]

    # edge checkpoints and chain wide spots
    def upper_first(e):
        (i, c, s), (i2, c2, s2) = e
        if i == i2 or ext_parent[i2] == i:
            return (i, c, s), (i2, c2, s2)
        if ext_parent[i] == i2:
            return (i2, c2, s2), (i, c, s)
        raise ValueError(f"edge endpoints {i},{i2} are not nested")

    chain_len = 2 * big_n + r + 5
    markers = {}
    wide = {}  # (i, c) -> set of positions with a size-7 clique
    flags = []
    for j, e in enumerate(inst.edges, start=1):
        (iu, cu, su), (il, cl, sl) = upper_first(e)
        g = 2 * j * r
        t = ancestor(orig_of[iu], g)
        markers.setdefault(t, []).append(j - 1)
        spots = [((iu, cu), g + 1 + su)]
        if il == iu:
            spots.append(((il, cl), g + 1 + sl))
        else:
            spots.append(((il, cl), g + big_n + 2 + sl))
        for key, pos in spots:
            if 2 <= pos <= chain_len - 1:
                wide.setdefault(key, set()).add(pos)
            else:
                flags.append(
                    f"edge {j}: wide spot {pos} outside chain of class {key}"
                )

    # vertex and edge assembly
    out = _Builder()
    clusters = []
    trunk = []
    for t in range(num_trunk):
        size = big_l - 6 * k * p_count[t] - (1 if t in markers else 2)
        if size < 1:
            raise ValueError(
                f"trunk clique at node {t} would need size {size}; "
                f"a node is covered by {p_count[t]} paths"
            )
        trunk.append(out.clique(size))
    for t in range(num_trunk):
        if parent[t] != -1:
            out.join(trunk[t], trunk[parent[t]])
        clusters.append((("A", t), *out.cluster(trunk[t], big_l)))

    chains = {}
    for i in range(inst.tree_n):
        for c in range(1, k + 1):
            key = (i, c)
            cliques = [None]  # 1-based positions
            for pos in range(1, chain_len + 1):
                if pos == 1 or pos == chain_len:
                    size = big_l - 7
                elif pos in wide.get(key, ()):
                    size = 7
                else:
                    size = 6
                cliques.append(out.clique(size))
            for pos in range(1, chain_len):
                out.join(cliques[pos], cliques[pos + 1])
            out.join(cliques[1], trunk[orig_of[i]])
            out.join(cliques[chain_len], trunk[grand_of[i]])
            for pos in range(1, chain_len + 1):
                clusters.append((("CC", i, c, pos), *out.cluster(cliques[pos], big_l)))
            chains[key] = cliques

    h = Graph(out.n, out.edges)
    assert h.max_degree() < 5 * k * big_l + 5 * big_l, "degree audit failed"
    return TcmisGadget(
        h=h,
        inst=inst,
        big_l=big_l,
        big_n=big_n,
        parent=parent,
        orig_of=orig_of,
        grand_of=grand_of,
        p_count=p_count,
        markers=markers,
        trunk=trunk,
        chains=chains,
        clusters=clusters,
        flags=flags,
    )


@dataclass
class TcmisPartition:
    """Partition produced from a witness, with the overflow audit."""

    tp: TreePartition
    trunk_bag: list  # trunk node -> bag id
    overflow: list  # trunk nodes whose bag exceeds the target width


def tcmis_witness_to_partition(gadget: TcmisGadget, witness) -> TcmisPartition:
    """Tree-partition of the gadget graph encoding a witness.

    witness maps (i, c) to the selected member index in 1..r.  For a valid
    independent-set witness the result has width <= L; choosing both
    endpoints of some instance edge overflows exactly the checkpoint
    node's bag, which the overflow audit reports.
    """
    inst = gadget.inst
    big_n, r = gadget.big_n, inst.r
    chain_len = gadget.chain_length()

    bags = []
    edges = []

    def emit(vs) -> int:
        bags.append(list(vs))
        return len(bags) - 1

    trunk_bag = [emit(gadget.trunk[t]) for t in range(len(gadget.trunk))]
    for t, p in enumerate(gadget.parent):
        if p != -1:
            edges.append((trunk_bag[t], trunk_bag[p]))

    clique_bag = {("A", t): trunk_bag[t] for t in range(len(gadget.trunk))}

    for i in range(inst.tree_n):
        for c in range(1, inst.k + 1):
            h = witness[(i, c)]
            if not (1 <= h <= r):
                raise ValueError(f"witness index {h} for class {(i, c)} not in 1..{r}")
            cliques = gadget.chains[(i, c)]
            t = gadget.orig_of[i]
            for pos in range(h + 1, h + 2 * big_n + 4):
                bags[trunk_bag[t]].extend(cliques[pos])
                clique_bag[("CC", i, c, pos)] = trunk_bag[t]
                t = gadget.parent[t]
            # positions 1..h fold below the origin, the rest of the chain
            # below the grandparent
            for lo, hi, top in (
                (1, h, gadget.orig_of[i]),
                (h + 2 * big_n + 4, chain_len, gadget.grand_of[i]),
            ):
                nodes = hang_folded(bags, edges, trunk_bag[top], cliques[lo : hi + 1])
                for pos, node in enumerate(nodes, start=lo):
                    clique_bag[("CC", i, c, pos)] = node

    for key, first, second in gadget.clusters:
        bf = emit(first)
        edges.append((bf, clique_bag[key]))
        bs = emit(second)
        edges.append((bf, bs))

    tp = TreePartition([sorted(b) for b in bags], edges, root=trunk_bag[0])
    overflow = [
        t
        for t in range(len(gadget.trunk))
        if len(bags[trunk_bag[t]]) > gadget.big_l
    ]
    return TcmisPartition(tp=tp, trunk_bag=trunk_bag, overflow=overflow)


# ---------------------------------------------------------------------------
# tree-partition width k -> domino treewidth M-1
# ---------------------------------------------------------------------------


@dataclass
class DominoRegistry:
    """Layout of the domino reduction: per-vertex cliques, pendant stars,
    and per-edge connector vertices."""

    k: int
    d: int
    big_l: int  # L = k*d + 1
    big_m: int  # M = (k+1)*L - 1
    c_v: list  # host vertex -> clique vertex list
    s_w: dict  # clique vertex -> pendant star vertex list (minus the center)
    y_w: dict  # clique vertex -> star center
    z_e: dict  # host edge (u, v) -> connector vertex


def gen_domino_reduction(g: Graph, k: int):
    """Compile (g, k) into the domino-treewidth host graph.

    Returns (h, registry).  Requires k >= 1 and at least one edge in g (the
    construction degenerates on edgeless graphs)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if g.m == 0:
        raise ValueError("input graph needs at least one edge")
    d = g.max_degree()
    big_l = k * d + 1
    big_m = (k + 1) * big_l - 1

    out = _Builder()
    c_v = []
    s_w = {}
    y_w = {}
    for v in range(g.n):
        cv = out.clique(big_l)
        c_v.append(cv)
        for w in cv:
            yw, *s_w[w] = out.alloc(2 * big_m - 2)
            y_w[w] = yw
            out.join([yw], [w, *s_w[w]])
    z_e = {}
    for u, v in g.edges():
        (ze,) = out.alloc(1)
        z_e[(u, v)] = ze
        out.join([ze], c_v[u] + c_v[v])
    h = Graph(out.n, out.edges)
    return h, DominoRegistry(k, d, big_l, big_m, c_v, s_w, y_w, z_e)


def tp_witness_to_domino(
    g: Graph, k: int, tp: TreePartition, reg: DominoRegistry
) -> TreeDecomposition:
    """Domino tree decomposition of the reduction host from a width-k
    tree-partition of g; the result has width at most M-1."""
    w = verify_tp(g, tp)
    if isinstance(w, Violation) or w > k:
        raise ValueError(f"witness partition invalid or wider than {k}: {w}")

    bags = []
    edges = list()

    def emit(vs) -> int:
        bags.append(sorted(vs))
        return len(bags) - 1

    node_of = part_index(tp.bags, g.n)[0]
    main = []
    for bag in tp.bags:
        vs = []
        for v in bag:
            vs.extend(reg.c_v[v])
        main.append(emit(vs))
    for i, j in tp.tree_edges:
        edges.append((main[i], main[j]))
    for (u, v), ze in reg.z_e.items():
        bags[main[node_of[u]]].append(ze)
        if node_of[v] != node_of[u]:
            bags[main[node_of[v]]].append(ze)
    for v in range(g.n):
        for w in reg.c_v[v]:
            rest = reg.s_w[w]
            first = emit([w, reg.y_w[w]] + rest[: reg.big_m - 2])
            second = emit([reg.y_w[w]] + rest[reg.big_m - 2 :])
            edges.append((main[node_of[v]], first))
            edges.append((first, second))
    return TreeDecomposition([sorted(b) for b in bags], edges, root=0)
