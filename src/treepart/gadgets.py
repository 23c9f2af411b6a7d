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

from dataclasses import dataclass, field

from .decomp import TreePartition, TreeDecomposition
from .graph import Graph, connected_components, tree_bfs


def gen_cluster_gadget(h: Graph, z, big_l: int):
    """Extend h with a 2L-clique whose first L vertices are joined to the
    clique z; the new vertices are h.n .. h.n + 2L - 1 in order."""
    z = sorted(z)
    if not z:
        raise ValueError("z must be nonempty")
    for a in range(len(z)):
        for b in range(a + 1, len(z)):
            if not h.has_edge(z[a], z[b]):
                raise ValueError(f"z is not a clique: missing edge {z[a]},{z[b]}")
    new = list(range(h.n, h.n + 2 * big_l))
    edges = h.edges()
    for a in range(len(new)):
        for b in range(a + 1, len(new)):
            edges.append((new[a], new[b]))
    for u in z:
        for c in new[:big_l]:
            edges.append((u, c))
    return Graph(h.n + 2 * big_l, edges)


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
    original: list  # per trunk node: instance node id or None
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
    ext_parent, ext_order = tree_bfs([sorted(a) for a in ext_adj], r0)

    # trunk tree: the extended tree with every edge subdivided big_n times
    parent = []
    original = []

    def new_trunk(orig):
        parent.append(-1)
        original.append(orig)
        return len(parent) - 1

    trunk_of_ext = {r0: new_trunk(None if r0 >= inst.tree_n else r0)}
    original[0] = None  # r0 is not an instance node
    for x in ext_order[1:]:
        up = trunk_of_ext[ext_parent[x]]
        for _ in range(big_n):
            mid = new_trunk(None)
            parent[mid] = up
            up = mid
        node = new_trunk(x if x < inst.tree_n else None)
        parent[node] = up
        trunk_of_ext[x] = node
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
    edges = []
    nxt = 0

    def alloc(count):
        nonlocal nxt
        out = list(range(nxt, nxt + count))
        nxt += count
        return out

    def clique(vs):
        for a in range(len(vs)):
            for b in range(a + 1, len(vs)):
                edges.append((vs[a], vs[b]))

    def join(xs, ys):
        for x in xs:
            for y in ys:
                edges.append((x, y))

    clusters = []

    def add_cluster(key, z):
        cv = alloc(2 * big_l)
        clique(cv)
        join(z, cv[:big_l])
        clusters.append((key, cv[:big_l], cv[big_l:]))

    trunk = []
    for t in range(num_trunk):
        size = big_l - 6 * k * p_count[t] - (1 if t in markers else 2)
        if size < 1:
            raise ValueError(
                f"trunk clique at node {t} would need size {size}; "
                f"a node is covered by {p_count[t]} paths"
            )
        vs = alloc(size)
        clique(vs)
        trunk.append(vs)
    for t in range(num_trunk):
        if parent[t] != -1:
            join(trunk[t], trunk[parent[t]])
        add_cluster(("A", t), trunk[t])

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
                vs = alloc(size)
                clique(vs)
                cliques.append(vs)
            for pos in range(1, chain_len):
                join(cliques[pos], cliques[pos + 1])
            join(cliques[1], trunk[orig_of[i]])
            join(cliques[chain_len], trunk[grand_of[i]])
            for pos in range(1, chain_len + 1):
                add_cluster(("CC", i, c, pos), cliques[pos])
            chains[key] = cliques

    h = Graph(nxt, edges)
    assert h.max_degree() < 5 * k * big_l + 5 * big_l, "degree audit failed"
    return TcmisGadget(
        h=h,
        inst=inst,
        big_l=big_l,
        big_n=big_n,
        parent=parent,
        orig_of=orig_of,
        grand_of=grand_of,
        original=original,
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

    def fold(anchor, key_i, key_c, lo, hi, cliques):
        """Hang bags {lo, hi}, {lo+1, hi-1}, ... off the anchor bag."""
        prev = anchor
        a, b = lo, hi
        while a <= b:
            vs = list(cliques[a])
            clique_bag[("CC", key_i, key_c, a)] = None
            if a < b:
                vs += cliques[b]
            bag = emit(vs)
            clique_bag[("CC", key_i, key_c, a)] = bag
            if a < b:
                clique_bag[("CC", key_i, key_c, b)] = bag
            edges.append((prev, bag))
            prev = bag
            a += 1
            b -= 1

    for i in range(inst.tree_n):
        for c in range(1, inst.k + 1):
            h = witness[(i, c)]
            if not (1 <= h <= r):
                raise ValueError(f"witness index {h} for class {(i, c)} not in 1..{r}")
            cliques = gadget.chains[(i, c)]
            start = list(cliques[1])
            if h > 1:
                start += cliques[h]
            b0 = emit(start)
            clique_bag[("CC", i, c, 1)] = b0
            clique_bag[("CC", i, c, h)] = b0
            edges.append((b0, trunk_bag[gadget.orig_of[i]]))
            fold(b0, i, c, 2, h - 1, cliques)
            t = gadget.orig_of[i]
            for delta in range(0, 2 * big_n + 3):
                pos = h + 1 + delta
                bags[trunk_bag[t]].extend(cliques[pos])
                clique_bag[("CC", i, c, pos)] = trunk_bag[t]
                t = gadget.parent[t]
            end = list(cliques[chain_len]) + list(cliques[h + 2 * big_n + 4])
            bend = emit(end)
            clique_bag[("CC", i, c, chain_len)] = bend
            clique_bag[("CC", i, c, h + 2 * big_n + 4)] = bend
            edges.append((bend, trunk_bag[gadget.grand_of[i]]))
            fold(bend, i, c, h + 2 * big_n + 5, chain_len - 1, cliques)

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

    edges = []
    nxt = 0

    def alloc(count):
        nonlocal nxt
        out = list(range(nxt, nxt + count))
        nxt += count
        return out

    c_v = []
    s_w = {}
    y_w = {}
    for v in range(g.n):
        cv = alloc(big_l)
        for a in range(big_l):
            for b in range(a + 1, big_l):
                edges.append((cv[a], cv[b]))
        c_v.append(cv)
        for w in cv:
            sw = alloc(2 * big_m - 2)
            yw = sw[0]
            y_w[w] = yw
            s_w[w] = sw[1:]
            edges.append((w, yw))
            for x in sw[1:]:
                edges.append((yw, x))
    z_e = {}
    for u, v in g.edges():
        (ze,) = alloc(1)
        z_e[(u, v)] = ze
        for w in c_v[u] + c_v[v]:
            edges.append((ze, w))
    h = Graph(nxt, edges)
    return h, DominoRegistry(k, d, big_l, big_m, c_v, s_w, y_w, z_e)


def tp_witness_to_domino(
    g: Graph, k: int, tp: TreePartition, reg: DominoRegistry
) -> TreeDecomposition:
    """Domino tree decomposition of the reduction host from a width-k
    tree-partition of g; the result has width at most M-1."""
    from .decomp import verify_tp, Violation

    w = verify_tp(g, tp)
    if isinstance(w, Violation) or w > k:
        raise ValueError(f"witness partition invalid or wider than {k}: {w}")

    bags = []
    edges = list()

    def emit(vs) -> int:
        bags.append(sorted(vs))
        return len(bags) - 1

    node_of = tp.bag_of()
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
