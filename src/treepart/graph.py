"""Simple undirected graphs with the structural operations the rest of the
library is built on: connected components, blocks (biconnected components),
a rooted breadth-first tree walk with depths, a union-find, the index from
each vertex to the part holding it, edge subdivision and quotients.

Vertices are dense 0-based integers.  All set-valued outputs are sorted so
that downstream golden tests are reproducible.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field


class Graph:
    """Immutable simple graph given by sorted adjacency lists."""

    __slots__ = ("n", "adj", "_edge_count")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError(f"negative vertex count {n}")
        adj = [[] for _ in range(n)]
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                continue
            seen.add((u, v))
            adj[u].append(v)
            adj[v].append(u)
        if seen:  # an edgeless graph's lists are sorted already
            for lst in adj:
                lst.sort()
        self.n = n
        self.adj = adj
        self._edge_count = len(seen)

    # -- basic accessors -------------------------------------------------

    @property
    def m(self) -> int:
        return self._edge_count

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    def edges(self):
        """Edges as sorted (u, v) pairs with u < v, in lexicographic order."""
        return [(u, v) for u, nu in enumerate(self.adj) for v in nu if u < v]

    def has_edge(self, u: int, v: int) -> bool:
        a = self.adj[u]
        if len(self.adj[v]) < len(a):
            a, v = self.adj[v], u
        i = bisect.bisect_left(a, v)
        return i < len(a) and a[i] == v

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    # -- derived graphs --------------------------------------------------

    def induced(self, vertices):
        """Induced subgraph on `vertices`.

        Returns (subgraph, old_ids) where old_ids[i] is the original id of
        subgraph vertex i.  Vertices are relabelled in sorted order, so on
        all of 0..n-1 the subgraph is this graph itself.
        """
        old_ids = sorted(vertices)
        if len(old_ids) == self.n:
            return self, old_ids
        keep = set(old_ids)
        edges = ((u, v) for u in old_ids for v in self.adj[u] if u < v and v in keep)
        return subgraph(self, old_ids, edges)[0], old_ids


def subgraph(g: Graph, vertices, edges):
    """(subgraph, new_id) of g on the sorted vertex list `vertices`, given
    the edges of g among them, with vertices[i] renamed new_id[vertices[i]]
    = i.  On all of g's vertices it is (g, range(g.n)): `edges` goes unread."""
    if len(vertices) == g.n:
        return g, range(g.n)
    new_id = {v: i for i, v in enumerate(vertices)}
    return Graph(len(vertices), [(new_id[u], new_id[v]) for u, v in edges]), new_id


@dataclass
class SubdivisionMap:
    """For each original edge, the ordered path of new vertex ids replacing it.

    The path for edge (u, v) with u < v runs from the u side to the v side.
    Edges with count zero map to the empty list.
    """

    paths: dict = field(default_factory=dict)


@dataclass
class BlockForest:
    """Blocks (2-connected components and bridges) with their cut tree.

    blocks: sorted vertex lists in the order the search closes them; bridge
    edges are blocks of size two.  parent_cut[b] is the cutvertex between
    block b and its parent block, None for root blocks.  home[x] is the
    block nearest the root among those holding x (None for an isolated
    vertex), so b's parent block is home[parent_cut[b]].  Per connected
    component the root block is the least by content among those holding
    the component's minimum vertex.

    Two blocks share at most one vertex, so every edge lies in exactly one
    block, the one its endpoints share (Hopcroft and Tarjan, "Efficient
    algorithms for graph manipulation", CACM 1973).
    """

    blocks: list
    cutvertices: list
    parent_cut: list
    home: list

    def roots(self):
        return [b for b, c in enumerate(self.parent_cut) if c is None]

    def children(self):
        kids = [[] for _ in self.blocks]
        for b, c in enumerate(self.parent_cut):
            if c is not None:
                kids[self.home[c]].append(b)
        return kids

    def block_of(self, u: int, v: int):
        """Id of the block holding both u != v, or None.

        The blocks holding a vertex x are home[x], the one nearest the root
        of the block forest, and the child blocks hung from it at x (those
        whose parent cutvertex is x).  So a block shared by u and v is the
        home of both, or the home of one hung from the other.
        """
        hu, hv = self.home[u], self.home[v]
        if hu == hv:
            return hu
        if hv is not None and self.parent_cut[hv] == u:
            return hv
        if hu is not None and self.parent_cut[hu] == v:
            return hu
        return None

    def block_edges(self, g: Graph):
        """Each block's edges of g, in `g.edges()` order, by one O(n + m)
        pass: an edge belongs to the block its endpoints share."""
        out = [[] for _ in self.blocks]
        home, cut = self.home, self.parent_cut
        for u, nu in enumerate(g.adj):
            hu = home[u]
            for v in nu:
                if u < v:  # `block_of`, where a shared block exists
                    hv = home[v]
                    out[hu if hu == hv or cut[hv] != u else hv].append((u, v))
        return out


def connected_components(g: Graph, vertices=None):
    """Connected components of g, or of the subgraph induced by `vertices`,
    as sorted vertex lists ordered by minimum vertex: one search from each
    least vertex, in a scan in vertex order.  An isolated vertex costs
    O(1), an edgeless g no search, and a hub one set intersection.  A
    vertex of `vertices` outside 0..n-1 raises ValueError."""
    if vertices is None and not g.m:
        return [[v] for v in range(g.n)]
    adj = g.adj
    left = set(range(g.n) if vertices is None else vertices)  # not yet reached
    seeds = range(g.n) if vertices is None else sorted(left)
    if seeds and not 0 <= seeds[0] <= seeds[-1] < g.n:
        raise ValueError(f"vertex {seeds[0] if seeds[0] < 0 else seeds[-1]} is out of range")
    comps = []
    for s in seeds:
        if s not in left:
            continue
        comp = [s]
        comps.append(comp)
        if not adj[s]:  # isolated: no search reaches s, so it stays in left
            continue
        left.discard(s)
        for u in comp:  # comp grows while the search runs
            if not left:  # every vertex is reached
                break
            nu = adj[u]
            if len(nu) > 16:  # a hub: one C-level pass instead of a loop
                comp += left.intersection(nu)
                left.difference_update(nu)
                continue
            for v in nu:
                if v in left:
                    left.discard(v)
                    comp.append(v)
        comp.sort()
        if not left:
            break
    return comps


def find(root, x):
    """Representative of x in the union-find table root (root[x] is x's
    parent, x itself at a representative), halving the path it climbs."""
    while root[x] != x:
        root[x] = root[root[x]]
        x = root[x]
    return x


def tree_bfs(adj, root: int):
    """Breadth-first walk from root over a node adjacency list.

    Returns (parent, order, depth): order lists the reached nodes, root
    first, visiting each node's neighbors in list order; parent[x] is the
    node that reached x, and -1 for the root and for unreached nodes;
    depth[x] is x's distance from root, and -1 for unreached nodes.  On a
    tree, passing sorted adjacency lists puts each node's children in
    ascending order.  An empty list has no nodes and gives ([], [], []);
    otherwise a root outside 0..len(adj)-1 raises ValueError.
    """
    if not adj:
        return [], [], []
    if not 0 <= root < len(adj):
        raise ValueError(f"root {root} is not a node in 0..{len(adj) - 1}")
    parent = [-1] * len(adj)
    depth = [-1] * len(adj)
    depth[root] = 0
    order = [root]
    for u in order:
        for v in adj[u]:
            if depth[v] < 0:
                depth[v] = depth[u] + 1
                parent[v] = u
                order.append(v)
    return parent, order, depth


def biconnected_components(g: Graph) -> BlockForest:
    """Blocks, cutvertices and the block forest by one iterative
    Hopcroft-Tarjan search.  Isolated vertices belong to no block; bridges
    are size-2 blocks, so every edge lies in exactly one block.

    When the search returns from u to p with low[u] >= disc[p], p closes the
    block of p and the vertices entered since u that no block holds yet; p
    is its top, and every other vertex x of it entered it by its own tree
    edge, so it is home[x].  The block-cut tree is a tree and the search
    enters every block but the root block through its top, so home[p] is
    p's block toward the root and the top is the parent cutvertex.  The
    blocks holding a component's first vertex r are those closed at r; the
    least by content is the root block and home[r].  A vertex lies in two
    or more blocks exactly when some block hangs from it, so the cutvertices
    are the distinct parent cuts.  The search keeps a stack of (vertex,
    iterator over its arcs left) frames.  The arc from u back to its parent
    p may lower low[u] to disc[p], which changes neither test: low[u] >=
    disc[p] holds as before, and low[p] <= disc[p] already.
    """
    n = g.n
    disc = [0] * n
    low = [0] * n
    timer = 1
    entered = []  # vertices entered by a tree edge, not yet in a block
    blocks = []
    parent_cut = []  # block -> its top, until the root block is picked
    home = [None] * n

    adj = g.adj
    for root in range(n):
        if disc[root]:
            continue
        disc[root] = low[root] = timer
        timer += 1
        u, arcs = root, iter(adj[root])
        stack = []  # (vertex, its arcs left) above u
        at_root = []  # blocks closed at root
        while True:
            for v in arcs:
                if not disc[v]:
                    disc[v] = low[v] = timer
                    timer += 1
                    entered.append(v)
                    stack.append((u, arcs))
                    u, arcs = v, iter(adj[v])
                    break
                if disc[v] < low[u]:
                    low[u] = disc[v]
            else:
                if not stack:
                    break
                c = u
                u, arcs = stack.pop()
                if low[c] < low[u]:
                    low[u] = low[c]
                if low[c] >= disc[u]:
                    # u closes u and the vertices entered since c
                    b = len(blocks)
                    block = [u]
                    while True:
                        x = entered.pop()
                        home[x] = b
                        block.append(x)
                        if x == c:
                            break
                    block.sort()
                    blocks.append(block)
                    parent_cut.append(u)
                    if u == root:
                        at_root.append(b)
        if at_root:
            rb = min(at_root, key=blocks.__getitem__)
            parent_cut[rb] = None
            home[root] = rb
    cutvertices = sorted({c for c in parent_cut if c is not None})
    return BlockForest(blocks, cutvertices, parent_cut, home)


def subdivide(g: Graph, counts: dict):
    """Subdivide each edge the given number of times.

    counts maps edges (u, v) in either orientation to a nonnegative count;
    missing edges get 0.  New vertices are numbered from g.n on, edge by edge
    in lexicographic edge order.
    """
    norm = {}
    for (u, v), c in counts.items():
        if u > v:
            u, v = v, u
        if not g.has_edge(u, v):
            raise ValueError(f"({u},{v}) is not an edge")
        if c < 0:
            raise ValueError("negative subdivision count")
        norm[(u, v)] = c
    edges = []
    paths = {}
    nxt = g.n
    for u, v in g.edges():
        c = norm.get((u, v), 0)
        path = paths[(u, v)] = list(range(nxt, nxt + c))
        nxt += c
        chain = [u, *path, v]
        edges += zip(chain, chain[1:])
    return Graph(nxt, edges), SubdivisionMap(paths)


def part_index(parts, n: int):
    """(part_of, twice) for vertex lists over 0..n-1: part_of[v] is the
    index of the part holding v, -1 for none, and twice the first vertex
    met in a second part, or None; the scan stops there.  A vertex outside
    0..n-1 met first raises ValueError."""
    part_of = [-1] * n
    for i, part in enumerate(parts):
        for v in part:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} is out of range")
            if part_of[v] != -1:
                return part_of, v
            part_of[v] = i
    return part_of, None


def quotient(g: Graph, parts):
    """Identify each part to a single vertex; drop loops and multiplicities.

    parts must partition 0..n-1 (`part_index`).  Returns (quotient graph,
    part_of) where part_of[v] is the part id of v.  Part ids follow the
    given order, so the singletons in vertex order give g itself.
    """
    part_of, twice = part_index(parts, g.n)
    if twice is not None:
        raise ValueError(f"vertex {twice} in two parts")
    if -1 in part_of:
        raise ValueError("parts do not cover all vertices")
    if len(parts) == g.n and all(p == v for v, p in enumerate(part_of)):
        return g, part_of
    edges = set()
    for u, v in g.edges():
        pu, pv = part_of[u], part_of[v]
        if pu != pv:
            edges.add((min(pu, pv), max(pu, pv)))
    return Graph(len(parts), sorted(edges)), part_of
