"""Tree decomposition frontend: elimination-order heuristics, certified
treewidth lower bounds, an exact small-instance search, and rebalancing of
a decomposition tree to logarithmic depth.

Decompositions are produced from elimination orders: the bag of a vertex is
itself plus its not-yet-eliminated neighbors at elimination time, and its
tree node attaches to the node of the bag member eliminated next.
"""

from __future__ import annotations

import heapq
import random

from .decomp import TreeDecomposition, occupancy_tables
from .exact import CapacityError, _bits
from .graph import Graph, tree_bfs


def _td_from_elimination(order, nbrs) -> TreeDecomposition:
    """Build a decomposition from an elimination order.

    nbrs[v] holds v's remaining neighbors in the fill graph when v was
    eliminated, so v's bag is v plus nbrs[v].  Node i of the tree holds the
    bag of order[i] and is joined to the node of its bag's member
    eliminated next, or to node i + 1 when it has none (the last vertex of
    a component); the root is the last elimination.  A node's parent is
    eliminated later, so v's node is the top of v's occupancy.  Linear in
    the bags; no vertices give the one empty bag.
    """
    if not order:
        return TreeDecomposition([[]], [], root=0)
    bags = [sorted([v, *nbrs[v]]) for v in order]
    edges = list(enumerate(_elimination_parents(order, nbrs)))
    return TreeDecomposition(bags, edges, root=len(order) - 1)


def rank_of(order) -> list:
    """pos[v] = i for v = order[i], an order of 0..len(order)-1."""
    pos = [0] * len(order)
    for i, v in enumerate(order):
        pos[v] = i
    return pos


def _elimination_parents(order, nbrs) -> list:
    """The parent of each node but the root in `_td_from_elimination`'s
    tree: the position in order of the first-eliminated member of
    nbrs[order[i]], or i + 1 when that set is empty."""
    pos = rank_of(order)
    return [min(map(pos.__getitem__, nbrs[v])) if nbrs[v] else i + 1 for i, v in enumerate(order[:-1])]


def restrict_elimination(pos, nbrs, vertices):
    """A perfect elimination order, as its rank pos (`rank_of`) and
    later-neighbour sets nbrs, restricted to the sorted vertex list
    `vertices` and renamed 0..len(vertices)-1 in that list's order.  A
    subset of a clique is a clique, so it is a perfect elimination order of
    the chordal graph's subgraph induced by `vertices`.  Cost O(|vertices|
    log |vertices| + the sum of their |nbrs[v]|), whatever len(pos) is."""
    new_id = {v: i for i, v in enumerate(vertices)}
    order = [new_id[v] for v in sorted(vertices, key=pos.__getitem__)]
    return order, [[new_id[u] for u in nbrs[v] if u in new_id] for v in vertices]


def clique_tree(order, nbrs) -> TreeDecomposition:
    """The maximal cliques of a chordal graph on a clique tree (Blair and
    Peyton, "An introduction to chordal graphs and clique trees", 1993),
    read off a perfect elimination order given as later-neighbour sets:
    nbrs[v] is the set of v's neighbours after v in order, a clique.
    `eliminate` gives one for its fill graph, `elimination_of` one for any
    decomposition's co-bagged pairs, and `restrict_elimination` one for a
    vertex subset of either.

    It is `_td_from_elimination(order, nbrs)` with every tree edge whose
    bags nest contracted: a node p goes into its lowest-id child c with
    |bag c| = |bag p| + 1, when it has one.  Proof:
    - Each child c of p has bag(c) - order[c] inside bag(p): order[c]'s
      later neighbours form a clique, and order[p] is the first of them
      (a child joined to p = c + 1 across components has bag {order[c]}).
    - No bag holds a vertex eliminated before its own, so order[c] is not
      in bag(p).  So no two bags are equal, no parent's bag contains a
      child's, and a child's bag contains its parent's exactly when it is
      one larger.
    - bag(p) lies inside no other bag exactly when it has no such child
      (ibid., the monotone adjacency sets), so the kept bags are the
      maximal cliques, each once, and contracting a nested tree edge keeps
      a decomposition.
    Children have lower ids than their parents, so an ascending pass
    resolves each node to the kept node its chain of contractions ends
    in.  Only the kept bags are sorted.  The kept nodes keep their order,
    the tree edges come out sorted, and the root is 0.  Linear in the
    bags, plus the sorting.
    """
    if not order:
        return TreeDecomposition([[]], [], root=0)
    size = [len(nbrs[v]) for v in order]
    parent = _elimination_parents(order, nbrs)
    into = [-1] * len(order)  # node -> the child it is contracted into
    for i, p in enumerate(parent):
        if into[p] < 0 and size[i] == size[p] + 1:
            into[p] = i
    rep = list(range(len(order)))  # node -> the kept node it ends in
    for i, c in enumerate(into):
        if c >= 0:  # c < i, so rep[c] is final
            rep[i] = rep[c]
    keep = [i for i in range(len(order)) if into[i] < 0]
    new_id = [0] * len(order)
    for t, i in enumerate(keep):
        new_id[i] = t
    edges = []
    for i, p in enumerate(parent):
        if into[p] != i:
            a, b = new_id[rep[i]], new_id[rep[p]]
            edges.append((a, b) if a < b else (b, a))
    edges.sort()
    bags = [sorted([order[i], *nbrs[order[i]]]) for i in keep]
    return TreeDecomposition(bags, edges, root=0)


def elimination_of(td: TreeDecomposition, n: int):
    """A perfect elimination order of the graph of td's co-bagged pairs on
    vertices 0..n-1, as `eliminate`'s (order, nbrs): vertices by
    decreasing depth of their top node (`occupancy_tables`), then by id,
    and nbrs[v] the members of v's top bag after v.  Two vertices share a
    bag exactly when one is in the other's top bag, and no vertex of a
    top bag has a deeper top, so nbrs[v] is v's later neighbours, inside
    one bag.  A largest bag not inside its parent's has a member whose top
    it is, and the first of them has the rest of the bag after it, so max
    |nbrs[v]| is td's width, whichever node is its root."""
    top, _, depth = occupancy_tables(td)
    order = sorted(range(n), key=lambda v: (-depth[top[v]], v))
    pos = rank_of(order)
    return order, [[u for u in td.bags[top[v]] if pos[u] > pos[v]] for v in range(n)]


def _lower(heap, low, x, c, s, r, sh) -> None:
    """Push an entry for x, of rank r, whose score c has just dropped below
    its lowest key after a pick at score s: at c // 2 while that stays
    above s + 2, else at c."""
    low[x] = c // 2 if c > 2 * s + 4 else c
    heapq.heappush(heap, low[x] << sh | r)


def _fill(nbr, v) -> int:
    """The fill-in of eliminating v: the non-adjacent pairs of N(v)."""
    nv = nbr[v]
    return (len(nv) * (len(nv) - 1) - sum(len(nbr[u] & nv) for u in nv)) // 2


def heuristic_td(g: Graph, strategy: str = "min-degree", seed: int = 0) -> TreeDecomposition:
    """Greedy elimination-order decomposition (`eliminate`)."""
    return _td_from_elimination(*eliminate(g, strategy, seed))


def eliminate(g: Graph, strategy: str = "min-degree", seed: int = 0):
    """Greedy elimination order, as (order, nbrs): nbrs[v] is the set of v's
    neighbours in the fill graph when v was eliminated (v's bag in
    `heuristic_td` is v plus nbrs[v]), which no later step changes.

    strategy is "min-degree" or "min-fill".  Each step eliminates the alive
    vertex with the least (score, salt, id), salt a seeded per-vertex
    random number, so the result is deterministic for a fixed seed.

    The pick comes off a heap of one-int entries key << sh | rank, for x's
    rank in (salt, id) order and sh the bit length of n, so entries compare
    as (key, rank) and decode with a shift and a mask.  Keys are lower
    bounds: x keeps its score cur[x] (-1 once eliminated) and the key
    low[x] of its lowest entry, and every alive x has an entry with key <=
    cur[x].  A popped entry is then at most (cur[y], rank[y]) for every
    alive y, so when its key is cur[x], x is the pick a full scan makes;
    otherwise x's lowest entry goes back at cur[x] and any other entry is
    dropped.  A score pushes an entry only when it drops below low[x], at
    half its value while that stays above the score just picked
    (`_lower`), so a hub losing one degree per step pays O(log deg) pushes.

    Eliminating v makes N(v) a clique.  A simplicial v, whose N(v) is one
    already, adds no fill edge (Bodlaender and Koster, "Treewidth
    computations I. Upper bounds", 2010): its neighbours just lose v, in
    O(deg v).  Under min-fill, v is simplicial exactly when its score is 0,
    and a neighbour u's fill drops by deg(u) - |N(v)|, the pairs {v, w} for
    its neighbours w outside the clique N(v) + v.  Under min-degree, v
    counts as simplicial with at most one neighbour, two adjacent ones, or
    N(v) inside nbr[t] for the stamp t of any one neighbour: the merge
    below stamps N(t) with t and makes it a clique, which nbr[t] keeps once
    t is gone, as edges between alive vertices are never removed, while an
    initial stamp u (alive) fails, as nbr[u] never holds u.  A missed
    simplicial v takes the merge, which leaves the same sets and scores.
    Otherwise N(v) is merged into each neighbour's set: under min-degree a
    neighbour's score is its set's size right after its own merge, and
    under min-fill the scores of N(v) and of the neighbours of each vertex
    that gained a fill edge are recounted (`_fill`).  Cost: O(log n) per
    push, O(deg v) per simplicial v, and per other v O(sum of deg) or, for
    min-fill, O(sum of d^2 per rescored vertex), in the fill graph.
    """
    if strategy not in ("min-degree", "min-fill"):
        raise ValueError(f"unknown strategy {strategy!r}")
    n = g.n
    rnd = random.Random(seed)
    salt = [rnd.random() for _ in range(n)]
    byrank = sorted(range(n), key=salt.__getitem__)  # stable: ties by id
    rank = rank_of(byrank)
    sh = n.bit_length()
    nbr = [set(a) for a in g.adj]
    min_fill = strategy == "min-fill"
    cur = [_fill(nbr, v) for v in range(n)] if min_fill else [len(nv) for nv in nbr]
    low = list(cur)
    heap = [c << sh | r for c, r in zip(cur, rank)]
    heapq.heapify(heap)
    stamp = list(range(n))
    order = []
    mask = (1 << sh) - 1
    pop, push = heapq.heappop, heapq.heappush
    for _ in range(n):
        while True:
            e = pop(heap)
            key = e >> sh
            v = byrank[e & mask]
            if key == cur[v]:
                break
            if key == low[v] and key < cur[v]:
                low[v] = cur[v]
                push(heap, cur[v] << sh | e & mask)
        s, cur[v] = cur[v], -1
        order.append(v)
        nv = nbr[v]
        if min_fill or s != 2:  # any neighbour's stamp gives an exact "yes"
            simplicial = s == 0 if min_fill else s < 2 or nv <= nbr[stamp[next(iter(nv))]]
        else:
            x, y = nv
            simplicial = x in nbr[y]
        if simplicial:
            d = len(nv) - 1
            for u in nv:
                nu = nbr[u]
                nu.discard(v)
                c = cur[u] = cur[u] - len(nu) + d if min_fill else len(nu)
                if c < low[u]:
                    _lower(heap, low, u, c, s, rank[u], sh)
            continue
        rescore = set()  # under min-fill two of N(v) gain and cover it
        for u in nv:
            nu = nbr[u]
            before = len(nu)
            nu |= nv
            nu.discard(u)
            nu.discard(v)
            stamp[u] = v
            if min_fill:
                if len(nu) >= before:  # u gained a fill edge
                    rescore |= nu
                continue
            c = cur[u] = len(nu)  # final: no other merge touches nbr[u]
            if c < low[u]:
                _lower(heap, low, u, c, s, rank[u], sh)
        for u in rescore:
            c = cur[u] = _fill(nbr, u)
            if c < low[u]:
                _lower(heap, low, u, c, s, rank[u], sh)
    return order, nbr


def treewidth_lower_bound(g: Graph) -> int:
    """Certified treewidth lower bound: the minor-min-degree bound, the
    largest minimum degree met while repeatedly contracting a
    minimum-degree vertex into its neighbour with the fewest common
    neighbours (an isolated one is deleted).  Every graph met is a minor
    of g, and treewidth is minor-monotone and at least the minimum degree.

    The bound is never below the degeneracy d, the largest minimum degree
    of a subgraph, so no separate degeneracy pass is made.  Let H be a
    subgraph of minimum degree d.  Contracting v into u, or deleting an
    isolated v, leaves a graph that contains H - v: every edge not at v
    survives.  So until a vertex of H is picked, H is a subgraph of the
    current graph, and the first vertex of H picked (one is, since all but
    one vertex are picked) has degree at least d there, while it is a
    minimum-degree vertex.

    The alive vertex of least (degree, id) comes from the heap of
    `eliminate`, with entries key << sh | id; a contraction changes only
    the degrees of the contracted vertex's neighbours, each pushed only
    when it drops below its lowest key.  Cost: O(sum of d^2 + d log n) over
    the picked minimum degrees d.
    """
    n = g.n
    if n == 0:
        return 0
    nbr = [set(a) for a in g.adj]
    cur = [len(nv) for nv in nbr]
    low = list(cur)
    sh = n.bit_length()
    heap = [d << sh | v for v, d in enumerate(cur)]
    heapq.heapify(heap)
    mask = (1 << sh) - 1
    pop, push = heapq.heappop, heapq.heappush
    mmd = 0
    for _ in range(n - 1):
        while True:  # the pick of `eliminate`, with the id as the rank
            e = pop(heap)
            d = e >> sh
            v = e & mask
            if d == cur[v]:
                break
            if d == low[v] and d < cur[v]:
                low[v] = cur[v]
                push(heap, cur[v] << sh | v)
        nv = nbr[v]
        cur[v] = -1
        mmd = max(mmd, d)
        if d == 0:
            continue
        # two neighbours share the same count of common ones: 1 if adjacent, else 0
        u = min(nv) if d <= 2 else min([(len(nbr[w] & nv), w) for w in nv])[1]
        nu = nbr[u]
        nu |= nv
        nu.discard(u)
        nu.discard(v)
        for w in nv:
            nw = nbr[w]
            if w != u:
                nw.discard(v)
                nw.add(u)
            c = cur[w] = len(nw)
            if c < low[w]:
                _lower(heap, low, w, c, d, w, sh)
        nv.clear()
    return mmd


def exact_td(g: Graph, k: int, cap: int = 15):
    """A tree decomposition of width <= k, or None if none exists
    (`exact_elimination`)."""
    found = exact_elimination(g, k, cap)
    return None if found is None else _td_from_elimination(*found)


def exact_elimination(g: Graph, k: int, cap: int = 15):
    """An elimination order of width <= k as (order, nbrs), in the form of
    `eliminate`, or None if none exists.

    Exhaustive search over elimination orders with memoization on the set
    of already-eliminated vertices (`_feasible`); the cost of eliminating
    v after S is the number of vertices outside S reachable from v through
    S (`_q_mask`).  The order takes at each step the least v whose
    elimination keeps the rest feasible.
    """
    n = g.n
    if n > cap:
        raise CapacityError(f"n={n} exceeds cap {cap}")
    if k < 0:
        return None
    adj_mask = [sum(1 << v for v in nu) for nu in g.adj]
    full = (1 << n) - 1
    memo = {}
    if not _feasible(adj_mask, k, memo, 0):
        return None
    order = []
    elim_bags = [None] * n
    s_mask = 0
    while s_mask != full:
        for v in _bits(full & ~s_mask):
            q = _q_mask(adj_mask, s_mask, v)
            if bin(q).count("1") <= k and _feasible(adj_mask, k, memo, s_mask | (1 << v)):
                order.append(v)
                elim_bags[v] = list(_bits(q))
                s_mask |= 1 << v
                break
    return order, elim_bags


def _q_mask(adj_mask, s_mask: int, v: int) -> int:
    """Neighborhood outside s_mask of the through-S component of v."""
    reach = 1 << v
    nb = adj_mask[v]
    frontier = nb & s_mask & ~reach
    while frontier:
        u = (frontier & -frontier).bit_length() - 1
        reach |= 1 << u
        nb |= adj_mask[u]
        frontier = nb & s_mask & ~reach
    return nb & ~s_mask & ~(1 << v)


def _feasible(adj_mask, k: int, memo, s_mask: int) -> bool:
    """Whether the vertices outside s_mask can be eliminated after those
    in it at width <= k.

    A depth-first search over masks, one level per eliminated vertex, so
    at most n deep: the successors by increasing (elimination cost,
    vertex) among those of cost <= k.  memo maps each mask settled so far
    to its answer: a mask is infeasible once all its successors are, and
    feasible once one of them is.
    """
    full = (1 << len(adj_mask)) - 1
    if s_mask == full:
        return True
    hit = memo.get(s_mask)
    if hit is None:
        moves = sorted((bin(_q_mask(adj_mask, s_mask, v)).count("1"), v) for v in _bits(full & ~s_mask))
        hit = memo[s_mask] = any(_feasible(adj_mask, k, memo, s_mask | 1 << v) for c, v in moves if c <= k)
    return hit


# ---------------------------------------------------------------------------
# rebalancing to logarithmic depth
# ---------------------------------------------------------------------------


def balance_td(g: Graph, td: TreeDecomposition) -> TreeDecomposition:
    """Rebalance a decomposition to a rooted tree of logarithmic depth in
    which every node has at most three children.

    The tree is first binarized (high-degree nodes expand into chains of
    duplicate bags), then split by one loop over a stack of jobs.  A region
    of the tree carries at most two boundary edges to the outside; each new
    node's bag is the split node's bag united with the bags just outside
    the boundary edges, so bags combine at most three input bags: width <=
    3*w(td) + 2.

    Split-node choice alternates implicitly between pure centroids (at most
    one boundary edge) and nodes on the path between the two boundary
    attachment points (chosen so both boundary-retaining components at most
    halve), which bounds the depth by O(log #nodes).

    A job (start, r, boundary, above) splits the region of r nodes holding
    start, whose boundary edges are (outside node, attachment node) pairs:
    it appends the new node's bag and the tree edge (above, node), -1 above
    the root, and pushes one job per part of the region minus the split
    node, with the edge to that node appended to the part's boundary.
    Only the rooted tree of bags is meant: the partitioner reads the root,
    the bags and the parent pointers (`occupancy_tables`), so node numbers
    and the order of children and of tree edges carry no meaning.

    Step 4 no longer calls it: centroid bags need no logarithmic depth,
    and the reduced decomposition keeps width w, not 3w + 2.  It stays
    public (acceptance criterion 07) and importable from `pipeline`, where
    the benchmark's traced runs wrap it.

    Cost: O(r) per region of r binarized nodes, so O(N log N) for N
    nodes.  A region is a component of the binarized tree minus the split
    nodes chosen so far, so membership is one flag per node.  One
    depth-first walk per region lists it in preorder with subtree sizes,
    from which every candidate's largest component (centroid case) or
    boundary-holding components (path case) are read off exactly; the pick
    minimizes the same (size, node) key as a component search per
    candidate would, so outputs are identical to that O(r^2) search.  The
    parts, the components of the region minus the split node c, are
    preorder slices: each child subtree of c, entered at its root, and the
    rest of the region, entered at c's parent in the walk.
    """
    if td.num_nodes == 0:
        return TreeDecomposition([[]], [], root=0)

    # --- root at 0 and binarize with duplicate-bag chains ---------------
    parent, order = tree_bfs(td.node_adj(), 0)
    kids = [[] for _ in range(td.num_nodes)]
    for v in order[1:]:
        kids[parent[v]].append(v)

    nb = [set(b) for b in td.bags]  # bags of the binarized tree; duplicates share
    chl = {}
    for u in range(td.num_nodes):
        cs = kids[u]
        cur = u
        i = 0
        while len(cs) - i > 2:
            dup = len(nb)
            nb.append(nb[u])
            chl[cur] = [cs[i], dup]
            i += 1
            cur = dup
        chl[cur] = cs[i:]
    badj = [[] for _ in nb]  # adjacency of the binarized tree
    for u, cs in chl.items():
        for v in cs:
            badj[u].append(v)
            badj[v].append(u)

    # --- splitting -----------------------------------------------------
    out_bags = []
    out_edges = []
    split = [False] * len(nb)  # split nodes chosen so far
    size = [0] * len(nb)  # subtree sizes of the region's walk
    up = [-1] * len(nb)  # parents of the region's walk
    heavy = [0] * len(nb)  # largest child subtree of the region's walk
    pos = [0] * len(nb)  # preorder positions of the region's walk
    stack = [(0, len(nb), [], -1)]
    while stack:
        start, r, boundary, above = stack.pop()
        c = start
        if r > 1:
            # list the region in preorder from the attachment node a1 of
            # its first boundary edge when it has two, else from start,
            # with subtree sizes; every subtree is a slice of the list
            root = boundary[0][1] if len(boundary) == 2 else start
            up[root] = -1
            region = []
            todo = [root]
            while todo:
                u = todo.pop()
                pos[u] = len(region)
                region.append(u)
                size[u] = 1
                heavy[u] = 0
                for v in badj[u]:
                    if v != up[u] and not split[v]:
                        up[v] = u
                        todo.append(v)
            for u in reversed(region[1:]):
                p = up[u]
                size[p] += size[u]
                if size[u] > heavy[p]:
                    heavy[p] = size[u]
            if len(boundary) <= 1:
                # centroid: the components of region - u are the child
                # subtrees of u and the r - size[u] nodes above it
                best = min((max(heavy[u], r - size[u]), u) for u in region)
            else:
                # walk the a2 -> a1 path; rooted at a1, the component
                # holding a1 is the part above the candidate, and the one
                # holding a2 is the subtree of the path node below it
                c = boundary[1][1]
                best = (r - size[c], c)
                while c != root:
                    c, below = up[c], size[c]
                    best = min(best, (max(r - size[c], below), c))
            c = best[1]
        split[c] = True
        node = len(out_bags)
        out_bags.append(sorted(nb[c].union(*(nb[x] for x, _ in boundary))))
        if above >= 0:
            out_edges.append((above, node))
        if r == 1:
            continue
        lo, hi = pos[c], pos[c] + size[c]
        i = lo + 1
        while i < hi:
            ch = region[i]
            j = i + size[ch]
            bnd = [(x, a) for x, a in boundary if i <= pos[a] < j]
            stack.append((ch, j - i, bnd + [(c, ch)], node))
            i = j
        if r > size[c]:
            bnd = [(x, a) for x, a in boundary if not lo <= pos[a] < hi]
            stack.append((up[c], r - size[c], bnd + [(c, up[c])], node))
    return TreeDecomposition(out_bags, out_edges, root=0)
