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

from .decomp import TreeDecomposition
from .exact import CapacityError, _bits
from .graph import Graph, tree_bfs


def _td_from_elimination(n: int, order, nbrs) -> TreeDecomposition:
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
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    bags = [sorted([v, *nbrs[v]]) for v in order]
    edges = []
    for i, v in enumerate(order[:-1]):
        edges.append((i, min(map(pos.__getitem__, nbrs[v])) if nbrs[v] else i + 1))
    return TreeDecomposition(bags, edges, root=len(order) - 1)


def _pick(heap, cur, low) -> int:
    """Pop the live vertex of least (score, tie, id) from a heap of
    (key, tie, x) entries whose keys are lower bounds (see `heuristic_td`):
    an entry at x's score picks x, x's lowest entry below its score goes
    back at the score, and any other entry is dropped."""
    while True:
        key, tie, x = heapq.heappop(heap)
        if key == cur[x]:
            return x
        if key == low[x] and key < cur[x]:
            low[x] = cur[x]
            heapq.heappush(heap, (low[x], tie, x))


def _lower(heap, cur, low, x, c, tie, s) -> None:
    """Set x's score to c after a pick at score s, pushing an entry only
    when c drops below x's lowest key: at c // 2 while that stays above
    s + 2, else at c."""
    cur[x] = c
    if c < low[x]:
        low[x] = c // 2 if c > 2 * s + 4 else c
        heapq.heappush(heap, (low[x], tie, x))


def _fill(nbr, v) -> int:
    """The fill-in of eliminating v: the non-adjacent pairs of N(v)."""
    nv = nbr[v]
    return (len(nv) * (len(nv) - 1) - sum(len(nbr[u] & nv) for u in nv)) // 2


def heuristic_td(g: Graph, strategy: str = "min-degree", seed: int = 0) -> TreeDecomposition:
    """Greedy elimination-order decomposition (`eliminate`)."""
    return _td_from_elimination(g.n, *eliminate(g, strategy, seed))


def eliminate(g: Graph, strategy: str = "min-degree", seed: int = 0):
    """Greedy elimination order, as (order, nbrs): nbrs[v] is the set of v's
    neighbours in the fill graph when v was eliminated (v's bag in
    `heuristic_td` is v plus nbrs[v]), which no later step changes.

    strategy is "min-degree" or "min-fill".  Each step eliminates the alive
    vertex with the least (score, salt, id), where salt is a seeded
    per-vertex random number, so the result is deterministic for a fixed
    seed.

    The next vertex comes off a heap whose keys are lower bounds.  Each
    vertex x keeps cur[x], its score (-1 once eliminated), and low[x], the
    key of its lowest entry; every alive x has an entry (key, tie, x) with
    key <= cur[x].  A popped entry is at most every entry, so at most
    (cur[y], tie, y) for every alive y: when its key is cur[x], x is the
    least (score, salt, id) over alive vertices, the pick a full scan per
    step makes.  Otherwise x's lowest entry goes back at cur[x] and any
    other entry is dropped (`_pick`).  A new score pushes an entry only
    when it drops below low[x], at half its value while that stays above
    the score just picked (`_lower`), so a hub whose degree falls by one
    per step pays O(log deg) pushes instead of one per step.

    Eliminating v makes N(v) a clique.  A simplicial v, whose N(v) is one
    already, adds no fill edge (Bodlaender and Koster, "Treewidth
    computations I. Upper bounds", 2010): its neighbours just lose v, in
    O(deg v), and no other score changes.  Under min-fill, v is simplicial
    exactly when its score is 0, and a neighbour u loses the pairs {v, w}
    for its deg(u) - |N(v)| neighbours w outside the clique N(v) + v, so its
    fill drops by that much.  Under min-degree, v counts as simplicial with
    at most one neighbour, two adjacent ones, or N(v) inside nbr[t] for the
    stamp t of its least neighbour: the merge below stamps N(t) with t and
    makes it a clique, which nbr[t] keeps once t is gone, since edges
    between alive vertices are never removed; an initial stamp u (alive)
    fails, as nbr[u] never holds u.  So a "yes" is exact; a missed
    simplicial v takes the merge, which adds nothing.  Otherwise N(v) is
    merged into each neighbour's set and the scores of N(v) are recomputed,
    for min-fill from scratch (`_fill`) with those of the neighbours of each
    vertex that gained a fill edge.  Cost: O(log n) per push, O(deg v) per
    simplicial v, and per other v O(sum of deg) or, for min-fill, O(sum of
    d^2 per rescored vertex), in the fill graph: near-linear on sparse
    graphs of bounded width and on hubs with simplicial leaves.
    """
    if strategy not in ("min-degree", "min-fill"):
        raise ValueError(f"unknown strategy {strategy!r}")
    n = g.n
    rnd = random.Random(seed)
    salt = [rnd.random() for _ in range(n)]
    nbr = [set(a) for a in g.adj]
    min_fill = strategy == "min-fill"
    cur = [_fill(nbr, v) for v in range(n)] if min_fill else [len(nv) for nv in nbr]
    low = list(cur)
    heap = [(cur[v], salt[v], v) for v in range(n)]
    heapq.heapify(heap)
    stamp = list(range(n))
    order = []
    for _ in range(n):
        v = _pick(heap, cur, low)
        s, cur[v] = cur[v], -1
        order.append(v)
        nv = nbr[v]
        simplicial = s == 0 if min_fill else (
            s < 2 or s == 2 and min(nv) in nbr[max(nv)] or nv <= nbr[stamp[min(nv)]])
        if simplicial:
            d = len(nv) - 1
            for u in nv:
                nu = nbr[u]
                nu.discard(v)
                c = cur[u] = cur[u] - len(nu) + d if min_fill else len(nu)
                if c < low[u]:  # else `_lower` would only set cur[u]
                    _lower(heap, cur, low, u, c, salt[u], s)
            continue
        rescore = set() if min_fill else nv  # under min-fill two of N(v) gain and cover it
        for u in nv:
            before = len(nbr[u])
            nbr[u] |= nv
            nbr[u].discard(u)
            nbr[u].discard(v)
            stamp[u] = v
            if min_fill and len(nbr[u]) >= before:  # u gained a fill edge
                rescore |= nbr[u]
        for u in rescore:
            _lower(heap, cur, low, u, _fill(nbr, u) if min_fill else len(nbr[u]), salt[u], s)
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

    The alive vertex of least (degree, id) comes from the lower-bound-key
    heap of `heuristic_td`, with entries (key, id, id); after a
    contraction only the degrees of the contracted vertex's neighbours
    change, and only those are lowered.  Cost: O(sum of d^2 + d log n)
    over the picked minimum degrees d.
    """
    n = g.n
    if n == 0:
        return 0
    nbr = [set(g.adj[v]) for v in range(n)]
    cur = [len(nv) for nv in nbr]
    low = list(cur)
    heap = [(d, v, v) for v, d in enumerate(cur)]
    heapq.heapify(heap)
    mmd = 0
    for _ in range(n - 1):
        v = _pick(heap, cur, low)
        nv = nbr[v]
        d, cur[v] = cur[v], -1
        mmd = max(mmd, d)
        if d == 0:
            continue
        u = min(nv, key=lambda w: (len(nbr[w] & nv), w))
        for w in nv:
            nbr[w].discard(v)
            if w != u:
                nbr[w].add(u)
                nbr[u].add(w)
        nbr[u].discard(u)
        for w in nv:
            _lower(heap, cur, low, w, len(nbr[w]), w, d)
        nv.clear()
    return mmd


def exact_td(g: Graph, k: int, cap: int = 15):
    """A tree decomposition of width <= k, or None if none exists
    (`exact_elimination`)."""
    found = exact_elimination(g, k, cap)
    return None if found is None else _td_from_elimination(g.n, *found)


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
    adj_mask = [0] * n
    for u in range(n):
        for v in g.adj[u]:
            adj_mask[u] |= 1 << v
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

    A depth-first search over masks on an explicit stack of (mask,
    untried successor masks), the successors by increasing (elimination
    cost, vertex) among those of cost <= k.  memo maps each mask settled
    so far to its answer: a mask is infeasible once all its successors
    are, and a feasible successor makes every mask on the stack feasible.
    """
    full = (1 << len(adj_mask)) - 1
    stack = []
    t = s_mask
    while True:
        hit = True if t == full else memo.get(t)
        if hit:
            for m, _ in stack:
                memo[m] = True
            return True
        if hit is None:
            moves = sorted((bin(_q_mask(adj_mask, t, v)).count("1"), v) for v in _bits(full & ~t))
            stack.append((t, iter([t | 1 << v for c, v in moves if c <= k])))
        while True:  # the next untried successor, settling exhausted masks
            if not stack:
                return False
            m, untried = stack[-1]
            t = next(untried, 0)
            if t:
                break
            memo[m] = False
            stack.pop()


def reduce_td(td: TreeDecomposition) -> TreeDecomposition:
    """The reduced form of a decomposition: every tree edge where one bag
    contains the other is contracted, keeping the larger bag, so that no
    bag lies inside another.  For the decomposition of an elimination
    order the bags left are the maximal cliques of the chordal completion
    and the tree is a clique tree (Blair and Peyton, "An introduction to
    chordal graphs and clique trees", 1993).

    Rule: nodes are visited by increasing (bag size, id), and each is
    contracted into its lowest-id current neighbour whose bag contains its
    own, when it has one.  The surviving nodes keep their input order and
    their bag lists, the tree edges come out sorted, and the root is 0.

    Proof: contracting an edge ij with bag(i) inside bag(j) keeps every
    vertex and edge covered and each vertex's nodes connected, so the
    result is a tree decomposition of the same width.  A node kept at its
    visit has no neighbour containing its bag, and never gets one: a node
    y that becomes its neighbour through a contracted neighbour x (into y,
    or into the node itself) shares with it only vertices of x, which lay
    between them, so y contains its bag only if x, a neighbour, did.  So
    no adjacent bags nest in the result, and then no two bags do: a bag
    inside a non-adjacent bag is also inside the adjacent bag on the tree
    path between them.

    By the same argument a current neighbour contains a node's bag only
    through an original edge at the node or at a node of equal bag
    contracted into it.  So each node keeps a heap of references to the
    original neighbours containing its bag, and a node contracted into one
    of equal bag hands its heap over, the smaller heap pushed into the
    larger.  A reference resolves through a union-find to the node it was
    contracted into, so no neighbour list is moved.  It is keyed by the id
    it resolved to when pushed, a lower bound on the id it resolves to
    now, except when a node x contracts into a node j of larger bag and
    lower id; so then x's neighbours of equal bag get an entry for j.
    Popping entries that resolve to the node itself, and re-keying the
    others, until one resolves to its key gives the lowest-id containing
    neighbour.

    Cost: O(sum of |bag|) to build the sets and test each tree edge from
    its smaller bag, plus O(log N) per heap operation for N nodes.  An
    entry moves only from the smaller of two merged heaps, so at most
    log2 N times; a nested chain with many pendant bags moves none.
    """
    n = td.num_nodes
    sets = [set(bag) for bag in td.bags]
    size = [len(s) for s in sets]
    up = [[] for _ in range(n)]  # heaps of (key, reference) to containing nodes
    for i, j in td.tree_edges:
        for a, c in ((i, j), (j, i)):
            if size[a] <= size[c] and sets[a] <= sets[c]:
                up[a].append((c, c))
    for heap in up:
        heapq.heapify(heap)
    rep = list(range(n))  # union-find; a node's root is the node it contracted into

    def find(x):
        while rep[x] != x:
            rep[x] = x = rep[rep[x]]
        return x

    for i in sorted(range(n), key=lambda x: (size[x], x)):
        heap = up[i]
        while heap:
            key, ref = heap[0]
            r = find(ref)
            if r == i:
                heapq.heappop(heap)
            elif r != key:
                heapq.heapreplace(heap, (r, ref))
            else:
                break
        up[i] = None
        if not heap:
            continue
        j = rep[i] = heap[0][0]
        if size[j] == size[i]:  # equal bags: j now borders what contains i
            small, big = sorted((heap, up[j]), key=len)
            for entry in small:
                heapq.heappush(big, entry)
            up[j] = big
        else:  # i's neighbours of equal bag now border j, maybe below their keys
            for _, ref in heap:
                z = find(ref)
                if z != j and size[z] == size[i]:
                    heapq.heappush(up[z], (j, j))
    keep = [i for i in range(n) if rep[i] == i]
    new_id = {i: t for t, i in enumerate(keep)}
    edges = []
    for i, j in td.tree_edges:
        a, b = new_id[find(i)], new_id[find(j)]
        if a != b:
            edges.append((min(a, b), max(a, b)))
    edges.sort()
    return TreeDecomposition([td.bags[i] for i in keep], edges, root=0 if keep else None)


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
    centroid is found by descent from the walk root into the child holding
    more than r/2 nodes: the node c reached has every component of region
    - c at most r/2 (its children by the stop, the part above it because
    c holds more than r/2).  Any other node keeps c's side in one
    component, of more than r/2 nodes unless it is the root of a child
    subtree of exactly r/2, whose key then ties on size; two such children
    would need r >= r/2 + r/2 + 1.  So the least key is c's or that
    child's.  The parts, the components of the region minus the split
    node c, are preorder slices: each child subtree of c, entered at its
    root, and the rest of the region, entered at c's parent in the walk.
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
                # centroid: the components of region - c are the child
                # subtrees of c and the r - size[c] nodes above it; descend
                # into the child holding more than half of the region, then
                # the node reached ties only with a child of exactly half
                while True:
                    kids = [v for v in badj[c] if v != up[c] and not split[v]]
                    big = [v for v in kids if 2 * size[v] > r]
                    if not big:
                        break
                    c = big[0]
                best = (max(heavy[c], r - size[c]), c)
                for v in kids:
                    if 2 * size[v] == r:
                        best = min(best, (max(heavy[v], r - size[v]), v))
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


def occupancy_tables(td: TreeDecomposition):
    """Occupancy tables of a rooted decomposition, as (top, parent, depth).

    parent[t] is t's parent node, -1 at the root (`tree_bfs`), depth[t]
    is t's distance from the root, and top[v] is the first node in
    breadth-first order whose bag holds v, which in a valid decomposition
    is the highest node of v's occupancy subtree.  So v occupies a node in
    the subtree of a node t outside its bag exactly when climbing parent
    pointers from top[v] reaches t.  One pass over the nodes in
    breadth-first order sets each depth and each top[v] once, at its first
    bag.
    """
    if td.root is None:
        raise ValueError("decomposition is not rooted")
    if not 0 <= td.root < td.num_nodes:
        raise ValueError(f"root {td.root} is not a node")
    parent, order = tree_bfs(td.node_adj(), td.root)
    depth = [0] * td.num_nodes
    top = {}
    for i in order:
        if i != td.root:
            depth[i] = depth[parent[i]] + 1
        for v in td.bags[i]:
            if v not in top:
                top[v] = i
    return top, parent, depth
