"""Desk-scale ground-truth solvers: exact tree-partition-width, brute-force
separators, an independent partition enumerator, and exact domino treewidth.

These are exhaustive searches with light canonicalization; they exist to
pin down small instances, not to scale.
"""

from __future__ import annotations

import itertools

from .graph import Graph, connected_components, find


class CapacityError(Exception):
    """Instance exceeds the configured size cap of an exact solver."""


# ---------------------------------------------------------------------------
# exact tree-partition-width via exhaustive bag-growing
# ---------------------------------------------------------------------------


def _mask_components(adj_mask, mask: int):
    """Connected components (as bitmasks) of the subgraph induced by mask."""
    comps = []
    rest = mask
    while rest:
        seed = rest & -rest
        comp = seed
        frontier = seed
        while frontier:
            v = frontier.bit_length() - 1
            frontier &= ~(1 << v)
            nb = adj_mask[v] & mask & ~comp
            comp |= nb
            frontier |= nb
        comps.append(comp)
        rest &= ~comp
    return comps


def _bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _component_solvable(adj_mask, comp: int, k: int, memo) -> bool:
    """Can the component be partitioned with bags of size <= k, where the
    root bag must contain the component's minimum vertex?"""

    def solve(comp_mask: int, needed: int) -> bool:
        key = (comp_mask, needed)
        hit = memo.get(key)
        if hit is not None:
            return hit
        need_count = bin(needed).count("1")
        if need_count > k:
            memo[key] = False
            return False
        free = [v for v in _bits(comp_mask & ~needed)]
        result = False
        for extra_size in range(0, k - need_count + 1):
            for extra in itertools.combinations(free, extra_size):
                bag = needed
                for v in extra:
                    bag |= 1 << v
                rest = comp_mask & ~bag
                ok = True
                boundary = 0
                for v in _bits(bag):
                    boundary |= adj_mask[v]
                boundary &= rest
                for sub in _mask_components(adj_mask, rest):
                    if not solve(sub, boundary & sub):
                        ok = False
                        break
                if ok:
                    result = True
                    break
            if result:
                break
        memo[key] = result
        return result

    lowest = comp & -comp
    return solve(comp, lowest)


def exact_tpw(g: Graph, kmax: int, cap: int = 12):
    """Minimum tree-partition width, or None if it exceeds kmax.

    Iterative deepening on the width; per width an exhaustive bag-growing
    search where each child bag must absorb the parent bag's neighborhood in
    its component.  Root bags are forced to contain the component minimum.
    """
    if g.n > cap:
        raise CapacityError(f"n={g.n} exceeds cap {cap}")
    if g.n == 0:
        return 0
    adj_mask = [sum(1 << v for v in nu) for nu in g.adj]
    comps = [sum(1 << v for v in c) for c in connected_components(g)]
    for k in range(1, kmax + 1):
        memo = {}
        if all(_component_solvable(adj_mask, c, k, memo) for c in comps):
            return k
    return None


# ---------------------------------------------------------------------------
# independent enumerator: all set partitions, quotient-forest check
# ---------------------------------------------------------------------------


def _set_partitions(items, max_part=None):
    """All set partitions of a list, as lists of lists, in a fixed order.

    With max_part, a part stops growing once it holds max_part items,
    which yields exactly the partitions whose parts all have at most
    max(max_part, 1) items, in the same relative order: parts only grow as
    the recursion adds items.
    """
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest, max_part):
        for i in range(len(part)):
            if max_part is None or len(part[i]) < max_part:
                yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def _quotient_forest(edges, parts):
    """(quotient edge set, union-find table joining its edges) for a
    partition of the vertices, or None when the quotient edges close a
    cycle.  edges are the host graph's edges."""
    part_of = {}
    for i, p in enumerate(parts):
        for v in p:
            part_of[v] = i
    quotient_edges = set()
    for u, v in edges:
        a, b = part_of[u], part_of[v]
        if a != b:
            quotient_edges.add((a, b) if a < b else (b, a))
    if quotient_edges and len(quotient_edges) >= len(parts):  # too many for a forest
        return None
    root = list(range(len(parts)))
    for a, b in quotient_edges:
        ra, rb = find(root, a), find(root, b)
        if ra == rb:
            return None
        root[ra] = rb
    return quotient_edges, root


def tpw_by_enumeration(g: Graph, cap: int = 7):
    """Tree-partition width by brute-force enumeration of set partitions.

    A partition extends to a tree-partition iff its quotient requirement
    graph is a forest, so the width is the minimum over such partitions of
    the maximum part size.  Independent of the bag-growing search.
    """
    if g.n > cap:
        raise CapacityError(f"n={g.n} exceeds cap {cap}")
    if g.n == 0:
        return 0
    edges = g.edges()
    best = g.n
    for parts in _set_partitions(list(range(g.n))):
        w = max(len(p) for p in parts)
        if w >= best:
            continue
        if _quotient_forest(edges, parts) is not None:
            best = w
    return best


def valid_partitions_upto(g: Graph, k: int, cap: int = 8):
    """All set partitions of V with max part size <= k whose quotient is a
    forest, i.e. all tree-partition bag structures of width <= k."""
    if g.n > cap:
        raise CapacityError(f"n={g.n} exceeds cap {cap}")
    edges = g.edges()
    out = []
    for parts in _set_partitions(list(range(g.n)), k):
        # the size test still matters for k < 1, where parts are singletons
        width = max((len(p) for p in parts), default=0)
        if width <= k and _quotient_forest(edges, parts) is not None:
            out.append([sorted(p) for p in parts])
    return out


def completion_tree(g: Graph, parts):
    """A spanning tree over the parts extending the quotient requirement
    forest, as a list of tree edges (deterministic completion)."""
    forest = _quotient_forest(g.edges(), parts)
    if forest is None:
        raise ValueError("quotient has a cycle")
    tree, root = sorted(forest[0]), forest[1]
    for b in range(1, len(parts)):
        ra, rb = find(root, 0), find(root, b)
        if ra != rb:
            root[ra] = rb
            tree.append((0, b))
    return tree


# ---------------------------------------------------------------------------
# brute-force minimum separator
# ---------------------------------------------------------------------------


def brute_mu(g: Graph, s: int, t: int, cap: int = 16) -> int:
    """Minimum s-t separator size in G-st by subset enumeration."""
    if g.n > cap:
        raise CapacityError(f"n={g.n} exceeds cap {cap}")
    if s == t:
        raise ValueError("s == t")
    others = [v for v in range(g.n) if v != s and v != t]

    def separated(removed) -> bool:
        blocked = set(removed)
        stack = [s]
        seen = {s}
        while stack:
            u = stack.pop()
            for v in g.adj[u]:
                if u == s and v == t or u == t and v == s:
                    continue
                if v == t:
                    return False
                if v not in blocked and v not in seen:
                    seen.add(v)
                    stack.append(v)
        return True

    for size in range(0, len(others) + 1):
        for sub in itertools.combinations(others, size):
            if separated(sub):
                return size
    return len(others)  # unreachable: removing all others always separates


def brute_disjoint_paths(g: Graph, s: int, t: int, cap: int = 8) -> int:
    """Maximum number of internally vertex-disjoint s-t paths in G-st.

    Independent Menger cross-check: enumerates families of paths directly.
    """
    if g.n > cap:
        raise CapacityError(f"n={g.n} exceeds cap {cap}")
    if s == t:
        raise ValueError("s == t")

    # all simple s-t paths avoiding the direct edge, as interior-vertex sets
    interiors = []

    # DFS enumerating paths
    def extend(u, used):
        for v in g.adj[u]:
            if v == t:
                if u != s:  # skip the direct edge st
                    interiors.append(used)
            elif v != s and v not in used:
                extend(v, used | {v})

    extend(s, frozenset())
    interiors = sorted(set(interiors), key=lambda f: (len(f), sorted(f)))

    best = 0

    def search(idx, taken, used):
        nonlocal best
        best = max(best, taken)
        if taken + (len(interiors) - idx) <= best:
            return
        for i in range(idx, len(interiors)):
            if not (interiors[i] & used):
                search(i + 1, taken + 1, used | interiors[i])

    search(0, 0, frozenset())
    return best


# ---------------------------------------------------------------------------
# exact domino treewidth
# ---------------------------------------------------------------------------


def _domino_component(g: Graph, comp, s: int) -> bool:
    """Is there a domino tree decomposition of G[comp] with bags of size <= s?

    Top-down search.  State: current bag B, the subset of B already holding
    its second appearance (fixed), and the territory of vertices that must
    be covered strictly below B.  Closure rules force the shape of each
    child bag:

      * a child bag absorbing part of a territory component C must contain
        all of N(B) & C and every B-vertex with a neighbor in C (which
        thereby takes its second appearance there);
      * a B-vertex placed into a child bag must see all of its remaining
        territory neighbors inside that bag.
    """
    compset = frozenset(comp)

    def closure(bag, B, fixed, comp_of):
        bag = set(bag)
        assigned = set()
        while True:
            changed = False
            for v in list(bag):
                c = comp_of.get(v)
                if c is not None and c not in assigned:
                    assigned.add(c)
                    changed = True
            for c in list(assigned):
                for v in c:
                    touches_b = False
                    for w in g.adj[v]:
                        if w in B:
                            touches_b = True
                            if w in fixed:
                                return None  # w has no second bag left
                            if w not in bag:
                                bag.add(w)
                                changed = True
                    if touches_b and v not in bag:
                        bag.add(v)
                        changed = True
            for v in list(bag):
                if v in B and v not in fixed:
                    for w in g.adj[v]:
                        if w in comp_of and w not in bag:
                            bag.add(w)
                            changed = True
            if len(bag) > s:
                return None
            if not changed:
                return frozenset(bag), frozenset(assigned)

    def grow(B, fixed, territory) -> bool:
        if not territory:
            return True
        comps = [frozenset(c) for c in connected_components(g, territory)]
        comp_of = {}
        for c in comps:
            for v in c:
                comp_of[v] = c
        target = comp_of[min(territory)]
        seed = {min(target)}
        base = closure(seed, B, fixed, comp_of)
        if base is None:
            return False
        base_bag, _ = base
        candidates = sorted((territory | (B - fixed)) - base_bag)
        seen_bags = set()
        for extra_size in range(0, s - len(base_bag) + 1):
            for extra in itertools.combinations(candidates, extra_size):
                res = closure(base_bag | set(extra), B, fixed, comp_of)
                if res is None:
                    continue
                bag, assigned = res
                if bag in seen_bags or target not in assigned:
                    continue
                seen_bags.add(bag)
                handled = frozenset().union(*assigned)
                if grow(bag, bag & B, handled - bag) and grow(
                    B, fixed | (bag & B), territory - handled
                ):
                    return True
        return False

    smin = min(compset)
    rest = sorted(compset - {smin})
    for size in range(0, min(s - 1, len(rest)) + 1):
        for extra in itertools.combinations(rest, size):
            bag = frozenset((smin,) + extra)
            if grow(bag, frozenset(), compset - bag):
                return True
    return False


def exact_domino_tw(g: Graph, kmax: int, cap: int = 10):
    """Minimum domino treewidth, or None if it exceeds kmax.

    Uses the degree pre-filter: domino treewidth k forces maximum degree at
    most 2k, so widths with 2k below the maximum degree are skipped.
    """
    if g.n > cap:
        raise CapacityError(f"n={g.n} exceeds cap {cap}")
    if g.n == 0:
        return 0
    maxdeg = g.max_degree()
    comps = connected_components(g)
    for k in range(1, kmax + 1):
        if maxdeg > 2 * k:
            continue
        if all(_domino_component(g, c, k + 1) for c in comps):
            return k
    return None
