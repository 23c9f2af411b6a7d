"""Verdict checks, run outside every timed region.

`check_outcome` judges one pipeline outcome against its family's expected
verdict; `recheck_certificate` recomputes a rejection's evidence without
the pipeline's driver, for the smallest rung of each rejecting family.
"""

from __future__ import annotations

import time

from treepart import (
    BlockDegree,
    LargeComponent,
    TreewidthLB,
    b_reduction,
    biconnected_components,
    build_gb,
    candidate_pairs,
    connected_components,
    degree_threshold,
    heuristic_td,
    mu,
    treewidth_lower_bound,
    verify_tp,
)


def verdict_size(out) -> int:
    """What a verdict hands back, as one number: the realized width of an
    accepted partition, or the size of a rejection's obstruction."""
    if out.accepted:
        return out.width
    cert = out.certificate
    if isinstance(cert, LargeComponent):
        return len(cert.vertices)
    if isinstance(cert, BlockDegree):
        return cert.degree
    return cert.lb


def check_outcome(inst, out, steps):
    """(failure reason or None, seconds spent in verify_tp); `steps` is the
    run's own step record, {step: fields}."""
    if isinstance(out, Exception):
        return f"raised {type(out).__name__}: {out}", 0.0
    k = inst.k
    if out.accepted:
        if inst.expect != "accept":
            return f"accepted at width {out.width}, expected {inst.expect}", 0.0
        t0 = time.perf_counter()
        width = verify_tp(inst.graph, out.tp)
        spent = time.perf_counter() - t0
        if width != out.width:
            return f"verify_tp gave {width!r}, pipeline reported {out.width}", spent
        return None, spent
    cert = out.certificate
    if type(cert).__name__ != inst.expect:
        return f"rejected with {type(cert).__name__}, expected {inst.expect}", 0.0
    b = steps.get("step2", {}).get("b")
    if isinstance(cert, TreewidthLB):
        if cert.bound != 2 * k - 1 or cert.lb <= cert.bound:
            return f"TreewidthLB lb={cert.lb} bound={cert.bound} at k={k}", 0.0
    elif isinstance(cert, LargeComponent):
        if len(cert.vertices) <= k or cert.b != b:
            return f"LargeComponent of {len(cert.vertices)} at b={cert.b}, run b={b}", 0.0
    elif isinstance(cert, BlockDegree):
        if cert.threshold != degree_threshold(k, b) or cert.degree <= cert.threshold:
            return f"BlockDegree {cert.degree} vs threshold {cert.threshold}", 0.0
    return None, 0.0


def _spanning_tree_holds(g, vertices, b) -> bool:
    """Whether pairs with mu >= b connect `vertices`, grown breadth-first."""
    left = sorted(vertices)
    frontier = [left.pop(0)]
    while frontier and left:
        u = frontier.pop(0)
        joined = [v for v in left if mu(g, u, v, cap=b) >= b]
        frontier += joined
        left = [v for v in left if v not in joined]
    return not left


def recheck_certificate(inst, out, steps):
    """Failure reason or None for an independent recompute of a rejection
    on a connected instance."""
    g, k, cert = inst.graph, inst.k, out.certificate
    if len(connected_components(g)) != 1:
        return "certificate recompute needs a connected instance"
    if isinstance(cert, TreewidthLB):
        lb = treewidth_lower_bound(g)
        return None if lb >= cert.lb else f"lower bound recomputes to {lb} < {cert.lb}"
    b = steps["step2"]["b"]
    if isinstance(cert, LargeComponent):
        if len(cert.vertices) <= k:
            return f"component of {len(cert.vertices)} vertices at k={k}"
        if not _spanning_tree_holds(g, cert.vertices, b):
            return f"pairs with mu >= {b} do not connect the component"
        return None
    if isinstance(cert, BlockDegree):
        red = b_reduction(g, build_gb(g, b, candidate_pairs(heuristic_td(g))))
        groups = {frozenset(part): i for i, part in enumerate(red.parts)}
        for blk in biconnected_components(red.h).blocks:
            if {frozenset(red.parts[u]) for u in blk} == set(cert.block):
                inside = set(blk)
                v = groups.get(cert.vertex)
                if v not in inside:
                    return "certificate vertex is not in its block"
                degree = sum(1 for u in red.h.adj[v] if u in inside)
                if degree != cert.degree or degree <= degree_threshold(k, b):
                    return f"block degree recomputes to {degree}, certificate says {cert.degree}"
                return None
        return "certificate block is not a block of the recomputed quotient"
    return f"no recompute for {type(cert).__name__}"
