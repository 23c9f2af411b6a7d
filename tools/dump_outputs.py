"""Dump every pipeline output of a fixed corpus to one JSON file, and
compare two dumps.

    PYTHONPATH=src python tools/dump_outputs.py OUT.json
    python tools/dump_outputs.py --compare A.json B.json

The dump holds, per (family, instance, k): the verdict, the partition
(bags, tree edges, root), its `verify_tp` result, the certificate of a
rejection, every non-timing trace field and the steps whose trace record
carries `millis`.  Dumps of two versions are equal exactly when those
versions agree on all of it, so a change meant to keep outputs
byte-identical is checked with `cmp`, and one that changes them is
reported by `--compare`: verdict changes, and per family the accepts,
their width sums and maxima on each side, how many got narrower and how
many wider, and the records that differ.  `dump_outputs.sha256`
pins the current outputs:

    PYTHONPATH=src python tools/dump_outputs.py dump.json
    sha256sum -c tools/dump_outputs.sha256

The corpus, in the default step-1 mode (min-degree, seed 0): both
benchmark workloads (`perfbench/corpus.py`) at seeds 1 and 2; 300
`random_graph(30, 0.1, s)` at k in {1, 2, 3, 5}; tree multiples; grids and
walls of side 10, 20 and 30; windmills of 10 and 40 `K_{2,12}` blades on
one hub at k in {3, 7}.  Then every other step-1 mode: exact on
`random_graph(12, 0.3, s)` for s < 40 at k in {2, 3}, and min-fill,
min-degree with seed 3 and an import of `heuristic_td(g, "min-fill", 1)`
on the grids and walls at k in {3, 4, 8, 16}.  Then the flow corpus:
random 2-trees and random outerplanar graphs (`_two_tree`, `_outerplanar`)
of 250, 500 and 1,000 vertices at k = 3, seeds 0-3, whose step 2 runs
the max-flows that the smaller graphs above mostly settle without one.
Last, grids and walls of side 60 and 100 at k = 16, with step-1 seeds 0
and 3, where a change to step 4's width shows at a scale the sides up to
30 do not reach.  The `treepart` on PYTHONPATH is the one dumped, so
pointing PYTHONPATH at another checkout's `src` dumps that version
against the same corpus.  The dump exits 1 when
any accept fails `verify_tp`, or when any run leaves a reference cycle:
each run starts after a full collection, and `run` pauses the cyclic
collector, so everything the run allocated is still in generation 0 when
it returns, and collecting that generation finds every cycle it left.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
from collections import defaultdict
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent))

from perfbench import corpus  # noqa: E402


def _two_tree(n: int, seed: int):
    """Random 2-tree: K3, then each new vertex joins both ends of a random
    edge of a random earlier triangle."""
    import treepart as tp

    rnd = random.Random(seed)
    edges = [(0, 1), (0, 2), (1, 2)]
    triangles = [(0, 1, 2)]
    for v in range(3, n):
        a, b = rnd.sample(rnd.choice(triangles), 2)
        edges += [(a, v), (b, v)]
        triangles.append((a, b, v))
    return tp.Graph(n, edges)


def _outerplanar(n: int, seed: int):
    """Random outerplanar graph: the n-cycle plus the chords of a random
    triangulation of its polygon, each kept with probability 1/2."""
    import treepart as tp

    rnd = random.Random(seed)
    edges = [(i, (i + 1) % n) for i in range(n)]
    sides = [(0, n - 1)]  # polygon sides still to triangulate, as (i, j), i < j
    while sides:
        i, j = sides.pop()
        if j - i < 2:
            continue
        apex = rnd.randrange(i + 1, j)
        for a, b in ((i, apex), (apex, j)):
            if b - a >= 2:
                if rnd.random() < 0.5:
                    edges.append((a, b))
                sides.append((a, b))
    return tp.Graph(n, edges)


def _corpus():
    """(family, label, graph, params) for every run of the dump."""
    import treepart as tp

    P = tp.PipelineParams
    for workload in sorted(corpus.WORKLOADS):
        for seed in (1, 2):
            for inst in corpus.build(workload, seed):
                yield inst.family, f"{inst.label}@seed{seed}", inst.graph, P(inst.k)
    for s in range(300):
        g = tp.random_graph(30, 0.1, s)
        for k in (1, 2, 3, 5):
            yield "random", f"random_graph(30,0.1,{s})", g, P(k)
    for nodes in (8, 20):
        for m in range(1, 13):
            g = tp.gen_multiple_tree(tp.random_tree(nodes, m), m)
            for k in range(1, 8):
                yield "tree_multiple", f"multiple_tree({nodes},{m})", g, P(k)
    for name, gen in (("grid", tp.gen_grid), ("wall", tp.gen_wall)):
        for side in (10, 20, 30):
            g = gen(side)
            for k in (2, 3, 4, 8, 16):
                yield name, f"{name}/{side}", g, P(k)
    for blades in (10, 40):
        g = tp.gen_multiple_tree(tp.gen_complete_bipartite(1, blades), 12)
        for k in (3, 7):
            yield "windmill", f"windmill/{blades}", g, P(k)
    for s in range(40):
        g = tp.random_graph(12, 0.3, s)
        for k in (2, 3):
            yield "exact", f"random_graph(12,0.3,{s})", g, P(k, step1="exact")
    for name, gen in (("grid", tp.gen_grid), ("wall", tp.gen_wall)):
        for side in (10, 20, 30):
            g = gen(side)
            imported = tp.heuristic_td(g, "min-fill", 1)
            for k in (3, 4, 8, 16):
                for mode, params in (
                    ("min-fill", P(k, step1="heur:min-fill")),
                    ("min-degree seed 3", P(k, seed=3)),
                    ("import min-fill seed 1", P(k, step1="import", import_td=imported)),
                ):
                    yield f"{name} {mode}", f"{name}/{side} {mode}", g, params
    for name, gen in (("2-tree", _two_tree), ("outerplanar", _outerplanar)):
        for n in (250, 500, 1000):
            for seed in range(4):
                yield name, f"{name}({n},{seed})", gen(n, seed), P(3)
    for name, gen in (("grid", tp.gen_grid), ("wall", tp.gen_wall)):
        for side in (60, 100):
            g = gen(side)
            for seed in (0, 3):
                yield f"{name} large", f"{name}/{side} seed {seed}", g, P(16, seed=seed)


def _certificate(cert):
    if cert is None:
        return None
    out = {"kind": type(cert).__name__}
    for key, val in vars(cert).items():
        if isinstance(val, frozenset):
            val = sorted(val)
        elif isinstance(val, tuple):
            val = [sorted(part) for part in val]
        out[key] = val
    return out


def _record(family, label, g, params):
    """The run's record, and the number of objects it left in reference
    cycles."""
    import treepart as tp

    gc.collect()
    gc.freeze()  # the next full collection skips what survived this one
    out = tp.run(g, params)
    cyclic = gc.collect(0)
    rec = {
        "family": family,
        "label": label,
        "k": params.k,
        "accepted": out.accepted,
        "width": out.width,
        "certificate": _certificate(out.certificate),
        "trace": {
            r.step: {key: val for key, val in r.fields.items() if key != "millis"}
            for r in out.trace
        },
        "timed_steps": [r.step for r in out.trace if "millis" in r.fields],
    }
    if out.accepted:
        res = tp.verify_tp(g, out.tp)
        rec["verify_tp"] = res if isinstance(res, int) else f"{res.clause}:{res.witness}"
        rec["partition"] = {
            "bags": out.tp.bags,
            "edges": out.tp.tree_edges,
            "root": out.tp.root,
        }
    return rec, cyclic


def dump(path: str) -> int:
    """Write the dump; 1 when any accept fails `verify_tp` or any run
    leaves a reference cycle, else 0."""
    records, cyclic = [], []
    for case in _corpus():
        rec, garbage = _record(*case)
        records.append(rec)
        if garbage:
            cyclic.append(f'{rec["label"]} k={rec["k"]}: {garbage} objects')
    Path(path).write_text(json.dumps(records, indent=None, separators=(",", ":")) + "\n")
    bad = [r for r in records if r["accepted"] and r["verify_tp"] != r["width"]]
    print(f"{len(records)} records, {sum(r['accepted'] for r in records)} accepts, "
          f"{len(bad)} accepts failing verify_tp, {len(cyclic)} runs leaving cyclic garbage -> {path}")
    for line in cyclic:
        print(f"cyclic garbage: {line}")
    return 1 if bad or cyclic else 0


def compare(path_a: str, path_b: str) -> int:
    """Print verdict changes and per-family width sums; 1 when any record
    differs, else 0."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    if [(r["family"], r["label"], r["k"]) for r in a] != [
        (r["family"], r["label"], r["k"]) for r in b
    ]:
        print("the two dumps cover different corpora")
        return 2
    # per family: accepts on both sides, width sums A and B, width maxima
    # A and B, records narrower and wider in B, records changed
    cols = ("accepts", "width A", "width B", "max A", "max B", "narrower", "wider", "changed")
    fam = defaultdict(lambda: [0] * len(cols))
    flips = 0
    for ra, rb in zip(a, b):
        key = f'{ra["label"]} k={ra["k"]}'
        if ra["accepted"] != rb["accepted"]:
            flips += 1
            print(f"verdict {key}: {ra['accepted']} -> {rb['accepted']}")
        f = fam[ra["family"]]
        if ra["accepted"] and rb["accepted"]:
            wa, wb = ra["width"], rb["width"]
            f[0] += 1
            f[1] += wa
            f[2] += wb
            f[3] = max(f[3], wa)
            f[4] = max(f[4], wb)
            f[5] += wb < wa
            f[6] += wb > wa
        if ra != rb:
            f[7] += 1
            if ra["width"] != rb["width"]:
                print(f"width {key}: {ra['width']} -> {rb['width']}")

    def row(name, vals):
        print(f"{name:<18}" + "".join(f"{v:>{len(c) + 2}}" for v, c in zip(vals, cols)))

    row("family", cols)
    tot = [0] * len(cols)
    for name in sorted(fam):
        row(name, fam[name])
        tot = [max(x, y) if c.startswith("max") else x + y for c, x, y in zip(cols, tot, fam[name])]
    row("total", tot)
    print(f"{len(a)} records, {flips} verdict changes, {tot[7]} records changed")
    return 1 if tot[7] or flips else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("out", nargs="?", help="dump file to write")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.out:
        p.error("give OUT.json or --compare A B")
    return dump(args.out)


if __name__ == "__main__":
    sys.exit(main())
