"""Command-line surface.

Exit codes: 0 success/valid/accept, 1 reject or invalid (with a
machine-readable `RESULT status=... reason=...` line), 2 usage or I/O
errors and malformed input.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import random
import sys
import time
from pathlib import Path

from . import families, gadgets
from .bridge import tcd_to_subdivision_tp, tp_lift_subdivision
from .decomp import MalformedDecomposition, Violation
from .decomp import verify_domino, verify_td, verify_tp, verify_tcd
from .exact import CapacityError, exact_domino_tw, exact_tpw
from .graph import Graph
from .ioformats import (
    ParseError,
    emit_gr,
    emit_jsonl,
    emit_tp,
    parse_counts,
    parse_gr,
    parse_tcd,
    parse_td,
    parse_tp,
)
from .pipeline import (
    BlockDegree,
    LargeComponent,
    PipelineParams,
    TreewidthLB,
    run,
)
from .separators import build_gb
from .partitioner import CONSTANTS


class CliError(Exception):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}")


def _load(path: str, parse=parse_gr, *args):
    """parse(text of the file at path, *args), naming the file in a parse
    error."""
    try:
        return parse(_read(path), *args)
    except ParseError as exc:
        raise CliError(f"{path}: {exc}")


def _reject_reason(cert) -> str:
    if isinstance(cert, TreewidthLB):
        return f"treewidth-lb:{cert.lb}>{cert.bound}"
    if isinstance(cert, LargeComponent):
        return f"large-component:{len(cert.vertices)}@b={cert.b}"
    if isinstance(cert, BlockDegree):
        return f"block-degree:{cert.degree}>{cert.threshold}"
    return "unknown"


def _cmd_decompose(args) -> int:
    g = _load(args.input)
    step1 = args.step1
    import_td = None
    if step1.startswith("import:"):
        import_td = _load(step1[len("import:"):], parse_td)
        step1 = "import"
    try:
        params = PipelineParams(
            k=args.k,
            step1=step1,
            seed=args.seed,
            import_td=import_td,
            b_override=args.b,
        )
        out = run(g, params)
    except (ValueError, CapacityError) as exc:
        raise CliError(str(exc))
    if args.trace:
        _write(args.trace, emit_jsonl({"step": r.step, **r.fields} for r in out.trace))
    if not out.accepted:
        print(f"RESULT status=reject reason={_reject_reason(out.certificate)}")
        return 1
    if args.output:
        _write(args.output, emit_tp(out.tp, g.n))
    print(f"RESULT status=accept width={out.width}")
    return 0


def _cmd_verify(args) -> int:
    g = _load(args.input)
    parse, verify = {
        "tp": (parse_tp, verify_tp),
        "td": (parse_td, verify_td),
        "domino": (parse_td, verify_domino),
        "tcd": (parse_tcd, verify_tcd),
    }[args.kind]
    decomp = _load(args.decomp, parse)
    try:
        res = verify(g, decomp)
    except ValueError as exc:  # a malformed decomposition
        raise CliError(f"{args.decomp}: {exc}")
    if isinstance(res, Violation):
        print(f"RESULT status=invalid reason={res.clause}:{res.witness}")
        return 1
    if args.kind == "tcd":
        width, nice = res
        print(f"RESULT status=valid width={width} nice={int(nice)}")
    else:
        print(f"RESULT status=valid width={res}")
    return 0


def _cmd_exact(args, fn, name) -> int:
    if args.kmax is not None and args.kmax < 0:
        raise CliError(f"--kmax must be >= 0, got {args.kmax}")
    g = _load(args.input)
    kmax = args.kmax if args.kmax is not None else max(g.n, 1)
    try:
        val = fn(g, kmax)
    except CapacityError as exc:
        raise CliError(str(exc))
    if val is None:
        print(f"RESULT status=exceeds {name}>{kmax}")
        return 1
    print(f"RESULT status=ok {name}={val}")
    return 0


def _cmd_gb(args) -> int:
    if args.b < 1:
        raise CliError(f"-b must be >= 1, got {args.b}")
    g = _load(args.input)
    # build_gb's degree bound skips every pair with an endpoint of degree < b
    pairs = itertools.combinations([v for v in range(g.n) if g.degree(v) >= args.b], 2)
    gb = build_gb(g, args.b, pairs)
    _write(args.output, emit_gr(gb))
    print(f"RESULT status=ok edges={gb.m}")
    return 0


def _random_tcmis(tree_n, k, r, m, seed):
    rnd = random.Random(seed)
    tree_edges = [(i, i + 1) for i in range(tree_n - 1)]
    members = [
        (i, c, s)
        for i in range(tree_n)
        for c in range(1, k + 1)
        for s in range(1, r + 1)
    ]
    edges = set()
    guard = 0
    while len(edges) < m and guard < 1000 * (m + 1):
        guard += 1
        a = rnd.choice(members)
        b = rnd.choice(members)
        if (a[0], a[1]) == (b[0], b[1]) or abs(a[0] - b[0]) > 1:
            continue
        if a > b:
            a, b = b, a
        edges.add((a, b))
    return gadgets.TcmisInstance(tree_n, tree_edges, k, r, sorted(edges))


def _cmd_gen(args) -> int:
    sidecar = []
    p = args.params
    try:
        if args.family == "grid":
            g = families.gen_grid(int(p[0]))
        elif args.family == "wall":
            g = families.gen_wall(int(p[0]))
        elif args.family == "fan":
            g = families.gen_fan(int(p[0]))
        elif args.family == "kbip":
            g = families.gen_complete_bipartite(int(p[0]), int(p[1]))
        elif args.family == "multitree":
            tree = families.random_tree(int(p[0]), args.seed)
            g = families.gen_multiple_tree(tree, int(p[1]))
        elif args.family == "tcmis":
            inst = _random_tcmis(int(p[0]), int(p[1]), int(p[2]), int(p[3]), args.seed)
            gad = gadgets.gen_tcmis_gadget(inst)
            g = gad.h
            sidecar.append(
                {
                    "kind": "tcmis",
                    "L": gad.big_l,
                    "N": gad.big_n,
                    "tree_n": inst.tree_n,
                    "k": inst.k,
                    "r": inst.r,
                    "edges": [[list(a), list(b)] for a, b in inst.edges],
                    "flags": gad.flags,
                }
            )
            for t, vs in enumerate(gad.trunk):
                sidecar.append({"kind": "trunk", "node": t, "vertices": vs})
        elif args.family == "domino":
            if not args.input:
                raise CliError("gen domino needs --input IN.gr")
            host = _load(args.input)
            g, reg = gadgets.gen_domino_reduction(host, int(p[0]))
            sidecar.append(
                {"kind": "domino", "k": reg.k, "d": reg.d, "L": reg.big_l, "M": reg.big_m}
            )
            for v, cv in enumerate(reg.c_v):
                sidecar.append({"kind": "clique", "vertex": v, "vertices": cv})
            for (u, v), ze in sorted(reg.z_e.items()):
                sidecar.append({"kind": "connector", "edge": [u, v], "vertex": ze})
        else:
            raise CliError(f"unknown family {args.family}")
    except (IndexError, ValueError) as exc:
        raise CliError(f"bad parameters for {args.family}: {exc}")
    _write(args.output, emit_gr(g))
    if args.sidecar:
        _write(args.sidecar, emit_jsonl(sidecar))
    print(f"RESULT status=ok n={g.n} m={g.m}")
    return 0


def _cmd_bridge(args) -> int:
    g = _load(args.input)
    if args.from_tcd:
        tcd = _load(args.from_tcd, parse_tcd)
        try:
            g2, _, tp = tcd_to_subdivision_tp(g, tcd)
        except MalformedDecomposition as exc:
            raise CliError(f"{args.from_tcd}: {exc}")
        except ValueError as exc:  # a violation, a non-nice decomposition
            print(f"RESULT status=invalid reason={exc}")
            return 1
        if args.out_gr:
            _write(args.out_gr, emit_gr(g2))
        if args.output:
            _write(args.output, emit_tp(tp, g2.n))
        print(f"RESULT status=ok width={tp.width()}")
        return 0
    tp = _load(args.lift, parse_tp)
    counts = _load(args.counts, parse_counts, g.n) if args.counts else {}
    try:
        out = tp_lift_subdivision(g, tp, counts)
    except MalformedDecomposition as exc:
        raise CliError(f"{args.lift}: {exc}")
    except ValueError as exc:  # a violation, a negative count, a non-edge
        print(f"RESULT status=invalid reason={exc}")
        return 1
    if args.output:
        n2 = g.n + sum(counts.values())
        _write(args.output, emit_tp(out, n2))
    print(f"RESULT status=ok width={out.width()}")
    return 0


def _bench_one(path: Path, k: int):
    g = _load(str(path))
    t0 = time.perf_counter()
    out = run(g, PipelineParams(k=k))
    millis = 1000 * (time.perf_counter() - t0)
    row = {
        "instance": path.name,
        "n": g.n,
        "m": g.m,
        "k": k,
        "status": "accept" if out.accepted else "reject",
        "width": out.width if out.accepted else "",
        "reason": "" if out.accepted else _reject_reason(out.certificate),
        "millis": f"{millis:.1f}",
    }
    fields = {}
    for rec in out.trace:
        for key, val in rec.fields.items():
            fields[f"{rec.step}_{key}"] = val
    w = fields.get("step1_w", 0)
    delta = fields.get("step4_delta_h", g.max_degree())
    row["w"] = w
    row["b"] = fields.get("step2_b", "")
    row["delta_h"] = delta
    row["reference_bound"] = f"{CONSTANTS.bound(w, delta):.1f}"
    for step in ("step1", "step2", "step3", "step4", "step5"):
        val = fields.get(f"{step}_millis", 0.0)
        row[f"{step}_millis"] = f"{val:.1f}"
    return row


def _cmd_bench(args) -> int:
    if min(args.k) < 1:
        raise CliError(f"-k must be >= 1, got {min(args.k)}")
    paths = sorted(Path(args.corpus).glob("*.gr"))
    if not paths:
        raise CliError(f"no .gr files in {args.corpus}")
    rows = [_bench_one(p, k) for p in paths for k in args.k]
    rows.sort(key=lambda r: (r["instance"], r["k"]))
    cols = [
        "instance", "n", "m", "k", "status", "width", "reason", "millis",
        "w", "b", "delta_h", "reference_bound",
        "step1_millis", "step2_millis", "step3_millis", "step4_millis",
        "step5_millis",
    ]
    try:
        with open(args.report, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=cols)
            writer.writeheader()
            writer.writerows(rows)
    except OSError as exc:
        raise CliError(f"cannot write {args.report}: {exc}")
    print(f"RESULT status=ok instances={len(paths)} rows={len(rows)}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="treepart")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="run the construction pipeline")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--step1", default="heur:min-degree")
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.add_argument("--trace")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("verify", help="verify a decomposition file")
    p.add_argument("kind", choices=["tp", "td", "domino", "tcd"])
    p.add_argument("input")
    p.add_argument("decomp")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("exact-tpw", help="exact tree-partition-width")
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("input")
    p.set_defaults(fn=lambda a: _cmd_exact(a, exact_tpw, "tpw"))

    p = sub.add_parser("exact-domino", help="exact domino treewidth")
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("input")
    p.set_defaults(fn=lambda a: _cmd_exact(a, exact_domino_tw, "dtw"))

    p = sub.add_parser("gb", help="auxiliary graph of highly-connected pairs")
    p.add_argument("-b", type=int, required=True)
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_gb)

    p = sub.add_parser("gen", help="generate a named instance")
    p.add_argument(
        "family",
        choices=["grid", "wall", "fan", "kbip", "multitree", "tcmis", "domino"],
    )
    p.add_argument("params", nargs="*")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--input", help="host graph (gen domino)")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--sidecar")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("bridge", help="decomposition/subdivision bridges")
    p.add_argument("input")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--from-tcd", metavar="IN.tcd")
    mode.add_argument("--lift", metavar="IN.tp")
    p.add_argument("--counts")
    p.add_argument("-o", "--output")
    p.add_argument("--out-gr")
    p.set_defaults(fn=_cmd_bridge)

    p = sub.add_parser("bench", help="run the pipeline over a corpus")
    p.add_argument("corpus")
    p.add_argument("-k", type=int, nargs="+", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(fn=_cmd_bench)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
