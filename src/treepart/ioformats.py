"""Line-oriented on-disk formats for graphs and decompositions.

All formats are ASCII and 1-indexed on disk (in-memory structures are
0-indexed; this module is the single conversion point).  Lines starting
with `c` are comments.  Emitters are canonical — sorted bags and edge
lists — so emit(parse(x)) is byte-identical on canonical files.

  .gr   graph:                  `p tp <n> <m>` (accepts `p tw`), edge lines
  .td   tree decomposition:     `s td <#bags> <maxbagsize> <n>`, `b` lines,
                                tree-edge lines
  .tp   tree-partition:         `s tp <#bags> <width> <n>`, same body
  .tcd  tree-cut decomposition: `s tcd <#bags> <width> <n>`, `r <root>`,
                                same body (empty bags allowed)

Registry metadata travels in JSON-lines sidecars.
"""

from __future__ import annotations

import json

from .decomp import TreeCutDecomposition, TreeDecomposition, TreePartition
from .graph import Graph


# Largest vertex or bag count a header may declare.  Parsers allocate one
# list entry per declared vertex or bag (a graph at this cap holds about
# 64 MB of empty adjacency lists), and the pure-Python pipeline is out of
# reach well below it.
MAX_HEADER_SIZE = 1_000_000


class ParseError(ValueError):
    def __init__(self, lineno: int, reason: str):
        super().__init__(f"line {lineno}: {reason}")
        self.lineno = lineno
        self.reason = reason


def _content_lines(text: str):
    """(lineno, tokens) for each non-comment, non-blank line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        yield lineno, line.split()


def _int(tok: str, lineno: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(lineno, f"expected an integer, got {tok!r}")


def _check_cap(lineno: int, *sizes) -> None:
    if any(x > MAX_HEADER_SIZE for x in sizes):
        raise ParseError(lineno, f"header size above the cap of {MAX_HEADER_SIZE}")


def parse_gr(text: str) -> Graph:
    n = m = None
    edges = []
    seen = set()
    last = 0
    for lineno, toks in _content_lines(text):
        last = lineno
        if n is None:
            if len(toks) != 4 or toks[0] != "p" or toks[1] not in ("tp", "tw"):
                raise ParseError(lineno, "expected header `p tp <n> <m>`")
            n, m = _int(toks[2], lineno), _int(toks[3], lineno)
            if n < 0 or m < 0:
                raise ParseError(lineno, "negative size in header")
            _check_cap(lineno, n)
            continue
        if len(toks) != 2:
            raise ParseError(lineno, "expected an edge line `<u> <v>`")
        u, v = _int(toks[0], lineno), _int(toks[1], lineno)
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(lineno, f"vertex out of range 1..{n}")
        if u == v:
            raise ParseError(lineno, "self-loop")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ParseError(lineno, f"duplicate edge {u} {v}")
        seen.add(key)
        edges.append((u - 1, v - 1))
    if n is None:
        raise ParseError(last + 1, "missing header")
    if len(edges) != m:
        raise ParseError(last + 1, f"header declares {m} edges, found {len(edges)}")
    return Graph(n, edges)


def parse_counts(text: str, n: int) -> dict:
    """Subdivision counts of an n-vertex graph, `<u> <v> <count>` per line,
    as {(u, v): count} with 0-based ids; a pair may be listed once, in
    either orientation.  Counts and edges are the subdivision's to check."""
    counts = {}
    for lineno, toks in _content_lines(text):
        if len(toks) != 3:
            raise ParseError(lineno, "expected `<u> <v> <count>`")
        u, v, c = (_int(t, lineno) for t in toks)
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(lineno, f"vertex out of range 1..{n}")
        if (u - 1, v - 1) in counts or (v - 1, u - 1) in counts:
            raise ParseError(lineno, f"pair {u} {v} listed twice")
        counts[(u - 1, v - 1)] = c
    return counts


def emit_gr(g: Graph) -> str:
    lines = [f"p tp {g.n} {g.m}"]
    lines += [f"{u + 1} {v + 1}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def _parse_bagged(text: str, kind: str):
    tcd = kind == "tcd"  # only a .tcd may leave a bag empty, and it names its root
    header = None
    root = None
    bags = None
    tree_edges = []
    seen_bags = set()
    seen_edges = set()
    last = 0
    for lineno, toks in _content_lines(text):
        last = lineno
        if header is None:
            if len(toks) != 5 or toks[0] != "s" or toks[1] != kind:
                raise ParseError(lineno, f"expected header `s {kind} <#bags> <width> <n>`")
            nb, width, n = (_int(t, lineno) for t in toks[2:])
            if nb < 0 or n < 0:
                raise ParseError(lineno, "negative size in header")
            _check_cap(lineno, nb, n)
            header = (nb, width, n)
            header_line = lineno
            bags = [None] * nb
            continue
        nb, width, n = header
        if toks[0] == "r":
            if not tcd:
                raise ParseError(lineno, f"unexpected root line in a .{kind} file")
            if root is not None:
                raise ParseError(lineno, "duplicate root line")
            if len(toks) != 2:
                raise ParseError(lineno, "expected root line `r <root>`")
            root = _int(toks[1], lineno)
            if not (1 <= root <= nb):
                raise ParseError(lineno, f"root out of range 1..{nb}")
            continue
        if toks[0] == "b":
            if len(toks) < 2:
                raise ParseError(lineno, "bag line needs an id")
            bid = _int(toks[1], lineno)
            if not (1 <= bid <= nb):
                raise ParseError(lineno, f"bag id out of range 1..{nb}")
            if bid in seen_bags:
                raise ParseError(lineno, f"duplicate bag {bid}")
            seen_bags.add(bid)
            vs = [_int(t, lineno) for t in toks[2:]]
            for v in vs:
                if not (1 <= v <= n):
                    raise ParseError(lineno, f"vertex out of range 1..{n}")
            if not vs and not tcd:
                raise ParseError(lineno, "empty bag")
            bags[bid - 1] = sorted(v - 1 for v in vs)
            if len(set(vs)) < len(vs):
                raise ParseError(lineno, f"bag {bid} repeats a vertex")
            continue
        if len(toks) != 2:
            raise ParseError(lineno, "expected a tree-edge line `<i> <j>`")
        i, j = _int(toks[0], lineno), _int(toks[1], lineno)
        if not (1 <= i <= nb and 1 <= j <= nb):
            raise ParseError(lineno, f"node out of range 1..{nb}")
        key = (min(i, j), max(i, j))
        if i == j or key in seen_edges:
            raise ParseError(lineno, f"bad tree edge {i} {j}")
        seen_edges.add(key)
        tree_edges.append((i - 1, j - 1))
    if header is None:
        raise ParseError(last + 1, "missing header")
    nb, width, n = header
    for bid in range(nb):
        if bags[bid] is None:
            if tcd:
                bags[bid] = []
            else:
                raise ParseError(last + 1, f"bag {bid + 1} missing")
    if tcd and root is None and nb > 0:
        raise ParseError(last + 1, "missing root line")
    largest = max(map(len, bags), default=0)
    if not tcd and width != largest:  # a .tcd width is not a bag size
        raise ParseError(header_line, f"header declares bags of {width}, the largest has {largest}")
    return bags, tree_edges, (root - 1 if root is not None else None), width, n


def parse_td(text: str) -> TreeDecomposition:
    bags, edges, _, _, _ = _parse_bagged(text, "td")
    return TreeDecomposition(bags, edges, root=0 if bags else None)


def parse_tp(text: str) -> TreePartition:
    bags, edges, _, _, _ = _parse_bagged(text, "tp")
    return TreePartition(bags, edges, root=0 if bags else None)


def parse_tcd(text: str) -> TreeCutDecomposition:
    bags, edges, root, _, _ = _parse_bagged(text, "tcd")
    return TreeCutDecomposition(bags, edges, root=root if root is not None else 0)


def _emit_bagged(kind, bags, tree_edges, width, n, root=None) -> str:
    lines = [f"s {kind} {len(bags)} {width} {n}"]
    if root is not None:
        lines.append(f"r {root + 1}")
    for i, bag in enumerate(bags):
        lines.append(" ".join(["b", str(i + 1)] + [str(v + 1) for v in sorted(bag)]))
    for i, j in sorted((min(i, j), max(i, j)) for i, j in tree_edges):
        lines.append(f"{i + 1} {j + 1}")
    return "\n".join(lines) + "\n"


def _host_n(bags) -> int:
    return max((max(b) + 1 for b in bags if b), default=0)


def emit_td(td: TreeDecomposition, n: int | None = None) -> str:
    width = max((len(b) for b in td.bags), default=0)
    return _emit_bagged("td", td.bags, td.tree_edges, width, n if n is not None else _host_n(td.bags))


def emit_tp(tp: TreePartition, n: int | None = None) -> str:
    width = max((len(b) for b in tp.bags), default=0)
    return _emit_bagged("tp", tp.bags, tp.tree_edges, width, n if n is not None else _host_n(tp.bags))


def emit_tcd(tcd: TreeCutDecomposition, width: int, n: int | None = None) -> str:
    return _emit_bagged(
        "tcd", tcd.bags, tcd.tree_edges, width,
        n if n is not None else _host_n(tcd.bags), root=tcd.root,
    )


def emit_jsonl(records) -> str:
    """One JSON object per line, keys sorted."""
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def parse_jsonl(text: str):
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            out.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ParseError(lineno, f"bad JSON record: {exc}") from exc
    return out
