import itertools
from pathlib import Path

from treepart import cli
from treepart.cli import main
from treepart.ioformats import MAX_HEADER_SIZE, emit_gr, parse_gr, parse_jsonl, parse_tp
from treepart.families import gen_grid, random_graph
from treepart.separators import build_gb
from treepart.graph import Graph


def write_gr(tmp_path, name, g):
    p = tmp_path / name
    p.write_text(emit_gr(g))
    return str(p)


def test_decompose_accept_and_verify(tmp_path, capsys):
    src = write_gr(tmp_path, "g.gr", gen_grid(3))
    out = str(tmp_path / "g.tp")
    trace = str(tmp_path / "g.trace")
    assert main(["decompose", "-k", "3", src, "-o", out, "--trace", trace]) == 0
    captured = capsys.readouterr().out
    assert "RESULT status=accept width=" in captured
    assert main(["verify", "tp", src, out]) == 0
    records = parse_jsonl(Path(trace).read_text())
    assert [r["step"] for r in records] == [f"step{i}" for i in range(1, 6)]
    assert records[2]["h_n"] == 9


def test_decompose_accepts_a_long_cycle(tmp_path, capsys):
    n = 6000
    src = write_gr(tmp_path, "c.gr", Graph(n, [(i, (i + 1) % n) for i in range(n)]))
    assert main(["decompose", "-k", "2", src]) == 0
    assert "RESULT status=accept" in capsys.readouterr().out


def test_decompose_reject_exit_code(tmp_path, capsys):
    k5 = Graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    src = write_gr(tmp_path, "k5.gr", k5)
    assert main(["decompose", "-k", "1", src]) == 1
    assert "status=reject reason=treewidth-lb" in capsys.readouterr().out


def test_decompose_invalid_import_exit_2(tmp_path, capsys):
    src = write_gr(tmp_path, "c8.gr", Graph(8, [(i, (i + 1) % 8) for i in range(8)]))
    td = tmp_path / "bad.td"
    # two bags that leave vertices 7 and 8 (1-indexed) uncovered
    td.write_text("s td 2 4 8\nb 1 1 2 3 4\nb 2 5 6\n1 2\n")
    assert main(["decompose", "-k", "2", "--step1", f"import:{td}", src]) == 2
    captured = capsys.readouterr()
    assert "vertex-coverage" in captured.err
    assert "RESULT" not in captured.out


def test_repeated_bag_vertex_and_wrong_header_size_exit_2(tmp_path, capsys):
    src = write_gr(tmp_path, "p2.gr", Graph(2, [(0, 1)]))
    repeated = tmp_path / "repeated.td"
    repeated.write_text("s td 2 2 2\nb 1 1 1 2\nb 2 2\n1 2\n")
    oversized = tmp_path / "oversized.td"
    oversized.write_text("s td 1 5 2\nb 1 1 2\n")
    for bad, reason in ((repeated, "line 2: bag 1 repeats a vertex"), (oversized, "line 1: header declares bags of 5")):
        for argv in (["verify", "td", src, str(bad)], ["decompose", "-k", "1", "--step1", f"import:{bad}", src]):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.err.startswith(f"error: {bad}: {reason}"), argv
            assert "RESULT" not in captured.out, argv


def test_decompose_exact_over_capacity_exit_2(tmp_path, capsys):
    # 16 vertices exceed the exact search's cap of 15
    src = write_gr(tmp_path, "grid4.gr", gen_grid(4))
    out = tmp_path / "g.tp"
    assert main(["decompose", "--step1", "exact", "-k", "3", src, "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "exceeds cap 15" in captured.err
    assert "RESULT" not in captured.out and not out.exists()


def test_verify_invalid_exit_code(tmp_path, capsys):
    src = write_gr(tmp_path, "p3.gr", Graph(3, [(0, 1), (1, 2)]))
    bad = tmp_path / "bad.tp"
    # edge 1-2 of the path joins bags 1 and 3, which are not tree-adjacent
    bad.write_text("s tp 3 1 3\nb 1 1\nb 2 3\nb 3 2\n1 2\n2 3\n")
    assert main(["verify", "tp", src, str(bad)]) == 1
    assert "status=invalid" in capsys.readouterr().out


def test_verify_malformed_decomposition_exit_2(tmp_path, capsys):
    src = write_gr(tmp_path, "g.gr", gen_grid(3))
    outside = tmp_path / "outside.td"
    # the bag names vertex 12 of a 9-vertex graph
    outside.write_text("s td 1 3 12\nb 1 1 2 12\n")
    forest = tmp_path / "forest.tp"
    # two bags and no tree edge
    forest.write_text("s tp 2 5 9\nb 1 1 2 3 4 5\nb 2 6 7 8 9\n")
    for kind, bad in (("td", outside), ("domino", outside), ("tp", forest)):
        assert main(["verify", kind, src, str(bad)]) == 2, kind
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad}: "), kind
        assert "RESULT" not in captured.out, kind


def test_usage_and_io_errors_exit_2(tmp_path, capsys):
    assert main(["decompose", "-k", "1", str(tmp_path / "missing.gr")]) == 2
    bad = tmp_path / "bad.gr"
    bad.write_text("p tp 1 5\n")
    assert main(["exact-tpw", str(bad)]) == 2
    bad.write_text(f"p tp {MAX_HEADER_SIZE + 1} 0\n")
    assert main(["decompose", "-k", "1", str(bad)]) == 2


def test_out_of_range_numbers_exit_2(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    src = write_gr(corpus, "c5.gr", Graph(5, [(i, (i + 1) % 5) for i in range(5)]))
    out = str(tmp_path / "out.gr")
    report = tmp_path / "rep.csv"
    for argv in (
        ["gb", "-b", "0", src, "-o", out],
        ["gb", "-b", "-1", src, "-o", out],
        ["bench", str(corpus), "-k", "0", "--report", str(report)],
        ["bench", str(corpus), "-k", "2", "0", "--report", str(report)],
        ["exact-tpw", "--kmax", "-1", src],
        ["exact-domino", "--kmax", "-2", src],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: "), argv
        assert "RESULT" not in captured.out, argv
    assert not Path(out).exists() and not report.exists()
    # zero is a width bound, not an error
    assert main(["exact-tpw", "--kmax", "0", src]) == 1
    assert "RESULT status=exceeds tpw>0" in capsys.readouterr().out


def test_exact_subcommands(tmp_path, capsys):
    src = write_gr(tmp_path, "c5.gr", Graph(5, [(i, (i + 1) % 5) for i in range(5)]))
    assert main(["exact-tpw", src]) == 0
    assert "tpw=2" in capsys.readouterr().out
    assert main(["exact-domino", src]) == 0
    assert "dtw=3" in capsys.readouterr().out
    assert main(["exact-tpw", "--kmax", "1", src]) == 1


def test_gb_subcommand(tmp_path, capsys):
    src = write_gr(tmp_path, "c4.gr", Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
    out = str(tmp_path / "gb.gr")
    assert main(["gb", "-b", "2", src, "-o", out]) == 0
    assert parse_gr(Path(out).read_text()).edges() == [(0, 2), (1, 3)]


def test_gb_lists_only_pairs_of_degree_at_least_b(tmp_path, capsys, monkeypatch):
    # a star's leaves have degree 1, so at -b 2 no pair reaches build_gb
    seen = []

    def recording(g, b, pairs):
        pairs = list(pairs)
        seen.append(pairs)
        return build_gb(g, b, pairs)

    monkeypatch.setattr(cli, "build_gb", recording)
    src = write_gr(tmp_path, "star.gr", Graph(301, [(0, i) for i in range(1, 301)]))
    out = tmp_path / "gb.gr"
    assert main(["gb", "-b", "2", src, "-o", str(out)]) == 0
    assert seen == [[]]
    assert parse_gr(out.read_text()).m == 0


def test_gb_output_equals_all_pairs(tmp_path, capsys):
    for i in range(30):
        g = random_graph(8 + i % 13, (0.15, 0.3, 0.5)[i % 3], 500 + i)
        src = write_gr(tmp_path, "r.gr", g)
        for b in (1, 2, 3, 4):
            out = tmp_path / "gb.gr"
            assert main(["gb", "-b", str(b), src, "-o", str(out)]) == 0
            want = build_gb(g, b, itertools.combinations(range(g.n), 2))
            assert out.read_text() == emit_gr(want), (i, b)


def test_gen_families(tmp_path):
    out = str(tmp_path / "w.gr")
    assert main(["gen", "wall", "4", "-o", out]) == 0
    assert parse_gr(Path(out).read_text()).n == 16
    assert main(["gen", "kbip", "3", "5", "-o", out]) == 0
    assert parse_gr(Path(out).read_text()).m == 15
    import pytest

    with pytest.raises(SystemExit) as exc:
        main(["gen", "bogus", "1", "-o", out])
    assert exc.value.code == 2


def test_gen_domino_with_sidecar(tmp_path):
    src = write_gr(tmp_path, "k2.gr", Graph(2, [(0, 1)]))
    out = str(tmp_path / "d.gr")
    side = str(tmp_path / "d.jsonl")
    assert main(["gen", "domino", "1", "--input", src, "-o", out, "--sidecar", side]) == 0
    assert parse_gr(Path(out).read_text()).n == 21
    recs = parse_jsonl(Path(side).read_text())
    assert recs[0]["kind"] == "domino" and recs[0]["M"] == 3


def test_bridge_subcommand(tmp_path, capsys):
    src = write_gr(tmp_path, "k2.gr", Graph(2, [(0, 1)]))
    tcd = tmp_path / "k2.tcd"
    tcd.write_text("s tcd 2 1 2\nr 1\nb 1 1\nb 2 2\n1 2\n")
    out = str(tmp_path / "out.tp")
    gr2 = str(tmp_path / "out.gr")
    assert main(["bridge", src, "--from-tcd", str(tcd), "-o", out, "--out-gr", gr2]) == 0
    assert main(["verify", "tp", gr2, out]) == 0

    tp = tmp_path / "k2.tp"
    tp.write_text("s tp 2 1 2\nb 1 1\nb 2 2\n1 2\n")
    counts = tmp_path / "counts.txt"
    counts.write_text("1 2 3\n")
    lifted = str(tmp_path / "lifted.tp")
    lifted_gr = str(tmp_path / "lifted.gr")
    assert main(
        ["bridge", src, "--lift", str(tp), "--counts", str(counts), "-o", lifted, "--out-gr", lifted_gr]
    ) == 0
    # the subdivided graph, a path on 2 + 3 vertices, holds the lifted partition
    assert parse_gr(Path(lifted_gr).read_text()).n == 5
    assert main(["verify", "tp", lifted_gr, lifted]) == 0
    # bags: {0}, {1, penultimate}, and one folded bag for the remaining two
    out_tp = parse_tp(Path(lifted).read_text())
    assert len(out_tp.bags) == 3
    assert max(len(b) for b in out_tp.bags) == 2


def test_empty_pair_commands_report_width_0(tmp_path, capsys):
    src = write_gr(tmp_path, "e.gr", Graph(0, []))
    tcd = tmp_path / "e.tcd"
    tcd.write_text("s tcd 0 0 0\n")
    tp = tmp_path / "e.tp"
    tp.write_text("s tp 0 0 0\n")
    for argv, result in (
        (["verify", "tcd", src, str(tcd)], "RESULT status=valid width=0 nice=1"),
        (["bridge", src, "--from-tcd", str(tcd)], "RESULT status=ok width=0"),
        (["bridge", src, "--lift", str(tp)], "RESULT status=ok width=0"),
    ):
        assert main(argv) == 0, argv
        assert capsys.readouterr().out.strip() == result, argv


def test_bridge_lift_counts_errors(tmp_path, capsys):
    src = write_gr(tmp_path, "p3.gr", Graph(3, [(0, 1), (1, 2)]))
    tp = tmp_path / "p3.tp"
    tp.write_text("s tp 1 3 3\nb 1 1 2 3\n")
    counts = tmp_path / "counts.txt"
    lifted = tmp_path / "lifted.tp"
    argv = ["bridge", src, "--lift", str(tp), "--counts", str(counts), "-o", str(lifted)]
    for text, reason in (
        ("1 2 x\n", "line 1: expected an integer"),
        ("1 2 3\n2 1 4\n", "line 2: pair 2 1 listed twice"),
        ("0 1 2\n", "line 1: vertex out of range 1..3"),
        ("1 2\n", "line 1: expected `<u> <v> <count>`"),
    ):
        counts.write_text(text)
        assert main(argv) == 2, text
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {counts}: {reason}"), text
        assert "RESULT" not in captured.out and not lifted.exists(), text
    # well-formed but refused by the subdivision
    for text in ("1 2 -1\n", "1 3 2\n"):
        counts.write_text(text)
        assert main(argv) == 1, text
        assert "RESULT status=invalid" in capsys.readouterr().out, text
        assert not lifted.exists(), text


def test_bridge_malformed_decomposition_exit_2(tmp_path, capsys):
    src = write_gr(tmp_path, "g.gr", gen_grid(3))
    outside = tmp_path / "outside.tp"
    # a 12-vertex header against the 9-vertex grid; bag 2 names vertex 12
    outside.write_text("s tp 2 5 12\nb 1 1 2 3 4 5\nb 2 6 7 8 9 12\n1 2\n")
    forest = tmp_path / "forest.tp"
    forest.write_text("s tp 2 5 9\nb 1 1 2 3 4 5\nb 2 6 7 8 9\n")
    forest_tcd = tmp_path / "forest.tcd"
    forest_tcd.write_text("s tcd 2 5 9\nr 1\nb 1 1 2 3 4 5\nb 2 6 7 8 9\n")
    out = tmp_path / "out.tp"
    for flag, bad, reason in (
        ("--lift", outside, "bag 1 mentions vertex 11 outside 0..8"),
        ("--lift", forest, "tree must have 1 edges, got 0"),
        ("--from-tcd", forest_tcd, "tree must have 1 edges, got 0"),
    ):
        assert main(["bridge", src, flag, str(bad), "-o", str(out)]) == 2, bad
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad}: {reason}"), bad
        assert "RESULT" not in captured.out and not out.exists(), bad
    # a well-formed partition that violates edge locality stays a verdict
    path = write_gr(tmp_path, "p3.gr", Graph(3, [(0, 1), (1, 2)]))
    bad = tmp_path / "bad.tp"
    bad.write_text("s tp 3 1 3\nb 1 1\nb 2 3\nb 3 2\n1 2\n2 3\n")
    assert main(["bridge", path, "--lift", str(bad), "-o", str(out)]) == 1
    assert "RESULT status=invalid reason=invalid tree-partition: edge-locality" in (
        capsys.readouterr().out
    )
    assert not out.exists()


def test_bridge_tcd_root_line_needs_one_root_exit_2(tmp_path, capsys):
    src = write_gr(tmp_path, "g.gr", gen_grid(3))
    bad = tmp_path / "bad.tcd"
    out = tmp_path / "out.gr"
    for line in ("r", "r 1 2"):
        bad.write_text(f"s tcd 1 9 9\n{line}\nb 1 1 2 3 4 5 6 7 8 9\n")
        assert main(["bridge", src, "--from-tcd", str(bad), "-o", str(out)]) == 2, line
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad}: line 2: expected root line `r <root>`"), line
        assert "RESULT" not in captured.out and not out.exists(), line


def test_unparsable_decomposition_files_are_named(tmp_path, capsys):
    src = write_gr(tmp_path, "g.gr", gen_grid(3))
    cases = []
    for name, flag in (("bad.td", "--step1"), ("bad.tp", "--lift"), ("bad.tcd", "--from-tcd")):
        bad = tmp_path / name
        bad.write_text("no header here\n")
        if flag == "--step1":
            cases.append((bad, ["decompose", "-k", "2", "--step1", f"import:{bad}", src]))
        else:
            cases.append((bad, ["bridge", src, flag, str(bad)]))
    cases.append((tmp_path / "bad.td", ["verify", "td", src, str(tmp_path / "bad.td")]))
    for bad, argv in cases:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad}: line 1: expected header"), argv
        assert "RESULT" not in captured.out, argv


def test_bench_report(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_gr(corpus, "a.gr", Graph(3, [(0, 1), (1, 2)]))
    write_gr(corpus, "b.gr", gen_grid(3))
    report = tmp_path / "rep.csv"
    assert main(["bench", str(corpus), "-k", "1", "3", "--report", str(report)]) == 0
    lines = Path(report).read_text().splitlines()
    assert lines[0].startswith("instance,n,m,k,status")
    assert "reference_bound" in lines[0]
    assert len(lines) == 5
    # rows sorted by instance then k
    names = [ln.split(",")[0] for ln in lines[1:]]
    assert names == sorted(names)


def test_bench_bad_corpus_files_exit_2(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_gr(corpus, "a.gr", Graph(3, [(0, 1), (1, 2)]))
    (corpus / "x.gr").mkdir()
    report = tmp_path / "rep.csv"
    assert main(["bench", str(corpus), "-k", "1", "--report", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot read ") and "x.gr" in captured.err
    (corpus / "x.gr").rmdir()
    (corpus / "bad.gr").write_text("p tw 5 5\n1 2\n")
    assert main(["bench", str(corpus), "-k", "1", "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {corpus / 'bad.gr'}: line ") and "5 edges" in err
    assert not report.exists()
