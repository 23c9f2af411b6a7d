import pytest

from treepart.decomp import TreeCutDecomposition, TreeDecomposition, TreePartition
from treepart.graph import Graph
from treepart.ioformats import (
    MAX_HEADER_SIZE,
    ParseError,
    emit_gr,
    emit_jsonl,
    emit_td,
    emit_tcd,
    emit_tp,
    parse_counts,
    parse_gr,
    parse_jsonl,
    parse_td,
    parse_tcd,
    parse_tp,
)


def test_gr_round_trip():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    text = emit_gr(g)
    assert text == "p tp 4 3\n1 2\n2 3\n3 4\n"
    assert emit_gr(parse_gr(text)) == text


def test_gr_accepts_tw_header_and_comments():
    g = parse_gr("c a comment\np tw 2 1\nc another\n1 2\n")
    assert g.n == 2 and g.m == 1


def test_gr_empty_graph():
    assert parse_gr("p tp 0 0\n").n == 0


def test_gr_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 3"):
        parse_gr("p tp 2 2\n1 2\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_gr("p tp 2 1\n1 2\n1 2\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_gr("p tp 2 1\n1 3\n")
    with pytest.raises(ParseError, match="header"):
        parse_gr("q xx 1 1\n")
    with pytest.raises(ParseError, match="line 2: header size above the cap"):
        parse_gr(f"c big\np tp {MAX_HEADER_SIZE + 1} 0\n")
    with pytest.raises(ParseError):
        parse_gr("")


def test_counts_parse_to_zero_based_pairs():
    text = "c counts\n1 2 3\n\n3 2 0\n2 4 -1\n"
    assert parse_counts(text, 4) == {(0, 1): 3, (2, 1): 0, (1, 3): -1}
    assert parse_counts("", 4) == {}


def test_counts_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2: expected `<u> <v> <count>`"):
        parse_counts("1 2 3\n1 2\n", 4)
    with pytest.raises(ParseError, match="line 1: expected an integer, got 'x'"):
        parse_counts("1 2 x\n", 4)
    with pytest.raises(ParseError, match="line 1: vertex out of range 1..4"):
        parse_counts("0 1 2\n", 4)
    with pytest.raises(ParseError, match="line 1: vertex out of range 1..4"):
        parse_counts("1 5 2\n", 4)
    with pytest.raises(ParseError, match="line 3: pair 2 1 listed twice"):
        parse_counts("1 2 3\nc\n2 1 4\n", 4)
    with pytest.raises(ParseError, match="line 2: pair 1 2 listed twice"):
        parse_counts("1 2 3\n1 2 3\n", 4)


def test_td_round_trip():
    td = TreeDecomposition([[0, 1], [1, 2]], [(0, 1)], root=0)
    text = emit_td(td, 3)
    assert emit_td(parse_td(text), 3) == text


def test_tp_round_trip():
    tp = TreePartition([[0, 3], [1, 2]], [(0, 1)], root=0)
    text = emit_tp(tp, 4)
    parsed = parse_tp(text)
    assert parsed.bags == [[0, 3], [1, 2]]
    assert emit_tp(parsed, 4) == text


def test_tcd_round_trip_with_root_and_empty_bags():
    tcd = TreeCutDecomposition([[0], [], [1]], [(0, 1), (1, 2)], root=2)
    text = emit_tcd(tcd, 1, 2)
    parsed = parse_tcd(text)
    assert parsed.root == 2
    assert parsed.bags == [[0], [], [1]]
    assert emit_tcd(parsed, 1, 2) == text


def test_bagged_format_errors():
    with pytest.raises(ParseError, match="duplicate bag"):
        parse_tp("s tp 1 1 1\nb 1 1\nb 1 1\n")
    with pytest.raises(ParseError, match="empty bag"):
        parse_tp("s tp 1 0 1\nb 1\n")
    with pytest.raises(ParseError, match="out of range"):
        parse_tp("s tp 1 1 1\nb 1 2\n")
    with pytest.raises(ParseError, match="missing root"):
        parse_tcd("s tcd 1 1 1\nb 1 1\n")
    with pytest.raises(ParseError, match="unexpected root"):
        parse_tp("s tp 1 1 1\nr 1\nb 1 1\n")
    for line in ("r", "r 1 2"):
        with pytest.raises(ParseError, match="line 2: expected root line `r <root>`"):
            parse_tcd(f"s tcd 1 1 1\n{line}\nb 1 1\n")
    with pytest.raises(ParseError, match="missing"):
        parse_td("s td 2 1 2\nb 1 1\n")
    with pytest.raises(ParseError, match="line 1: header size above the cap"):
        parse_td(f"s td {MAX_HEADER_SIZE + 1} 1 1\n")
    with pytest.raises(ParseError, match="line 1: header size above the cap"):
        parse_tp(f"s tp 1 1 {MAX_HEADER_SIZE + 1}\nb 1 1\n")


def test_bag_repeating_a_vertex_is_refused():
    with pytest.raises(ParseError, match="line 2: bag 1 repeats a vertex"):
        parse_td("s td 2 2 2\nb 1 1 1 2\nb 2 2\n1 2\n")
    with pytest.raises(ParseError, match="line 3: bag 2 repeats a vertex"):
        parse_tp("s tp 2 1 3\nb 1 1\nb 2 3 3\n1 2\n")


def test_header_size_must_be_the_largest_bag():
    # a .td or .tp header's size field is the largest bag's size
    for text in ("s td 1 5 2\nb 1 1 2\n", "s td 2 1 3\nb 1 1 2\nb 2 3\n1 2\n"):
        with pytest.raises(ParseError, match="line 1: header declares bags of"):
            parse_td(text)
    # the error names the header's line
    with pytest.raises(ParseError, match="line 2: header declares bags of 3, the largest has 2"):
        parse_tp("c a comment\ns tp 2 3 3\nb 1 1 2\nb 2 3\n1 2\n")
    assert parse_td("s td 2 2 3\nb 1 1 2\nb 2 3\n1 2\n").bags == [[0, 1], [2]]
    assert parse_td("s td 0 0 0\n").bags == []
    # a .tcd width is the tree-cut width, not a bag size
    assert parse_tcd("s tcd 1 7 2\nr 1\nb 1 1 2\n").bags == [[0, 1]]


def test_jsonl_round_trip():
    recs = [{"kind": "clique", "ids": [0, 1]}, {"x": 1}]
    assert parse_jsonl(emit_jsonl(recs)) == recs
    with pytest.raises(ParseError, match="line 1"):
        parse_jsonl("{broken\n")
