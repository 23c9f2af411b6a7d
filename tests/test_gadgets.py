import hashlib
import json

import pytest

from treepart import cli
from treepart.decomp import TreePartition, Violation, verify_domino, verify_tp
from treepart.exact import exact_tpw
from treepart.gadgets import (
    TcmisInstance,
    gen_cluster_gadget,
    gen_domino_reduction,
    gen_tcmis_gadget,
    tcmis_witness_to_partition,
    tp_witness_to_domino,
)
from treepart.graph import Graph
from treepart.ioformats import emit_gr


def triangle():
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


def test_cluster_gadget_layout():
    h = gen_cluster_gadget(triangle(), [0, 1, 2], 4)
    assert h.n == 11
    # new 2L-clique, first half joined to z
    assert h.has_edge(3, 10)
    assert h.has_edge(0, 3) and not h.has_edge(0, 7)
    with pytest.raises(ValueError):
        gen_cluster_gadget(Graph(3, [(0, 1)]), [0, 1, 2], 4)
    with pytest.raises(ValueError):
        gen_cluster_gadget(triangle(), [], 4)
    for big_l in (-1, 0):  # no clique to add
        with pytest.raises(ValueError, match="L must be >= 1"):
            gen_cluster_gadget(Graph(5, [(0, 1)]), [0, 1], big_l)
    for z in ([0, 7], [-1, 0]):
        with pytest.raises(ValueError, match="outside 0..4"):
            gen_cluster_gadget(Graph(5, [(0, 1)]), z, 2)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_gadget_layouts_are_pinned():
    # vertex ids of both reductions and the bags of one witness partition;
    # a builder that allocates ids in another order changes every hash
    gad = gen_tcmis_gadget(cli._random_tcmis(2, 1, 1, 1, 0))
    assert (gad.h.n, gad.h.m) == (3001, 142709)
    assert _sha(emit_gr(gad.h)) == (
        "53cba5a00713d62aae9dc820c3a456fe01189aabf4681b94069055847a76ddab"
    )
    h, _ = gen_domino_reduction(triangle(), 2)
    assert (h.n, h.m) == (408, 450)
    assert _sha(emit_gr(h)) == (
        "50c103dc893668fdedc433da32ce0fd6a6220b8aac4f2a6aaec27ef83ca1757c"
    )
    inst = TcmisInstance(2, [(0, 1)], 1, 2, [((0, 1, 1), (1, 1, 1))])
    res = tcmis_witness_to_partition(gen_tcmis_gadget(inst), {(0, 1): 2, (1, 1): 1})
    assert len(res.tp.bags) == 113 and res.tp.root == 0 and res.overflow == []
    assert _sha(json.dumps(res.tp.bags)) == (
        "cc0d1a67352ea48c9652128f3aa2499750bf8ff457e3027ea566eac9a78e75b1"
    )
    # tree edges as unordered pairs: no reader depends on their orientation
    assert _sha(json.dumps(sorted(sorted(e) for e in res.tp.tree_edges))) == (
        "7d324f053184ce22d35a2c28544d4c43419d03bcf7caac934f15304ee6773cf5"
    )


def test_tcmis_instance_validation():
    with pytest.raises(ValueError):
        TcmisInstance(2, [], 1, 1, []).validate()  # wrong edge count
    with pytest.raises(ValueError):  # degree-4 node is not binary
        TcmisInstance(5, [(0, 1), (0, 2), (0, 3), (0, 4)], 1, 1, []).validate()
    with pytest.raises(ValueError):  # edge between non-adjacent nodes
        TcmisInstance(
            3, [(0, 1), (1, 2)], 1, 1, [((0, 1, 1), (2, 1, 1))]
        ).validate()
    with pytest.raises(ValueError):  # edge within one class
        TcmisInstance(1, [], 1, 2, [((0, 1, 1), (0, 1, 2))]).validate()


def test_tcmis_smallest_instance_dimensions():
    inst = TcmisInstance(1, [], 1, 1, [])
    gad = gen_tcmis_gadget(inst)
    assert gad.big_l == 41
    assert gad.big_n == 1
    assert gad.chain_length() == 8
    assert not gad.flags
    # one original node, its attachment point, the root, two subdivision
    # nodes between them
    assert len(gad.trunk) == 5


def test_tcmis_valid_witness_width():
    inst = TcmisInstance(
        2, [(0, 1)], 1, 2, [((0, 1, 1), (1, 1, 1))]
    )
    gad = gen_tcmis_gadget(inst)
    res = tcmis_witness_to_partition(gad, {(0, 1): 2, (1, 1): 2})
    width = verify_tp(gad.h, res.tp)
    assert not isinstance(width, Violation)
    assert width <= gad.big_l
    assert res.overflow == []


def test_tcmis_violating_witness_overflows_at_checkpoint():
    inst = TcmisInstance(
        2, [(0, 1)], 1, 2, [((0, 1, 1), (1, 1, 1))]
    )
    gad = gen_tcmis_gadget(inst)
    res = tcmis_witness_to_partition(gad, {(0, 1): 1, (1, 1): 1})
    # still a structurally valid partition, just wider at one trunk node
    width = verify_tp(gad.h, res.tp)
    assert not isinstance(width, Violation)
    assert width == gad.big_l + 1
    assert res.overflow == sorted(gad.markers)


def test_tcmis_degree_audit():
    inst = TcmisInstance(3, [(0, 1), (1, 2)], 2, 1, [])
    gad = gen_tcmis_gadget(inst)
    assert gad.h.max_degree() < 5 * inst.k * gad.big_l + 5 * gad.big_l


def test_tcmis_rejects_degenerate_sizes():
    # a full binary cascade covers a trunk node with 7 instance paths,
    # driving its clique size negative
    inst = TcmisInstance(
        7,
        [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)],
        1,
        1,
        [],
    )
    with pytest.raises(ValueError):
        gen_tcmis_gadget(inst)


def test_domino_reduction_counts():
    h, reg = gen_domino_reduction(Graph(2, [(0, 1)]), 1)
    assert (reg.big_l, reg.big_m, h.n) == (2, 3, 21)
    h3, reg3 = gen_domino_reduction(Graph(3, [(0, 1), (1, 2)]), 1)
    assert (reg3.big_l, reg3.big_m, h3.n) == (3, 5, 83)
    _, reg4 = gen_domino_reduction(triangle(), 2)
    assert (reg4.big_l, reg4.big_m) == (5, 14)
    with pytest.raises(ValueError):
        gen_domino_reduction(Graph(3), 1)


def test_domino_witness_conversion():
    g = Graph(2, [(0, 1)])
    h, reg = gen_domino_reduction(g, 1)
    tp = TreePartition([[0], [1]], [(0, 1)], root=0)
    td = tp_witness_to_domino(g, 1, tp, reg)
    w = verify_domino(h, td)
    assert not isinstance(w, Violation)
    assert w <= reg.big_m - 1


def test_domino_witness_conversion_wide_bags():
    g = triangle()
    h, reg = gen_domino_reduction(g, 2)
    tp = TreePartition([[0, 1], [2]], [(0, 1)], root=0)
    td = tp_witness_to_domino(g, 2, tp, reg)
    w = verify_domino(h, td)
    assert not isinstance(w, Violation)
    assert w <= reg.big_m - 1


def test_domino_witness_rejects_wide_partition():
    g = triangle()
    h, reg = gen_domino_reduction(g, 1)
    tp = TreePartition([[0, 1], [2]], [(0, 1)], root=0)  # width 2 > k = 1
    with pytest.raises(ValueError):
        tp_witness_to_domino(g, 1, tp, reg)
