"""Subdivision bridges and the on-disk formats.

Run with:  python demos/bridges_and_formats.py
"""

from treepart import (
    Graph,
    TreeCutDecomposition,
    TreePartition,
    tcd_to_subdivision_tp,
    tp_lift_subdivision,
    verify_tcd,
    verify_tp,
)
from treepart.ioformats import emit_gr, emit_tp, parse_gr


def lowering_demo():
    # a path with one vertex per node is a nice tree-cut decomposition
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    tcd = TreeCutDecomposition(
        [[v] for v in range(5)], [(i, i + 1) for i in range(4)], root=0
    )
    width, nice = verify_tcd(g, tcd)
    print(f"tree-cut width {width}, nice={nice}")
    g2, smap, tp = tcd_to_subdivision_tp(g, tcd)
    print(f"subdivided to {g2.n} vertices; partition width "
          f"{verify_tp(g2, tp)} (bound {2 + width * (width + 2) // 2 + width})")
    print()


def lift_demo():
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    tp = TreePartition([[0, 3], [1, 2]], [(0, 1)], root=0)
    counts = {e: 2 for e in c4.edges()}
    g2, _, lifted = tp_lift_subdivision(c4, tp, counts)
    print(f"lifted C_4 partition across a double subdivision: width "
          f"{verify_tp(g2, lifted)} (bound {2 * 3})")
    print()


def format_demo():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    text = emit_gr(g)
    print("canonical .gr for P_4:")
    print(text, end="")
    assert parse_gr(text).edges() == g.edges()
    tp = TreePartition([[0, 1], [2, 3]], [(0, 1)], root=0)
    print("matching .tp:")
    print(emit_tp(tp, g.n), end="")


if __name__ == "__main__":
    lowering_demo()
    lift_demo()
    format_demo()
