"""Walk through the five-step pipeline on a few instructive inputs.

Run with:  python demos/pipeline_walkthrough.py

Each step's trace record prints as the JSON object that `treepart
decompose --trace FILE` writes on one line of FILE.
"""

import json

from treepart import (
    Graph,
    PipelineParams,
    gen_complete_bipartite,
    gen_fan,
    random_graph,
    run,
    verify_tp,
)


def show(name, g, k):
    out = run(g, PipelineParams(k=k))
    print(f"--- {name} (n={g.n}, m={g.m}, k={k}) ---")
    for rec in out.trace:
        print(" ", json.dumps({"step": rec.step, **rec.fields}, sort_keys=True))
    if out.accepted:
        print(f"  accepted: width {out.width}, verified {verify_tp(g, out.tp)}")
    else:
        print(f"  rejected: {out.certificate}")
    print()


def main():
    # a sparse random graph: accepted with a modest width
    show("sparse random", random_graph(40, 0.06, seed=5), k=3)

    # a cycle needs two vertices per bag, so k = 1 is certifiably impossible
    c6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    show("C_6 at k=1", c6, k=1)
    show("C_6 at k=2", c6, k=2)

    # three pairwise highly-connected vertices exceed k = 2: the auxiliary
    # graph of 4-connected pairs has a component of size 3
    show("K_{3,6} at k=2", gen_complete_bipartite(3, 6), k=2)

    # the fan's apex survives the quotient with a degree above the block
    # threshold, the third rejection flavor
    show("fan_7 at k=2", gen_fan(7), k=2)


if __name__ == "__main__":
    main()
