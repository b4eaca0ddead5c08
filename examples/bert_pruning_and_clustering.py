"""BERT: constant propagation + DCE before clustering (Table III / VI scenario).

Exported transformer graphs carry hundreds of shape-manipulation nodes
(Shape/Gather/Concat chains for the attention-head reshapes, decomposed
LayerNorm constants) whose inputs are entirely static.  This example shows
what the paper's Section III-C does for BERT:

1. build the BERT encoder graph,
2. prune it with constant propagation + dead-code elimination,
3. compare cluster counts and predicted speedups before and after pruning,
4. generate the parallel code for the pruned graph and verify it still
   computes the same outputs as the unpruned sequential reference.

Run with::

    python examples/bert_pruning_and_clustering.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.speedup import ExperimentConfig, cluster_model
from repro.models import build_model
from repro.passes import optimize_model
from repro.pipeline import ramiel_compile
from repro.runtime import create_session, execute_model


def main() -> None:
    # Reduced BERT (2 layers) so the example runs in seconds; the full
    # 12-layer graph is what the benchmarks use.
    model = build_model("bert", variant="small")
    print(f"model: {model.name} with {model.num_nodes} nodes")

    # --- pruning --------------------------------------------------------
    pruned, stats = optimize_model(model)
    print("\n--- constant propagation + dead-code elimination -------------")
    print(f"  nodes before: {stats['nodes_before']}")
    print(f"  nodes after:  {stats['nodes_after']}  "
          f"({stats['nodes_removed']} removed in one sweep: {stats['per_pass']})")

    # --- clustering before vs after pruning ------------------------------
    config = ExperimentConfig()
    unpruned_clusters = cluster_model(model, config)
    pruned_clusters = cluster_model(pruned, config)
    sim = config.simulator()
    s_unpruned = sim.simulate(unpruned_clusters)
    s_pruned = sim.simulate(pruned_clusters)
    # Both parallel variants are compared against the same (unpruned)
    # sequential baseline, as in Table VI.
    seq_time = s_unpruned.sequential_time
    print("\n--- clustering --------------------------------------------------")
    print(f"  clusters (LC, unpruned): {unpruned_clusters.num_clusters}  "
          f"predicted speedup {seq_time / s_unpruned.makespan:.2f}x")
    print(f"  clusters (LC + CP/DCE):  {pruned_clusters.num_clusters}  "
          f"predicted speedup {seq_time / s_pruned.makespan:.2f}x")

    # --- run the generated code -----------------------------------------
    result = ramiel_compile(model, prune=True)
    rng = np.random.default_rng(1)
    seq_len = model.graph.inputs[0].shape[1]
    inputs = {"input_ids": rng.integers(0, 200, size=(1, seq_len)).astype(np.int64)}

    reference = execute_model(model, inputs)          # unpruned interpreter
    with create_session(result, executor="pool") as session:
        parallel_out = session.run(inputs)
        placement = session.stats()["placement"]
    for name, ref in reference.items():
        assert np.allclose(ref, parallel_out[name], atol=1e-3), \
            f"pruned parallel output {name} diverges from the unpruned reference"
    print(f"\n  placement: {placement}")
    print("  pruned parallel outputs match the unpruned reference ✓")
    print(f"  generated parallel module: {result.parallel_module.path}")


if __name__ == "__main__":
    main()
