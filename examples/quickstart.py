"""Quickstart: compile a model with Ramiel and run the generated parallel code.

This walks the full pipeline of the paper on SqueezeNet:

1. build the ONNX-like model graph,
2. report its potential parallelism (Table I metric),
3. run linear clustering + cluster merging,
4. generate readable sequential and parallel Python code,
5. run the code through warm sessions — the single-threaded plan and the
   parallel module on threads (``pool``) and processes (``process``), its
   clustering placed on this host's cores — check every output bitwise
   against the reference interpreter and print the timings.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro import ramiel_compile
from repro.models import build_model
from repro.runtime import create_session


def main() -> None:
    # A reduced-size SqueezeNet keeps this example fast; use
    # build_model("squeezenet") for the full Table-I sized graph.
    model = build_model("squeezenet", variant="small")
    print(f"model: {model.name} with {model.num_nodes} nodes")

    result = ramiel_compile(model)
    summary = result.summary()
    print("\n--- Ramiel pipeline summary -------------------------------")
    for key, value in summary.items():
        print(f"  {key:26s} {value}")

    print("\n--- generated parallel code (first 25 lines) ---------------")
    for line in result.parallel_module.source.splitlines()[:25]:
        print(f"  {line}")

    # Run the generated code on a random input through warm sessions: the
    # first run of each imports the module, sizes the memory slabs and
    # starts the workers, so only the runs after it are timed.
    rng = np.random.default_rng(0)
    inputs = {"input": rng.standard_normal((1, 3, 32, 32)).astype(np.float32)}
    reference = create_session(result, executor="interp").run(inputs)

    print("\n--- execution (warm sessions, median of 5 runs) -------------")
    times = {}
    for executor in ("plan", "pool", "process"):
        with create_session(result, executor=executor) as session:
            outputs = session.run(inputs)
            samples = []
            for _ in range(5):
                start = time.perf_counter()
                outputs = session.run(inputs)
                samples.append(time.perf_counter() - start)
            placement = session.stats().get("placement")  # none for the plan
        for name, ref in reference.items():
            np.testing.assert_array_equal(outputs[name], ref,
                                          err_msg=f"{executor} output {name}")
        times[executor] = statistics.median(samples)
        print(f"  {executor:8s} {times[executor] * 1e3:8.2f} ms  "
              f"{times['plan'] / times[executor]:5.2f}x the plan")
        if placement is not None:
            print(f"           placement: {placement}")
    print(f"  simulator predicted {result.predicted_speedup:.2f}x for the "
          f"{result.num_clusters} compiled clusters")
    print("  every output is bitwise equal to the interpreter's ✓")


if __name__ == "__main__":
    main()
