"""Ramiel code generation: readable, runnable parallel Python.

The paper's distinguishing feature is that it emits *high-level, readable,
executable* Python (one function per cluster, message-passing primitives at
cross-cluster tensor dependences) rather than an opaque compiled artifact.
This package mirrors that:

* :mod:`~repro.codegen.ssa` — SSA-style naming of tensor values,
* :mod:`~repro.codegen.emitter` — indentation-aware source emitter,
* :mod:`~repro.codegen.op_lowering` — per-operator lowering to calls into
  :mod:`repro.runtime.functional` (the stand-in for the paper's PyTorch
  calls), done once per node for both modules,
* :func:`~repro.codegen.sequential_codegen.generate_sequential_module` —
  the single-core reference version Ramiel also emits,
* :func:`~repro.codegen.parallel_codegen.generate_parallel_module` —
  Algorithm 4: one function per cluster with ``queue.put()`` /
  ``queue.get()`` messages on cross-cluster dependences,
* :mod:`~repro.codegen.module_writer` — write generated source as a Python
  module, imported on first use.
"""

from repro.codegen.ssa import SSANamer
from repro.codegen.emitter import CodeEmitter
from repro.codegen.op_lowering import lower_node, LoweringError
from repro.codegen.sequential_codegen import generate_sequential_source, generate_sequential_module
from repro.codegen.parallel_codegen import generate_parallel_source, generate_parallel_module
from repro.codegen.module_writer import GeneratedModule, write_module, load_module

__all__ = [
    "SSANamer",
    "CodeEmitter",
    "lower_node",
    "LoweringError",
    "generate_sequential_source",
    "generate_sequential_module",
    "generate_parallel_source",
    "generate_parallel_module",
    "GeneratedModule",
    "write_module",
    "load_module",
]
