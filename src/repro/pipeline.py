"""The Ramiel end-to-end pipeline (Fig. 10).

``ONNX-like model -> [CP+DCE pruning] -> [cloning] -> Model2Graph ->
distance pass -> linear clustering -> cluster merging ->
[hyperclustering] -> parallel + sequential code generation``

:func:`ramiel_compile` runs the whole pipeline and returns a
:class:`RamielResult` bundling the clusterings, the generated modules, the
schedule prediction and compile-time statistics — everything the examples,
tests and benchmarks need.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from typing import Dict, Mapping, Optional

import numpy as np

from repro.analysis.speedup import ExperimentConfig
from repro.clustering import (
    build_hyperclusters,
    build_switched_hyperclusters,
    clone_cheap_producers,
    linear_clustering,
    merge_clusters_fixpoint,
)
from repro.clustering.cluster import Clustering
from repro.clustering.placement import fold_onto_workers
from repro.clustering.schedule import ScheduleResult, ScheduleSimulator, SimulationConfig
from repro.clustering.validation import validate_clustering
from repro.codegen import GeneratedModule, generate_parallel_module, write_module
from repro.codegen.op_lowering import LoweredModel
from repro.codegen.parallel_codegen import parallel_source
from repro.codegen.sequential_codegen import sequential_source
from repro.graph.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.graph.dataflow import DataflowGraph, model_to_dataflow
from repro.graph.parallelism import ParallelismReport, parallelism_and_distances
from repro.ir.model import Model
from repro.passes import follow_batch, optimize_model
from repro.runtime.plan import ExecutionPlan


@dataclasses.dataclass
class PipelineConfig:
    """Configuration of one Ramiel compilation."""

    #: apply constant propagation + dead-code elimination before clustering
    #: (either way the nodes follow a fused batch: ``passes.follow_batch``)
    prune: bool = True
    #: apply restricted task cloning before clustering
    clone: bool = False
    #: inference batch size; > 1 triggers hyperclustering
    batch_size: int = 1
    #: use switched (load-balanced) hyperclusters when batch_size > 1
    switched_hyperclusters: bool = False
    #: generate code (can be disabled for analysis-only runs)
    generate_code: bool = True
    #: directory for the generated modules (temporary when omitted)
    output_dir: Optional[str] = None
    #: static cost model
    cost_model: CostModel = dataclasses.field(default_factory=lambda: DEFAULT_COST_MODEL)
    #: schedule-simulation parameters
    num_cores: int = 12
    message_latency: float = 4.0
    per_cluster_overhead: float = 20.0
    #: validate clustering invariants before code generation
    validate: bool = True


@dataclasses.dataclass
class Placement:
    """A compiled clustering placed on one machine: one cluster per worker.

    The compiler's output is machine-independent; this is the step between
    it and the workers, made on the machine that runs
    (:meth:`RamielResult.placement`).
    """

    #: the clustering the workers execute (``clustering.num_clusters`` workers)
    clustering: Clustering
    #: its parallel module — the compiled one when nothing was folded;
    #: imported when a session starts the workers
    module: GeneratedModule
    #: simulated speedup of spreading over the cores offered; at or below
    #: 1.0 the placement is a single worker instead
    predicted_speedup: float


@dataclasses.dataclass
class RamielResult:
    """Everything produced by one run of the Ramiel pipeline."""

    model: Model
    optimized_model: Model
    dataflow_graph: DataflowGraph
    parallelism: ParallelismReport
    clustering_lc: Clustering
    #: the merged batch-1 clustering ``parallel_module`` is generated from —
    #: ``clustering`` itself unless that was hyperclustered
    clustering_merged: Clustering
    clustering: Clustering
    schedule: ScheduleResult
    sequential_module: Optional[GeneratedModule]
    parallel_module: Optional[GeneratedModule]
    compile_time_s: float
    stage_times_s: Dict[str, float]
    pruning_stats: Optional[dict]
    cloning_report: Optional[object]
    #: built by :meth:`plan` on its first call
    execution_plan: Optional[ExecutionPlan] = None
    #: the simulator parameters ``schedule`` was predicted with
    simulation: SimulationConfig = dataclasses.field(default_factory=SimulationConfig)
    _placements: Dict[int, Placement] = dataclasses.field(
        default_factory=dict, init=False, repr=False, compare=False)

    @property
    def predicted_speedup(self) -> float:
        """Speedup predicted by the schedule simulation."""
        return self.schedule.speedup

    @property
    def num_clusters(self) -> int:
        """Number of clusters after merging (and hyperclustering)."""
        return self.clustering.num_clusters

    def run_sequential(self, inputs: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Execute the generated sequential module standalone (every
        intermediate allocated)."""
        if self.sequential_module is None:
            raise RuntimeError("pipeline was run with generate_code=False")
        return self.sequential_module.run(dict(inputs),
                                          dict(self.optimized_model.graph.initializers))

    def run_parallel(self, inputs: Mapping[str, np.ndarray],
                     backend: str = "thread") -> Dict[str, np.ndarray]:
        """Execute the compiled ``parallel_module`` once, one ``backend``
        worker (``"thread"`` or ``"process"``) per cluster.

        A correctness entry, not a timer: it checks the code the compiler
        generated, unplaced, and builds and reaps a whole
        :class:`~repro.runtime.worker_pool.WarmExecutorPool` per call.  To
        time or serve the parallel code, run a ``pool`` or ``process``
        session, which places the clustering on this host's cores and
        keeps its workers warm.
        """
        from repro.runtime.worker_pool import WarmExecutorPool

        if self.parallel_module is None:
            raise RuntimeError("pipeline was run with generate_code=False")
        with WarmExecutorPool(self.parallel_module,
                              self.optimized_model.graph.initializers,
                              backend=backend) as pool:
            return pool.run(inputs)

    def placement(self, cores: int) -> Placement:
        """Place the compiled clustering on a machine with ``cores`` cores.

        The clustering is folded onto ``min(clusters, cores)`` workers
        (:func:`~repro.clustering.placement.fold_onto_workers`) and the fold
        simulated with one core per worker; a fold predicted not to beat the
        sequential run is replaced by a single worker — a predicted loss is
        never parallelised.  Code is generated only for a placement that
        differs from the compiled clustering (or when the compile generated
        none, ``generate_code=False``), once per worker count, so the
        ``pool`` and ``process`` sessions of an artifact share it — and a
        serving lane's one-worker replicas (``placement(1)``) generate just
        the one-worker module, on first use.
        """
        # Hyperclusters span a replicated graph; code is generated per
        # sample, so it is the merged batch-1 clustering that is placed.
        compiled = self.clustering_merged
        workers = max(1, min(compiled.num_clusters, cores))
        placed = self._placements.get(workers)
        if placed is None:
            folded = fold_onto_workers(compiled, workers)
            simulator = ScheduleSimulator(
                dataclasses.replace(self.simulation, num_cores=workers))
            predicted = simulator.simulate(folded).speedup
            if predicted <= 1.0 and workers > 1:
                single = self.placement(1)
                placed = Placement(single.clustering, single.module, predicted)
            else:
                module = (self.parallel_module
                          if folded is compiled and self.parallel_module is not None
                          else generate_parallel_module(self.optimized_model, folded))
                placed = Placement(folded, module, predicted)
            self._placements[workers] = placed
        return placed

    def plan(self) -> ExecutionPlan:
        """The compiled artifact's execution plan, built on the first call
        and cached in ``execution_plan``; a compile does not build it.

        The plan renders the generated sequential module's text itself.
        Raises :class:`~repro.runtime.plan.PlanError` when the numpy runtime
        cannot execute the optimized model."""
        if self.execution_plan is None:
            self.execution_plan = ExecutionPlan(self.optimized_model)
        return self.execution_plan

    def session(self, executor: str = "plan", timeout_s: float = 300.0):
        """A :class:`~repro.runtime.session.Session` over this artifact.

        The unified execution surface: ``session().run(feed)`` executes a
        feed and ``session().bind()`` gives the IOBinding zero-alloc hot
        path.  ``executor`` is any name from
        :func:`repro.runtime.session.known_executors`.
        """
        from repro.runtime.session import create_session

        return create_session(self, executor=executor, timeout_s=timeout_s)

    def summary(self) -> dict:
        """Compact summary used by the CLI and the examples."""
        return {
            "model": self.model.name,
            "nodes": self.optimized_model.num_nodes,
            "potential_parallelism": round(self.parallelism.parallelism, 2),
            "clusters_before_merging": self.clustering_lc.num_clusters,
            "clusters": self.clustering.num_clusters,
            "predicted_speedup": round(self.predicted_speedup, 2),
            "compile_time_s": round(self.compile_time_s, 3),
        }


# ---------------------------------------------------------------------------
# Artifact fingerprinting (used by the serving layer's compiled-artifact cache)
# ---------------------------------------------------------------------------
#: metadata key under which a computed model fingerprint is memoized.
_FINGERPRINT_METADATA_KEY = "ramiel.fingerprint"


def model_fingerprint(model: Model) -> str:
    """Stable content hash of a model: graph structure plus a weights digest.

    Two models with identical nodes, attributes, input/output signatures and
    initializer contents produce the same fingerprint, regardless of object
    identity.  The result is memoized in ``model.metadata`` because serving
    computes it on every request; callers that mutate a graph in place after
    fingerprinting must drop the ``"ramiel.fingerprint"`` metadata key.
    """
    cached = model.metadata.get(_FINGERPRINT_METADATA_KEY)
    if cached:
        return cached

    digest = hashlib.sha256()
    digest.update(model.name.encode())
    digest.update(str(model.opset_version).encode())
    graph = model.graph
    for node in graph.nodes:
        digest.update(json.dumps(node.to_dict(), sort_keys=True, default=str).encode())
    for info in list(graph.inputs) + list(graph.outputs):
        digest.update(json.dumps(info.to_dict(), sort_keys=True, default=str).encode())
    for name in sorted(graph.initializers):
        array = graph.initializers[name]
        digest.update(name.encode())
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(np.ascontiguousarray(array).tobytes())

    fingerprint = digest.hexdigest()
    model.metadata[_FINGERPRINT_METADATA_KEY] = fingerprint
    return fingerprint


def config_fingerprint(config: PipelineConfig) -> str:
    """Stable hash of the compilation-relevant fields of a :class:`PipelineConfig`.

    ``output_dir`` and ``generate_code`` are deliberately
    excluded: they change where/whether artifacts are materialized but not
    what is compiled, so artifacts compiled under different output
    directories can share a cache entry.  The cost model participates through its ``repr`` — two configs
    with behaviourally identical but differently-ordered cost tables hash
    differently, which only costs a spurious cache miss, never a wrong hit.
    """
    payload = repr((
        config.prune,
        config.clone,
        config.batch_size,
        config.switched_hyperclusters,
        config.num_cores,
        config.message_latency,
        config.per_cluster_overhead,
        config.validate,
        repr(config.cost_model),
    ))
    return hashlib.sha256(payload.encode()).hexdigest()


class RamielPipeline:
    """Object-oriented wrapper over :func:`ramiel_compile` (Fig. 10's tool)."""

    def __init__(self, config: Optional[PipelineConfig] = None) -> None:
        self.config = config or PipelineConfig()

    def compile(self, model: Model) -> RamielResult:
        """Run the full pipeline on a model."""
        return ramiel_compile(model, config=self.config)


def ramiel_compile(model: Model, config: Optional[PipelineConfig] = None,
                   **overrides) -> RamielResult:
    """Run the Ramiel pipeline on an IR model.

    ``overrides`` are applied on top of ``config`` (or the defaults), e.g.
    ``ramiel_compile(model, batch_size=4, clone=True)``.
    """
    if config is None:
        config = PipelineConfig(**overrides)
    elif overrides:
        config = dataclasses.replace(config, **overrides)

    stage_times: Dict[str, float] = {}
    total_start = time.perf_counter()

    # 1. Optional pruning (CP + DCE: one forward and one backward sweep);
    #    without it the nodes are still made to follow a fused batch.
    pruning_stats = None
    if config.prune:
        start = time.perf_counter()
        optimized, pruning_stats = optimize_model(model)
        stage_times["prune"] = time.perf_counter() - start
    else:
        optimized = follow_batch(model)

    # 2. Optional restricted cloning.
    cloning_report = None
    if config.clone:
        start = time.perf_counter()
        optimized, cloning_report = clone_cheap_producers(optimized,
                                                          cost_model=config.cost_model)
        stage_times["clone"] = time.perf_counter() - start

    # 3. Model2Graph conversion + distance pass + potential parallelism.
    start = time.perf_counter()
    dfg = model_to_dataflow(optimized, cost_model=config.cost_model)
    parallelism, distance_to_end = parallelism_and_distances(dfg)
    stage_times["graph"] = time.perf_counter() - start

    # 4. Linear clustering + merging.
    start = time.perf_counter()
    lc = linear_clustering(dfg, distance_to_end=distance_to_end)
    merged = merge_clusters_fixpoint(lc)
    stage_times["clustering"] = time.perf_counter() - start

    # 5. Optional hyperclustering for batch sizes > 1.
    clustering = merged
    if config.batch_size > 1:
        start = time.perf_counter()
        builder = (build_switched_hyperclusters if config.switched_hyperclusters
                   else build_hyperclusters)
        clustering = builder(merged, config.batch_size)
        stage_times["hyperclustering"] = time.perf_counter() - start

    if config.validate:
        validate_clustering(clustering)

    # 6. Schedule prediction.
    start = time.perf_counter()
    simulation = SimulationConfig(
        num_cores=config.num_cores,
        message_latency=config.message_latency,
        per_cluster_overhead=config.per_cluster_overhead,
    )
    schedule = ScheduleSimulator(simulation).simulate(clustering)
    stage_times["simulate"] = time.perf_counter() - start

    # 7. Code generation (sequential + parallel), batch-size-1 graphs only:
    #    hyperclusters describe replicated graphs whose code generation would
    #    require replicated inputs; the paper also generates code per sample.
    #    One LoweredModel names every value and renders every node once;
    #    both modules print its node blocks, the sequential one in the
    #    topological order an ExecutionPlan of the model follows.  The
    #    modules are written, not imported: that, like building the plan
    #    (RamielResult.plan), is paid on first use.
    sequential_module = None
    parallel_module = None
    if config.generate_code:
        start = time.perf_counter()
        lowered = LoweredModel(optimized)
        sequential_module = write_module(sequential_source(lowered),
                                         f"{optimized.name}_sequential", config.output_dir)
        parallel_module = write_module(parallel_source(lowered, merged),
                                       f"{optimized.name}_parallel", config.output_dir)
        stage_times["codegen"] = time.perf_counter() - start

    compile_time = time.perf_counter() - total_start
    return RamielResult(
        model=model,
        optimized_model=optimized,
        dataflow_graph=dfg,
        parallelism=parallelism,
        clustering_lc=lc,
        clustering_merged=merged,
        clustering=clustering,
        schedule=schedule,
        sequential_module=sequential_module,
        parallel_module=parallel_module,
        compile_time_s=compile_time,
        stage_times_s=stage_times,
        pruning_stats=pruning_stats,
        cloning_report=cloning_report,
        simulation=simulation,
    )
