"""Experiment harness: speedups of LC and its optimizations for one model.

This module is the programmatic backbone of the benchmark suite: it wires
together the pruning passes, cloning, linear clustering, merging,
hyperclustering and the schedule simulator, and produces per-model speedup
breakdowns in the shape of the paper's Tables IV, VI and VII and
Figs. 12-14.

Two evaluation modes are provided:

* **simulated** (default) — deterministic schedule simulation with the
  static cost model (or a measured cost provider), which is how the
  benchmark tables are regenerated on arbitrary hardware;
* **measured** — actually generate the sequential and parallel Python code,
  execute both with the repro runtime (the parallel code placed on this
  host's cores) and compare wall-clock times (:func:`measured_speedup`);
  used by ``ramiel run`` and the integration tests on reduced-size models.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, Mapping, Optional

import numpy as np

from repro.clustering import (
    ScheduleSimulator,
    SimulationConfig,
    build_hyperclusters,
    build_switched_hyperclusters,
    clone_cheap_producers,
    linear_clustering,
    merge_clusters_fixpoint,
)
from repro.clustering.cluster import Clustering
from repro.clustering.schedule import intra_op_node_scale
from repro.graph.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.graph.dataflow import model_to_dataflow
from repro.ir.model import Model
from repro.passes import optimize_model


@dataclasses.dataclass
class ExperimentConfig:
    """Configuration shared by all experiments of one benchmark run."""

    num_cores: int = 12
    message_latency: float = 4.0
    per_cluster_overhead: float = 20.0
    cost_model: CostModel = dataclasses.field(default_factory=lambda: DEFAULT_COST_MODEL)
    intra_op_parallel_fraction: float = 0.7

    def simulator(self, num_threads: int = 1) -> ScheduleSimulator:
        """A simulator for the given intra-op thread count."""
        scale = intra_op_node_scale(num_threads, self.intra_op_parallel_fraction)
        return ScheduleSimulator(SimulationConfig(
            num_cores=self.num_cores,
            message_latency=self.message_latency,
            per_cluster_overhead=self.per_cluster_overhead,
            node_scale=scale,
        ))


@dataclasses.dataclass
class SpeedupBreakdown:
    """Speedups of the different optimization levels for one model (Table VII row)."""

    model_name: str
    clusters_lc: int
    clusters_after_dce: Optional[int]
    s_lc: float
    s_lc_dce: Optional[float]
    s_lc_clone: Optional[float]

    @property
    def s_overall(self) -> float:
        """Best speedup across the optimization levels (Table VII's S_Overall)."""
        candidates = [self.s_lc]
        if self.s_lc_dce is not None:
            candidates.append(self.s_lc_dce)
        if self.s_lc_clone is not None:
            candidates.append(self.s_lc_clone)
        return max(candidates)

    def as_row(self) -> dict:
        """Table-VII-shaped row."""
        return {
            "model": self.model_name,
            "s_lc": round(self.s_lc, 2),
            "s_lc_dce": None if self.s_lc_dce is None else round(self.s_lc_dce, 2),
            "s_lc_clone": None if self.s_lc_clone is None else round(self.s_lc_clone, 2),
            "s_overall": round(self.s_overall, 2),
        }


@dataclasses.dataclass
class ModelExperiment:
    """All artifacts of one model's LC experiment (used by several tables)."""

    model_name: str
    clustering_lc: Clustering
    clustering_merged: Clustering
    seq_time: float
    par_time: float
    compile_time_s: float

    @property
    def speedup(self) -> float:
        """LC speedup vs sequential (Table IV's column)."""
        return self.seq_time / self.par_time if self.par_time > 0 else 1.0

    def as_table4_row(self) -> dict:
        """Table-IV-shaped row."""
        return {
            "model": self.model_name,
            "clusters": self.clustering_merged.num_clusters,
            "seq_time": round(self.seq_time, 1),
            "par_time": round(self.par_time, 1),
            "speedup": round(self.speedup, 2),
        }


def cluster_model(model: Model, config: Optional[ExperimentConfig] = None) -> Clustering:
    """LC + merging for a model (no pruning, no cloning)."""
    config = config or ExperimentConfig()
    dfg = model_to_dataflow(model, cost_model=config.cost_model)
    return merge_clusters_fixpoint(linear_clustering(dfg))


def run_lc_experiment(
    model: Model,
    config: Optional[ExperimentConfig] = None,
    cost_provider: Optional[Mapping[str, float]] = None,
    num_threads: int = 1,
) -> ModelExperiment:
    """Sequential vs LC-parallel comparison for one model (Table IV)."""
    config = config or ExperimentConfig()
    start = time.perf_counter()
    dfg = model_to_dataflow(model, cost_model=config.cost_model)
    lc = linear_clustering(dfg)
    merged = merge_clusters_fixpoint(lc)
    compile_time = time.perf_counter() - start

    sim = config.simulator(num_threads=num_threads)
    result = sim.simulate(merged, cost_provider=cost_provider)
    return ModelExperiment(
        model_name=model.name,
        clustering_lc=lc,
        clustering_merged=merged,
        seq_time=result.sequential_time,
        par_time=result.makespan,
        compile_time_s=compile_time,
    )


def run_full_experiment(
    model: Model,
    config: Optional[ExperimentConfig] = None,
    apply_dce: bool = True,
    apply_cloning: bool = True,
    cost_provider: Optional[Mapping[str, float]] = None,
) -> SpeedupBreakdown:
    """LC, LC+CP/DCE and LC+cloning speedups for one model (Tables VI & VII).

    The sequential reference time is always that of the *unoptimized* model:
    the paper's speedups compare each optimized parallel configuration
    against the same sequential implementation.
    """
    config = config or ExperimentConfig()
    sim = config.simulator()

    base = run_lc_experiment(model, config, cost_provider=cost_provider)
    seq_time = base.seq_time

    s_lc_dce = None
    clusters_after_dce = None
    if apply_dce:
        optimized, stats = optimize_model(model)
        if stats["nodes_removed"] > 0:
            pruned_clustering = cluster_model(optimized, config)
            clusters_after_dce = pruned_clustering.num_clusters
            pruned_result = sim.simulate(pruned_clustering, cost_provider=cost_provider)
            s_lc_dce = seq_time / pruned_result.makespan if pruned_result.makespan > 0 else 1.0

    s_lc_clone = None
    if apply_cloning:
        cloned, report = clone_cheap_producers(model, cost_model=config.cost_model)
        if report.clones_created > 0:
            cloned_clustering = cluster_model(cloned, config)
            cloned_result = sim.simulate(cloned_clustering, cost_provider=cost_provider)
            s_lc_clone = seq_time / cloned_result.makespan if cloned_result.makespan > 0 else 1.0

    return SpeedupBreakdown(
        model_name=model.name,
        clusters_lc=base.clustering_merged.num_clusters,
        clusters_after_dce=clusters_after_dce,
        s_lc=base.speedup,
        s_lc_dce=s_lc_dce,
        s_lc_clone=s_lc_clone,
    )


def hypercluster_speedups(
    model: Model,
    batch_sizes,
    config: Optional[ExperimentConfig] = None,
    switched: bool = False,
    num_threads: int = 1,
) -> Dict[int, float]:
    """Hyperclustering speedups vs sequential for several batch sizes (Figs. 13-14)."""
    config = config or ExperimentConfig()
    merged = cluster_model(model, config)
    sim = config.simulator(num_threads=num_threads)
    out: Dict[int, float] = {}
    for batch in batch_sizes:
        if batch <= 1:
            result = sim.simulate(merged)
        else:
            builder = build_switched_hyperclusters if switched else build_hyperclusters
            hc = builder(merged, batch)
            result = sim.simulate(hc)
        out[int(batch)] = result.speedup
    return out


def measured_speedup(
    model: Model,
    inputs: Mapping[str, np.ndarray],
    backend: str = "thread",
    repeats: int = 3,
    config: Optional[ExperimentConfig] = None,
) -> Dict[str, object]:
    """Compile (the default pipeline, pruning included), generate sequential +
    parallel code and measure real wall-clock speedup.

    The parallel side is a warm ``pool`` (``backend="thread"``) or
    ``process`` session, i.e. the clustering placed on the cores of this
    host; ``"placement"`` in the result is the session's
    ``stats()["placement"]``.  Intended for the reduced-size model variants
    (examples / integration tests); the benchmark tables use the simulator
    for determinism.
    """
    from repro.pipeline import PipelineConfig, ramiel_compile  # imports this module
    from repro.runtime.process_runtime import time_callable
    from repro.runtime.session import create_session

    config = config or ExperimentConfig()
    result = ramiel_compile(model, config=PipelineConfig(
        cost_model=config.cost_model,
        num_cores=config.num_cores, message_latency=config.message_latency,
        per_cluster_overhead=config.per_cluster_overhead))
    seq_time, seq_out = time_callable(lambda: result.run_sequential(inputs),
                                      repeats=repeats)
    with create_session(result, executor="pool" if backend == "thread"
                        else "process") as session:
        par_time, par_out = time_callable(lambda: session.run(inputs),
                                          repeats=repeats)
        placement = session.stats()["placement"]

    max_abs_err = 0.0
    for name, ref in seq_out.items():
        max_abs_err = max(max_abs_err, float(np.max(np.abs(np.asarray(ref, dtype=np.float64)
                                                           - np.asarray(par_out[name], dtype=np.float64)))))
    return {
        "seq_time_s": seq_time,
        "par_time_s": par_time,
        "speedup": seq_time / par_time if par_time > 0 else 1.0,
        "num_clusters": result.num_clusters,
        "max_abs_err": max_abs_err,
        "placement": placement,
    }
