"""Placement end to end: the compiled clustering is machine-independent, a
pool-backed session folds it onto the cores of the host it runs on.

The core count is pinned through the host profile's ``cores`` (the one
seam placement reads) and its inflation is the fixed 1.0 every test runs
under, so every assertion here holds on any host.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import build_model
from repro.pipeline import ramiel_compile
from repro.runtime import host
from repro.runtime.blas import blas_threads, pin_blas_threads
from repro.runtime.host import HostProfile
from repro.runtime.session import create_session
from repro.serving import example_inputs

#: perflab's ``exec_b1`` models
MODELS = ["squeezenet", "googlenet", "inception_v3", "bert", "nasnet"]


@pytest.fixture(scope="module")
def compiled():
    artifacts = {}
    for name in MODELS:
        model = build_model(name, variant="small")
        result = ramiel_compile(model)
        feed = example_inputs(model, seed=5)
        with create_session(result, executor="interp") as interp:
            artifacts[name] = (result, feed, interp.run(feed))
    return artifacts


def test_profile_cores_are_what_the_process_may_run_on(monkeypatch):
    import os

    assert HostProfile().cores == len(os.sched_getaffinity(0)) >= 1
    # macOS / Windows have no affinity mask: the machine's count stands in
    monkeypatch.delattr(os, "sched_getaffinity")
    assert HostProfile().cores == os.cpu_count()


@pytest.mark.parametrize("executor", ["pool", "process"])
@pytest.mark.parametrize("cores", [1, 2, 12])
@pytest.mark.parametrize("name", MODELS)
def test_placed_sessions_match_interp_bitwise(compiled, pin_cores, name, cores, executor):
    result, feed, reference = compiled[name]
    pin_cores(cores)
    with create_session(result, executor=executor) as session:
        for _ in range(2):
            outputs = session.run(feed)
            assert set(outputs) == set(reference)
            for key, ref in reference.items():
                np.testing.assert_array_equal(np.asarray(outputs[key]), np.asarray(ref))
        stats = session.stats()
    placed = stats["placement"]
    assert placed["clusters"] == result.num_clusters
    assert placed["cores"] == cores
    assert placed["workers"] == stats["pool_clusters"] == len(stats["pool"]["workers"])
    assert 1 <= placed["workers"] <= min(cores, result.num_clusters)
    if placed["workers"] > 1:
        assert placed["predicted_speedup"] > 1.0
    if executor == "process":
        assert stats["pool"]["channels"]["overflow_puts"] == 0


def test_two_cores_never_start_a_predicted_loss(pin_cores):
    """ROADMAP 2b: squeezenet's two clusters are predicted 0.83x of the
    sequential run, so it gets one worker; nasnet's nine fold onto two."""
    pin_cores(2)
    squeezenet = ramiel_compile(build_model("squeezenet"))
    assert squeezenet.num_clusters == 2
    assert round(squeezenet.placement(2).predicted_speedup, 2) == 0.83
    with create_session(squeezenet, executor="pool") as session:
        placed = session.stats()["placement"]
        assert (placed["clusters"], placed["workers"], placed["cores"]) == (2, 1, 2)
        assert session.pool.module.CHANNEL_NAMES == []  # nothing crosses a worker
    nasnet = ramiel_compile(build_model("nasnet"))
    assert nasnet.num_clusters == 9
    placed = nasnet.placement(2)
    assert placed.clustering.num_clusters == 2 and placed.predicted_speedup > 1.0
    assert (len(placed.clustering.cross_cluster_edges())
            < len(nasnet.clustering.cross_cluster_edges()))


def test_enough_cores_run_the_compiled_module_itself(compiled, pin_cores):
    """With a core per cluster nothing is folded and nothing regenerated: the
    session runs ``result.parallel_module`` — unless the compiled clustering
    itself is a predicted loss, which no core count rescues."""
    pin_cores(12)
    for name in MODELS:
        result, _, _ = compiled[name]
        placed = result.placement(12)
        if result.predicted_speedup > 1.0:
            assert placed.module is result.parallel_module
            assert placed.clustering is result.clustering
            with create_session(result, executor="pool") as session:
                assert session.pool.module is result.parallel_module.module
                assert session.stats()["pool_clusters"] == result.num_clusters
        else:
            assert placed.clustering.num_clusters == 1
    assert {n for n in MODELS if compiled[n][0].predicted_speedup <= 1.0} \
        == {"squeezenet", "bert"}  # the small variants; full-size bert spreads


def test_placement_leaves_the_compiled_artifact_alone(compiled):
    """Placing is memoised per worker count, shared by both pool executors,
    and never touches what ``ramiel_compile`` returned."""
    result, feed, reference = compiled["nasnet"]
    source = result.parallel_module.source
    clustering, schedule = result.clustering, result.schedule
    two = result.placement(2)
    assert result.placement(2) is two
    assert two.module is not result.parallel_module
    assert two.module.module.NUM_CLUSTERS == 2
    # more cores than clusters is the same placement as exactly enough
    assert result.placement(64) is result.placement(result.num_clusters)
    assert result.parallel_module.source == source
    assert result.clustering is clustering and result.schedule is schedule
    for key, ref in result.run_parallel(feed).items():  # still one worker per cluster
        np.testing.assert_array_equal(np.asarray(ref), np.asarray(reference[key]))


def test_hyperclustered_artifact_places_its_batch_one_clustering(pin_cores):
    """``result.clustering`` of a batch > 1 compile spans a replicated graph;
    the parallel module, and so the placement, is per sample."""
    pin_cores(2)
    model = build_model("inception_v3", variant="small")
    result = ramiel_compile(model, batch_size=2)
    feed = example_inputs(model, seed=1)
    with create_session(result, executor="interp") as interp:
        reference = interp.run(feed)
    assert result.clustering_merged is not result.clustering
    assert result.clustering_merged.num_clusters == 6
    with create_session(result, executor="pool") as session:
        placement = session.stats()["placement"]
        assert (placement["clusters"], placement["workers"]) == (6, 2)
        for key, ref in session.run(feed).items():
            np.testing.assert_array_equal(np.asarray(ref), np.asarray(reference[key]))


@pytest.mark.parametrize("argv", [
    ["run", "nasnet", "--variant", "small", "--backend", "thread", "--repeats", "1"],
    ["trace", "nasnet", "--variant", "small", "--executor", "process",
     "--runs", "1", "--warmup", "1"],
])
def test_cli_prints_the_placement_line(argv, pin_cores, capsys, tmp_path):
    from repro.cli import main as cli_main

    pin_cores(2)
    if argv[0] == "trace":
        argv = argv + ["-o", str(tmp_path / "trace.json")]
    assert cli_main(argv) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("placement: ")]
    assert lines == ["placement: 8 clusters -> 2 workers (2 cores), "
                     "predicted 1.45x = simulated 1.45x / inflation 1.00"]


#: worker counts of the full-size zoo at two cores under the paper's
#: dedicated-core model (inflation 1.0), as placed before the host profile
ZOO_WORKERS_AT_TWO = {"squeezenet": 1, "googlenet": 2, "inception_v3": 2,
                      "inception_v4": 2, "yolo_v5": 2, "retinanet": 2,
                      "bert": 2, "nasnet": 2}


@pytest.fixture(scope="module")
def full_size():
    """perflab's ``exec_b1`` models at full size, with interp references
    computed at one BLAS thread (what a forked worker computes with)."""
    before = blas_threads()
    pin_blas_threads(1)
    artifacts = {}
    try:
        for name in MODELS:
            model = build_model(name)
            result = ramiel_compile(model)
            feed = example_inputs(model, seed=5)
            with create_session(result, executor="interp") as interp:
                artifacts[name] = (result, feed, interp.run(feed))
    finally:
        if before != "unmanaged":
            pin_blas_threads(before)
    return artifacts


def test_an_inflation_of_one_keeps_every_zoo_worker_count(pin_cores):
    from repro.models import list_models

    pin_cores(2)
    counts = {}
    for name in list_models():
        placed = ramiel_compile(build_model(name)).placement(2)
        assert placed.inflation == 1.0
        assert placed.predicted_speedup == placed.simulated_speedup
        counts[name] = placed.clustering.num_clusters
    assert counts == ZOO_WORKERS_AT_TWO


@pytest.mark.parametrize("executor", ["pool", "process"])
def test_an_inflation_of_two_places_every_exec_b1_model_on_one_worker(
        full_size, monkeypatch, executor):
    """Two workers that each compute at half speed win nowhere in the zoo
    (nasnet's 1.53x is the best simulated spread), so every model runs on
    one worker, bitwise the interpreter."""
    monkeypatch.setattr(host, "_PROFILE", HostProfile(cores=2, measure=lambda k: 2.0))
    pin_blas_threads(1)
    for name in MODELS:
        result, feed, reference = full_size[name]
        with create_session(result, executor=executor) as session:
            outputs = session.run(feed)
            placed = session.stats()["placement"]
        assert (placed["workers"], placed["cores"], placed["inflation"]) == (1, 2, 2.0)
        assert placed["simulated_speedup"] == result.placement(2).simulated_speedup
        assert placed["predicted_speedup"] == placed["simulated_speedup"] / 2.0 <= 1.0
        assert set(outputs) == set(reference)
        for key, ref in reference.items():
            np.testing.assert_array_equal(np.asarray(outputs[key]), np.asarray(ref))
