"""The BLAS thread budget: found, read and pinned per process.

numpy and scipy (in a process that imports it) each load an OpenBLAS copy
with its own thread pool, and the count is process-global.  These tests pin what the runtime promises
about it: both copies are pinned together or not at all, every forked
pool worker computes with one BLAS thread and reports it, and a forked
worker keeps none of its parent's sockets.
"""

from __future__ import annotations

import os
import signal
import socket

import numpy as np
import pytest

import repro.runtime.blas as blas
from repro.models import build_model
from repro.pipeline import ramiel_compile
from repro.runtime.blas import UNMANAGED, blas_threads, pin_blas_threads
from repro.runtime.session import create_session
from repro.runtime.worker_pool import ParallelExecutionError
from repro.serving import example_inputs
from tests.conftest import build_diamond_model, compiled_pool, managed_blas


@pytest.fixture(scope="module")
def squeezenet():
    model = build_model("squeezenet", variant="small")
    return ramiel_compile(model), example_inputs(model, seed=9)


@managed_blas
class TestBlasControls:
    def test_every_loaded_copy_is_controlled(self):
        """Every copy mapped in has controls: numpy's, and scipy's once the
        process imports scipy (the kernels do not; these tests do)."""
        import scipy.special  # noqa: F401 - maps scipy's copy

        controls = blas._controls()
        copies = blas._loaded_copies()
        assert controls is not None and len(controls) == len(copies) >= 1, copies

    def test_pin_sets_every_copy_and_reads_back(self):
        assert pin_blas_threads(1) == 1
        assert blas_threads() == 1
        assert all(get() == 1 for _, get in blas._controls())

    def test_holds_nest_and_the_last_release_restores_the_count(self):
        """Two holders (two engines with forked replicas): the first
        release keeps one thread, the last puts back what the first hold
        found."""
        pin_blas_threads(2)
        assert blas.hold_one_blas_thread() == 1
        assert blas.hold_one_blas_thread() == 1
        assert blas.release_one_blas_thread() == 1
        assert blas.release_one_blas_thread() == 2
        assert blas_threads() == 2

    def test_no_copy_found_is_unmanaged_and_changes_nothing(
            self, monkeypatch):
        before = blas_threads()
        monkeypatch.setattr(blas, "_loaded_copies", lambda: [])
        assert blas_threads() == UNMANAGED
        assert pin_blas_threads(1) == UNMANAGED
        monkeypatch.undo()
        assert blas_threads() == before

    def test_a_copy_without_a_setter_leaves_every_copy_alone(
            self, monkeypatch):
        """Half-pinned would still oversubscribe and make results depend on
        which copy ran a kernel: one uncontrollable copy means none is
        touched."""
        pin_blas_threads(2)
        before = [get() for _, get in blas._controls()]
        first = blas._loaded_copies()[0]
        real = blas._resolve
        monkeypatch.setattr(blas, "_resolve",
                            lambda path: None if path == first else real(path))
        assert pin_blas_threads(1) == UNMANAGED
        monkeypatch.undo()
        assert [get() for _, get in blas._controls()] == before


@managed_blas
class TestWorkerBudget:
    def test_forked_workers_report_one_blas_thread(self, squeezenet, pin_cores):
        result, feed = squeezenet
        pin_blas_threads(2)  # the caller's budget must not leak into workers
        pin_cores(2)
        with create_session(result, executor="process") as session:
            reference = create_session(result, executor="plan").run(feed)
            outputs = session.run(feed)
            rows = session.stats()["pool"]["workers"]
            assert [row["blas_threads"] for row in rows] == [1] * len(rows)
        for name, ref in reference.items():
            np.testing.assert_array_equal(outputs[name], ref)

    def test_a_respawned_worker_pins_itself_again(self, pin_cores):
        """The worker recover() starts in place of a killed one pins itself
        to one BLAS thread like the first, whatever the caller's count."""
        pin_cores(2)
        result = ramiel_compile(build_diamond_model())
        feed = example_inputs(result.model, seed=2)
        pin_blas_threads(2)
        with create_session(result, executor="process") as session:
            before = session.run(feed)
            victim = session.pool._workers[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)
            with pytest.raises(ParallelExecutionError, match="died while idle"):
                session.run(feed)
            session.recover()
            after = session.run(feed)
            rows = session.stats()["pool"]["workers"]
            assert [row["blas_threads"] for row in rows] == [1] * len(rows)
        assert blas_threads() == 2  # the caller's own count is left alone
        for name, ref in before.items():
            np.testing.assert_array_equal(after[name], ref)

    def test_full_googlenet_process_session_is_the_plan_at_one_blas_thread(
            self, pin_cores):
        """The suite runs with no BLAS variable set, so this process
        computes at the host's count while the forked workers compute at
        one thread; googlenet ends in a 1x1024 -> 1000 GEMV whose rounding
        moves with the thread count.  The reference side pins B = 1 and the
        session leaves this process's budget alone."""
        pin_cores(2)
        model = build_model("googlenet")
        result = ramiel_compile(model)
        feed = example_inputs(model, seed=3)
        before = blas_threads()
        with create_session(result, executor="process") as session:
            outputs = session.run(feed)
            assert session.stats()["placement"]["workers"] == 2
        assert blas_threads() == before
        pin_blas_threads(1)
        reference = create_session(result, executor="plan").run(feed)
        assert set(outputs) == set(reference)
        for name, ref in reference.items():
            np.testing.assert_array_equal(outputs[name], ref)

    def test_thread_workers_report_their_process_budget(self):
        result = ramiel_compile(build_diamond_model())
        pin_blas_threads(1)
        with compiled_pool(result, backend="thread") as pool:
            rows = pool.stats()["workers"]
            assert [row["blas_threads"] for row in rows] == \
                [blas_threads()] * pool.num_clusters


class TestForkedWorkers:
    def test_forked_workers_hold_none_of_the_parents_sockets(self):
        """A worker forked while a gateway serves must not keep the
        gateway's connections open: the client would wait for an end of
        file its response never gets."""
        result = ramiel_compile(build_diamond_model())
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        try:
            inode = os.fstat(listener.fileno()).st_ino
            with compiled_pool(result, backend="process") as pool:
                for worker in pool._workers:
                    fd_dir = f"/proc/{worker.pid}/fd"
                    links = [os.readlink(os.path.join(fd_dir, fd))
                             for fd in os.listdir(fd_dir)]
                    assert f"socket:[{inode}]" not in links, links
        finally:
            listener.close()
