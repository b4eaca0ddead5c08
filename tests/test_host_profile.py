"""The host profile: ``cores`` read at once, ``inflation(k)`` probed lazily,
once per process per ``k``, never for one worker or on a one-core host.

Every other test runs under the fixed profile of the root ``conftest.py``;
the one test of the real probe builds its profile on the real function,
imported here before that fixture replaces it.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time

from repro.models import build_model
from repro.pipeline import ramiel_compile
from repro.runtime import host
from repro.runtime.host import PROBE_BUDGET_S, HostProfile, probe_inflation
from repro.runtime.session import create_session


def test_the_profile_measures_each_worker_count_once():
    calls = []
    profile = HostProfile(cores=4, measure=lambda k: calls.append(k) or 1.5 * k)
    assert profile.inflation(1) == 1.0
    assert [profile.inflation(2) for _ in range(3)] == [3.0] * 3
    assert profile.inflation(4) == 6.0
    assert calls == [2, 4]


def test_more_workers_than_cores_time_share_them(monkeypatch):
    measured = []

    def probe(k, budget_s=PROBE_BUDGET_S):
        measured.append(k)
        return 1.25

    monkeypatch.setattr(host, "probe_inflation", probe)
    profile = HostProfile(cores=2)
    assert profile.inflation(6) == 1.25 * 6 / 2
    assert profile.inflation(2) == 1.25
    assert measured == [2]


def test_a_one_core_profile_never_calls_the_probe(monkeypatch):
    """The fixture's probe raises, so any call would fail this test."""
    profile = HostProfile(cores=1)
    assert profile.inflation(1) == 1.0
    assert profile.inflation(3) == 3.0
    monkeypatch.setattr(host, "_PROFILE", profile)
    nasnet = ramiel_compile(build_model("nasnet", variant="small"))
    with create_session(nasnet, executor="pool") as session:
        placed = session.stats()["placement"]
    assert (placed["cores"], placed["workers"], placed["inflation"]) == (1, 1, 1.0)
    assert nasnet.placement(2).clustering.num_clusters == 1  # 1.45x / 2.0


def test_one_worker_never_probes(monkeypatch):
    """A serving replica is ``placement(1)``: the real host's profile (its
    probe raising) serves it, and only ``cores`` is read."""
    monkeypatch.setattr(host, "_PROFILE", HostProfile())
    result = ramiel_compile(build_model("googlenet", variant="small"))
    assert result.placement(1).clustering.num_clusters == 1
    with create_session(result, executor="process", cores=1) as session:
        assert session.stats()["placement"]["inflation"] == 1.0


def test_the_profile_is_built_on_first_use_not_at_import():
    code = ("import repro, repro.pipeline, repro.runtime.session, "
            "repro.serving\n"
            "from repro.runtime import host\n"
            "assert host._PROFILE is None\n"
            "assert host.host_profile() is host.host_profile()\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_the_real_probe_runs_once_per_k_forks_k_children_within_budget(monkeypatch):
    forks, calls = [], []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    def counted(k, budget_s=PROBE_BUDGET_S):
        calls.append(k)
        start = time.perf_counter()
        ratio = probe_inflation(k, budget_s)
        calls.append(time.perf_counter() - start)
        return ratio

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(host, "probe_inflation", counted)
    profile = HostProfile(cores=2)
    ratio = profile.inflation(2)
    assert profile.inflation(2) == ratio and profile.inflation(1) == 1.0
    assert math.isfinite(ratio) and ratio > 0
    assert len(forks) == 2
    assert calls[0] == 2 and len(calls) == 2
    assert calls[1] <= PROBE_BUDGET_S
