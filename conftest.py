"""Fixtures for every test under this root: ``tests/``, ``benchmarks/`` and
``perflab/test_contract.py``."""

from __future__ import annotations

import pytest


@pytest.fixture(autouse=True)
def fixed_host_profile(monkeypatch):
    """Every test places on one fixed host profile: this process's cores and
    an inflation of 1.0 at any worker count, the paper's dedicated-core
    model, so a placement never depends on what the host's neighbours do.
    Calling the probe itself raises; a test of the probe builds its profile
    on the real :func:`probe_inflation`, imported before this fixture runs.
    """
    from repro.runtime import host

    def no_probe(k, budget_s=host.PROBE_BUDGET_S):
        raise AssertionError(f"a test probed inflation({k}) of the real host")

    monkeypatch.setattr(host, "_PROFILE", host.HostProfile(measure=lambda k: 1.0))
    monkeypatch.setattr(host, "probe_inflation", no_probe)
    return host._PROFILE


@pytest.fixture()
def pin_cores(monkeypatch, fixed_host_profile):
    """``pin_cores(n)``: sessions place onto ``n`` cores and a lane holds up
    to ``n`` replicas, whatever the host has — the host profile's ``cores``,
    the one seam both read."""

    def pin(cores: int) -> None:
        monkeypatch.setattr(fixed_host_profile, "cores", cores)
    return pin
