"""``ramiel bench compare BASE``: perflab's paired protocol, committed.

The median of one perflab workload moves by 10-40 % between two sessions
of the same code on the same machine, so a number is only comparable with
one measured beside it.  This module measures a base commit against the
working tree the one way that holds up here: :data:`PAIRS` pairs per
workload, strictly one process at a time, each side running its own
unchanged ``perflab/run.py --workload W --seed S`` from its own checkout,
both runs of a pair on one seed, and the side that runs first alternating.

For every end-to-end metric ``BENCHMARK.json`` declares it reports the two
medians, their ratio, the base's interquartile range, the change's wins
and a :func:`verdict`, and it writes every run to ``BENCH_<workload>.json``
at the root of the checkout, beside ``nproc`` and the host profile the
comparison ran on (``host``: its ``cores`` and its K = 2 concurrency
inflation, :mod:`repro.runtime.host`).  Those files are committed: the
performance history of the repository is ``git log -p -- 'BENCH_*.json'``,
and the verdicts they record re-derive from the runs they list
(:func:`summarize`).

The base is checked out with ``git worktree add --detach`` under the
ignored ``.perflab_out/`` and removed again however the comparison ends.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.runtime.host import host_profile

#: pairs per workload: the fewest at which "nine tenths of the pairs" can
#: be asked for
PAIRS = 10
#: pair i runs seed FIRST_SEED + i on both sides
FIRST_SEED = 101
#: a perflab run is its measurement window plus set-ups, well under this
RUN_TIMEOUT_S = 600

_CU_HEADER = re.compile(r"\bcu=([0-9.]+) ms")

#: (checkout root, workload, seed) -> the run's standard output
Runner = Callable[[str, str, int], str]


def run_git(root: str, *args: str) -> str:
    """``git -C root *args``; its standard output, stripped."""
    return subprocess.run(["git", "-C", root, *args], check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def perflab_run(root: str, workload: str, seed: int) -> str:
    """Run the checkout's own ``perflab/run.py`` on one workload and seed."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # each side imports its own src/
    done = subprocess.run(
        [sys.executable, os.path.join("perflab", "run.py"),
         "--workload", workload, "--seed", str(seed)],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        timeout=RUN_TIMEOUT_S, check=False)
    return done.stdout


def parse_run(stdout: str) -> Dict:
    """A perflab run's calibration header (``cu=... ms``) and result line."""
    lines = stdout.strip().splitlines()
    header = _CU_HEADER.search(stdout)
    try:
        final = json.loads(lines[-1])
    except (IndexError, ValueError):
        final = None
    if header is None or not isinstance(final, dict):
        tail = "\n".join(lines[-20:])
        raise RuntimeError(f"perflab printed no result:\n{tail}")
    return {"cu_ms": float(header.group(1)),
            "attempted": final["attempted"], "failed": final["failed"],
            "metrics": {name: entry["value"]
                        for name, entry in final["metrics"].items()}}


def paired_runs(workload: str, roots: Mapping[str, str],
                run: Runner = perflab_run) -> List[Dict]:
    """:data:`PAIRS` pairs of runs of one workload, one process at a time.

    ``roots`` maps ``"base"`` and ``"change"`` to their checkouts.  Both runs
    of pair i use seed ``FIRST_SEED + i``; the base runs first in even
    pairs and second in odd ones.
    """
    runs = []
    for pair in range(PAIRS):
        seed = FIRST_SEED + pair
        sides = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for order, side in enumerate(sides):
            record = {"pair": pair, "seed": seed, "side": side, "order": order}
            record.update(parse_run(run(roots[side], workload, seed)))
            runs.append(record)
            print(f"{workload} pair {pair + 1}/{PAIRS} seed {seed} {side}: "
                  f"cu {record['cu_ms']:.3f} ms, failed {record['failed']} "
                  f"of {record['attempted']}", file=sys.stderr, flush=True)
    return runs


def _iqr(values: Sequence[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdict(base: Sequence[float], change: Sequence[float], better: str,
            bound: float, failures_rose: bool = False) -> Dict:
    """One metric's comparison; ``base[i]`` and ``change[i]`` are pair i.

    * **regress** — the change's median is worse than the base's by more
      than ``bound`` (relative to the base median);
    * **gain** — the change wins at least nine tenths of the pairs (ties
      count for neither), the medians differ by more than the base's
      interquartile range, and no larger share of operations failed;
    * **unresolved** — either side's interquartile range is wider than
      ``bound`` and not every change run beats every base run;
    * **no change** — anything else.
    """
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    base_iqr = _iqr(base)
    wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    worse_by = sign * (change_median - base_median) / base_median
    spread = max(base_iqr, _iqr(change)) / base_median
    dominates = max(sign * c for c in change) < min(sign * b for b in base)
    if worse_by > bound:
        word = "regress"
    elif (10 * wins >= 9 * len(base) and not failures_rose
          and sign * (base_median - change_median) > base_iqr):
        word = "gain"
    elif spread > bound and not dominates:
        word = "unresolved"
    else:
        word = "no change"
    return {"base_median": base_median, "change_median": change_median,
            "ratio": change_median / base_median, "base_iqr": base_iqr,
            "wins": wins, "pairs": len(base), "verdict": word}


def summarize(runs: Sequence[Mapping], end_to_end: Sequence[Mapping]) -> Dict:
    """Per-metric verdicts and failed-operation counts of one workload's runs.

    ``end_to_end`` is ``BENCHMARK.json``'s list of metrics (name, better,
    bound).  The failed-operation share *rose* when the change failed a
    larger share of what it attempted than the base did.
    """
    sides = {side: sorted((r for r in runs if r["side"] == side),
                          key=lambda r: r["pair"])
             for side in ("base", "change")}
    failed = {side: {"failed": sum(r["failed"] for r in rs),
                     "attempted": sum(r["attempted"] for r in rs)}
              for side, rs in sides.items()}
    base, change = failed["base"], failed["change"]
    rose = change["failed"] * base["attempted"] > base["failed"] * change["attempted"]
    metrics = {
        metric["name"]: verdict(
            [r["metrics"][metric["name"]] for r in sides["base"]],
            [r["metrics"][metric["name"]] for r in sides["change"]],
            metric["better"], metric["bound"], failures_rose=rose)
        for metric in end_to_end}
    return {"metrics": metrics, "failed": {**failed, "share_rose": rose}}


def render(report: Mapping) -> str:
    """One workload's report as the table ``ramiel bench compare`` prints."""
    from repro.analysis.reports import format_rows

    rows = [{"metric": name,
             "base": f"{m['base_median']:.4g}",
             "change": f"{m['change_median']:.4g}",
             "ratio": f"{m['ratio']:.3f}",
             "base_iqr": f"{m['base_iqr']:.3g}",
             "wins": f"{m['wins']}/{m['pairs']}",
             "verdict": m["verdict"]}
            for name, m in report["metrics"].items()]
    failed = report["failed"]
    dirty = " (uncommitted changes)" if report["dirty"] else ""
    profile = report.get("host")  # reports written before the profile have none
    host = (f"  host {profile['cores']} cores, K=2 inflation "
            f"{profile['inflation_2']:.2f}x" if profile else "")
    return "\n".join([
        f"== {report['workload']}  base {report['base'][:12]}  "
        f"change {report['change'][:12]}{dirty}  nproc {report['nproc']}{host}",
        format_rows(rows),
        f"failed: base {failed['base']['failed']} of "
        f"{failed['base']['attempted']}, change {failed['change']['failed']} "
        f"of {failed['change']['attempted']}"
        + ("  -- FAILED SHARE ROSE" if failed["share_rose"] else ""),
    ])


def compare(base: str, workloads: Optional[Sequence[str]] = None,
            root: Optional[str] = None, run: Runner = perflab_run,
            git: Callable[..., str] = run_git) -> Dict[str, Dict]:
    """Compare commit ``base`` against the working tree at ``root``.

    ``root`` defaults to the git checkout around the current directory;
    ``workloads`` to every workload of its ``BENCHMARK.json``.  Writes and
    returns one report per workload (see the module docstring).
    """
    root = root or git(os.getcwd(), "rev-parse", "--show-toplevel")
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    declared = [w["name"] for w in benchmark["workloads"]]
    unknown = sorted(set(workloads or ()) - set(declared))
    if unknown:
        raise ValueError(f"unknown workload(s) {unknown}; "
                         f"BENCHMARK.json declares {declared}")
    profile = host_profile()
    header = {"base": git(root, "rev-parse", "--verify", base + "^{commit}"),
              "change": git(root, "rev-parse", "HEAD"),
              "dirty": bool(git(root, "status", "--porcelain")),
              "nproc": os.cpu_count(),
              "host": {"cores": profile.cores, "inflation_2": profile.inflation(2)}}
    checkout = os.path.join(root, ".perflab_out", "base-" + header["base"][:12])
    git(root, "worktree", "add", "--detach", checkout, header["base"])
    reports = {}
    try:
        for workload in workloads or declared:
            runs = paired_runs(workload, {"base": checkout, "change": root}, run)
            report = {"workload": workload, **header,
                      **summarize(runs, benchmark["end_to_end"]), "runs": runs}
            with open(os.path.join(root, f"BENCH_{workload}.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(report, fh, indent=1)
                fh.write("\n")
            print(render(report), flush=True)
            reports[workload] = report
    finally:
        git(root, "worktree", "remove", "--force", checkout)
    return reports
