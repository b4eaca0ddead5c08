"""``ramiel bench compare``: the paired protocol, its verdict rule and the
committed ``BENCH_<workload>.json`` files (no process is started: the
perflab runner and git are injected)."""

from __future__ import annotations

import json
import os

import pytest

from repro.observability import bench

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

LATENCY = [{"name": "latency_cu", "better": "lower", "bound": 0.25}]
#: ten base runs, interquartile range 0.45 on a median of 10.45
BASE = [10.0 + 0.1 * i for i in range(10)]


def perflab_stdout(cu_ms, values, failed=0, attempted=100):
    """What ``perflab/run.py --workload W --seed S`` prints, abridged."""
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed,
             "metrics": {name: {"value": value, "unit": "cu"}
                         for name, value in values.items()}}
    return (f"perflab nproc=2 blas_threads=1 commit=unknown\n"
            f"== w  seed=1  seconds=22  trace=0  cu={cu_ms:.3f} ms\n"
            f"   latency_cu  1.0 cu\n{json.dumps(final)}\n")


def runs_of(base, change, change_failed=0):
    runs = []
    for pair, (b, c) in enumerate(zip(base, change)):
        for side, value, failed in (("base", b, 0), ("change", c, change_failed)):
            runs.append({"pair": pair, "seed": pair, "side": side,
                         "order": 0, "cu_ms": 0.5, "attempted": 100,
                         "failed": failed, "metrics": {"latency_cu": value}})
    return runs


def verdict_of(base, change, better="lower", bound=0.25):
    return bench.verdict(base, change, better, bound)["verdict"]


class TestVerdict:
    def test_ten_wins_beyond_the_base_iqr_is_a_gain(self):
        assert verdict_of(BASE, [b - 1.0 for b in BASE]) == "gain"
        assert verdict_of(BASE, [b + 1.0 for b in BASE], better="higher") == "gain"

    def test_eight_wins_is_no_change(self):
        change = [b - 1.0 for b in BASE[:8]] + [b + 0.1 for b in BASE[8:]]
        result = bench.verdict(BASE, change, "lower", 0.25)
        assert (result["wins"], result["verdict"]) == (8, "no change")

    def test_ten_wins_within_the_base_iqr_is_no_change(self):
        assert verdict_of(BASE, [b - 0.2 for b in BASE]) == "no change"

    def test_worse_beyond_the_bound_regresses(self):
        assert verdict_of(BASE, [b * 1.3 for b in BASE]) == "regress"
        assert verdict_of(BASE, [b * 1.2 for b in BASE]) == "no change"
        assert verdict_of(BASE, [b * 0.7 for b in BASE], better="higher") == "regress"

    def test_spread_above_the_bound_is_unresolved(self):
        wide = [5.0, 15.0, 6.0, 14.0, 7.0, 13.0, 8.0, 12.0, 9.0, 11.0]
        assert verdict_of(wide, list(reversed(wide))) == "unresolved"

    def test_unless_every_change_run_beats_every_base_run(self):
        wide = [10.0] * 5 + [14.0] * 5  # interquartile range 4 on a median of 12
        result = bench.verdict(wide, [9.9] * 10, "lower", 0.25)
        # ten wins, but 2.1 is inside the base's spread: not a gain either
        assert (result["wins"], result["verdict"]) == (10, "no change")

    def test_more_failed_operations_are_flagged_and_void_a_gain(self):
        faster = [b - 1.0 for b in BASE]
        clean = bench.summarize(runs_of(BASE, faster), LATENCY)
        assert clean["failed"]["share_rose"] is False
        assert clean["metrics"]["latency_cu"]["verdict"] == "gain"
        failing = bench.summarize(runs_of(BASE, faster, change_failed=1), LATENCY)
        assert failing["failed"]["share_rose"] is True
        assert failing["failed"]["change"] == {"failed": 10, "attempted": 1000}
        assert failing["metrics"]["latency_cu"]["verdict"] == "no change"


class TestParseRun:
    def test_reads_the_header_and_the_result_line(self):
        run = bench.parse_run(perflab_stdout(0.512, {"latency_cu": 27.5}, failed=2))
        assert run == {"cu_ms": 0.512, "attempted": 100, "failed": 2,
                       "metrics": {"latency_cu": 27.5}}

    @pytest.mark.parametrize("stdout", ["", "Traceback ...\nKeyError: 'x'\n",
                                        "== w  cu=0.5 ms\nnot json\n"])
    def test_a_run_without_a_result_raises(self, stdout):
        with pytest.raises(RuntimeError, match="perflab printed no result"):
            bench.parse_run(stdout)


class FakeRunner:
    """Records (root, workload, seed); raises on call number ``fail_at``.
    Runs from ``change_root`` read 0.5 cu slower than the base's."""

    def __init__(self, change_root="/change", fail_at=None):
        self.calls = []
        self.change_root = change_root
        self.fail_at = fail_at

    def __call__(self, root, workload, seed):
        self.calls.append((root, workload, seed))
        if len(self.calls) == self.fail_at:
            raise RuntimeError("perflab printed no result")
        value = 20.0 + seed % 7 + (0.5 if root == self.change_root else 0.0)
        return perflab_stdout(0.5, {m["name"]: value for m in BENCHMARK["end_to_end"]})


class FakeGit:
    def __init__(self):
        self.calls = []

    def __call__(self, root, *args):
        self.calls.append(args)
        if args == ("rev-parse", "HEAD"):
            return "c" * 40
        if args[0] == "rev-parse":
            return "b" * 40
        return " M src/repro/cli.py" if args[0] == "status" else ""


class TestPairedRuns:
    def test_pairs_share_seeds_and_alternate_order(self):
        runner = FakeRunner()
        runs = bench.paired_runs("exec_b1", {"base": "/base", "change": "/change"},
                                 runner)
        assert len(runs) == len(runner.calls) == 2 * bench.PAIRS
        for pair in range(bench.PAIRS):
            first, second = runner.calls[2 * pair], runner.calls[2 * pair + 1]
            assert first[2] == second[2] == bench.FIRST_SEED + pair
            assert first[0] == ("/base" if pair % 2 == 0 else "/change")
            assert {first[0], second[0]} == {"/base", "/change"}
        assert [r["order"] for r in runs] == [0, 1] * bench.PAIRS
        assert [r["side"] for r in runs[:4]] == ["base", "change", "change", "base"]


class TestCompare:
    @pytest.fixture
    def root(self, tmp_path):
        with open(tmp_path / "BENCHMARK.json", "w", encoding="utf-8") as fh:
            json.dump(BENCHMARK, fh)
        return str(tmp_path)

    def test_writes_every_run_and_removes_the_worktree(self, root, monkeypatch, capsys):
        from repro.runtime import host

        monkeypatch.setattr(host, "_PROFILE", host.HostProfile(cores=3, measure=lambda k: 1.75))
        git, runner = FakeGit(), FakeRunner(change_root=root)
        checkout = os.path.join(root, ".perflab_out", "base-" + "b" * 12)
        workload = "exec_b1"
        reports = bench.compare("HEAD~1", [workload], root=root, run=runner, git=git)
        assert ("worktree", "add", "--detach", checkout, "b" * 40) in git.calls
        assert git.calls[-1] == ("worktree", "remove", "--force", checkout)
        assert {call[0] for call in runner.calls} == {checkout, root}
        with open(os.path.join(root, f"BENCH_{workload}.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        assert report == json.loads(json.dumps(reports[workload]))
        assert (report["base"], report["change"], report["dirty"]) == ("b" * 40, "c" * 40, True)
        assert report["nproc"] == os.cpu_count()
        assert report["host"] == {"cores": 3, "inflation_2": 1.75}
        assert f"nproc {os.cpu_count()}  host 3 cores, K=2 inflation 1.75x" \
            in capsys.readouterr().out
        assert len(report["runs"]) == 2 * bench.PAIRS
        latency = report["metrics"]["latency_cu"]
        assert latency["wins"] == 0 and latency["verdict"] == "no change"

    def test_the_worktree_is_removed_when_a_run_raises(self, root):
        git, runner = FakeGit(), FakeRunner(fail_at=3)
        with pytest.raises(RuntimeError, match="no result"):
            bench.compare("HEAD~1", root=root, run=runner, git=git)
        added = [c for c in git.calls if c[:2] == ("worktree", "add")]
        assert len(added) == 1
        assert git.calls[-1] == ("worktree", "remove", "--force", added[0][3])
        assert not [n for n in os.listdir(root) if n.startswith("BENCH_")]

    def test_an_unknown_workload_is_refused_before_any_checkout(self, root):
        git = FakeGit()
        with pytest.raises(ValueError, match="unknown workload"):
            bench.compare("HEAD~1", ["exec_b2"], root=root, run=FakeRunner(), git=git)
        assert not [c for c in git.calls if c[0] == "worktree"]


def cli_report(verdict="no change", share_rose=False):
    """The parts of one workload's report the CLI's exit code reads."""
    return {"failed": {"share_rose": share_rose},
            "metrics": {"latency_cu": {"verdict": verdict},
                        "setup_s": {"verdict": "no change"}}}


class TestCompareCli:
    """``ramiel bench compare`` exits 1 when a metric regressed or the failed
    share rose, 2 on an unknown workload, and 0 otherwise."""

    @pytest.mark.parametrize("reports, code", [
        ({"exec_b1": cli_report(), "compile_zoo": cli_report("gain")}, 0),
        ({"exec_b1": cli_report(), "compile_zoo": cli_report("regress")}, 1),
        ({"exec_b1": cli_report("unresolved", share_rose=True)}, 1),
    ])
    def test_exit_code(self, monkeypatch, reports, code):
        from repro.cli import main

        seen = []
        monkeypatch.setattr(bench, "compare",
                            lambda base, workloads: seen.append((base, workloads))
                            or reports)
        assert main(["bench", "compare", "HEAD~1", "--workload", "exec_b1"]) == code
        assert seen == [("HEAD~1", ["exec_b1"])]

    def test_an_unknown_workload_exits_2(self, monkeypatch, capsys):
        from repro.cli import main

        def refuse(base, workloads):
            raise ValueError("unknown workload(s) ['exec_b2']")

        monkeypatch.setattr(bench, "compare", refuse)
        assert main(["bench", "compare", "HEAD~1", "--workload", "exec_b2"]) == 2
        assert "unknown workload" in capsys.readouterr().err


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_committed_report_re_derives_from_its_runs(workload):
    """Every benchmark workload has a committed ``BENCH_<workload>.json`` of
    at least ten alternating, seed-sharing pairs, and its verdicts are what
    the rule gives on the runs it lists: it cannot be edited into a claim."""
    with open(os.path.join(ROOT, f"BENCH_{workload}.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["workload"] == workload
    assert len(report["base"]) == len(report["change"]) == 40
    assert report["nproc"] >= 1
    pairs = {}
    for run in report["runs"]:
        assert run["cu_ms"] > 0
        pairs.setdefault(run["pair"], {})[run["side"]] = run
    assert len(pairs) >= bench.PAIRS
    for pair, sides in pairs.items():
        base, change = sides["base"], sides["change"]
        assert base["seed"] == change["seed"]
        assert (base["order"], change["order"]) == (pair % 2, 1 - pair % 2)
    derived = bench.summarize(report["runs"], BENCHMARK["end_to_end"])
    assert derived == {"metrics": report["metrics"], "failed": report["failed"]}
