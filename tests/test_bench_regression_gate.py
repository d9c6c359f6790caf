"""Unit tests for the CI perf-regression gate script."""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = (
    Path(__file__).resolve().parent.parent
    / "scripts"
    / "check_bench_regression.py"
)


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location(
        "check_bench_regression", _SCRIPT
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def baseline():
    return {
        "runs": {
            "in_memory": {
                "stage_seconds": {"generate": 0.2, "count": 0.3}
            }
        },
        "checks_pass": True,
    }


class TestCompare:
    def test_identical_passes(self, gate, baseline):
        assert gate.compare(baseline, copy.deepcopy(baseline), 1.5) == []

    def test_within_tolerance_passes(self, gate, baseline):
        current = copy.deepcopy(baseline)
        current["runs"]["in_memory"]["stage_seconds"] = {
            "generate": 0.3,
            "count": 0.4,
        }
        assert gate.compare(baseline, current, 1.5) == []

    def test_stage_total_regression_fails(self, gate, baseline):
        current = copy.deepcopy(baseline)
        current["runs"]["in_memory"]["stage_seconds"] = {
            "generate": 0.5,
            "count": 0.5,
        }
        problems = gate.compare(baseline, current, 1.5)
        assert any("stage totals" in p for p in problems)

    def test_failed_shape_checks_fail_the_gate(self, gate, baseline):
        current = copy.deepcopy(baseline)
        current["checks_pass"] = False
        problems = gate.compare(baseline, current, 1.5)
        assert any("shape checks" in p for p in problems)

    def test_missing_baseline_stage_totals_reported(self, gate, baseline):
        broken = copy.deepcopy(baseline)
        broken["runs"] = {}
        problems = gate.compare(broken, copy.deepcopy(baseline), 1.5)
        assert any("baseline in-memory stage totals" in p for p in problems)

    def test_missing_current_stage_totals_reported(self, gate, baseline):
        current = copy.deepcopy(baseline)
        current["runs"] = {}
        problems = gate.compare(baseline, current, 1.5)
        assert any("current in-memory stage totals" in p for p in problems)

    def test_sub_noise_floor_jitter_passes(self, gate, baseline):
        """Cross-machine jitter on millisecond-scale totals must not
        flake the gate: over tolerance but under the absolute floor."""
        tiny_base = copy.deepcopy(baseline)
        tiny_base["runs"]["in_memory"]["stage_seconds"] = {"count": 0.001}
        current = copy.deepcopy(tiny_base)
        current["runs"]["in_memory"]["stage_seconds"] = {"count": 0.005}
        assert gate.compare(tiny_base, current, 1.5) == []


class TestMain:
    def _write(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_exit_zero_on_pass(self, gate, baseline, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", baseline)
        current = self._write(tmp_path, "current.json", baseline)
        code = gate.main(
            ["--baseline", base, "--current", current, "--tolerance", "1.5"]
        )
        assert code == 0
        assert "gate passed" in capsys.readouterr().out

    def test_exit_one_on_regression(self, gate, baseline, tmp_path, capsys):
        current_data = copy.deepcopy(baseline)
        current_data["runs"]["in_memory"]["stage_seconds"] = {"count": 99.0}
        base = self._write(tmp_path, "base.json", baseline)
        current = self._write(tmp_path, "current.json", current_data)
        code = gate.main(["--baseline", base, "--current", current])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out

    def test_rejects_sub_one_tolerance(self, gate, baseline, tmp_path):
        base = self._write(tmp_path, "base.json", baseline)
        with pytest.raises(SystemExit):
            gate.main(
                [
                    "--baseline",
                    base,
                    "--current",
                    base,
                    "--tolerance",
                    "0.5",
                ]
            )

    def test_gates_the_committed_baseline_format(self, gate):
        """The committed BENCH_engine.json must carry every gated
        metric (otherwise the CI gate cannot run)."""
        committed = json.loads(
            (_SCRIPT.parent.parent / "BENCH_engine.json").read_text()
        )
        assert gate.compare(committed, copy.deepcopy(committed), 1.5) == []


@pytest.fixture
def incremental_baseline():
    return {
        "bench": "incremental",
        "speedup_10pct": 5.0,
        "checks_pass": True,
    }


class TestCompareIncremental:
    def test_identical_passes(self, gate, incremental_baseline):
        assert gate.compare_incremental(
            incremental_baseline,
            copy.deepcopy(incremental_baseline),
            1.5,
        ) == []

    def test_below_absolute_floor_fails(self, gate, incremental_baseline):
        current = copy.deepcopy(incremental_baseline)
        current["speedup_10pct"] = 2.4
        problems = gate.compare_incremental(incremental_baseline, current, 1.5)
        assert any("floor" in p for p in problems)

    def test_collapse_versus_baseline_fails(self, gate):
        baseline = {"speedup_10pct": 12.0, "checks_pass": True}
        current = {"speedup_10pct": 4.0, "checks_pass": True}
        problems = gate.compare_incremental(baseline, current, 1.5)
        assert any("regressed" in p for p in problems)

    def test_within_tolerance_passes(self, gate):
        baseline = {"speedup_10pct": 6.0, "checks_pass": True}
        current = {"speedup_10pct": 4.5, "checks_pass": True}
        assert gate.compare_incremental(baseline, current, 1.5) == []

    def test_failed_internal_checks_fail(self, gate, incremental_baseline):
        current = copy.deepcopy(incremental_baseline)
        current["checks_pass"] = False
        problems = gate.compare_incremental(incremental_baseline, current, 1.5)
        assert any("internal checks" in p for p in problems)

    def test_missing_baseline_speedup_reported(self, gate):
        problems = gate.compare_incremental(
            {}, {"speedup_10pct": 5.0, "checks_pass": True}, 1.5
        )
        assert any("baseline" in p for p in problems)

    def test_custom_floor(self, gate, incremental_baseline):
        current = copy.deepcopy(incremental_baseline)
        current["speedup_10pct"] = 4.0
        assert (
            gate.compare_incremental(
                incremental_baseline, current, 1.5, min_speedup=4.5
            )
            != []
        )


class TestMainIncremental:
    def _write(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_exit_zero_with_incremental_pair(
        self, gate, baseline, incremental_baseline, tmp_path, capsys
    ):
        base = self._write(tmp_path, "base.json", baseline)
        current = self._write(tmp_path, "current.json", baseline)
        inc = self._write(tmp_path, "inc.json", incremental_baseline)
        code = gate.main([
            "--baseline",
            base,
            "--current",
            current,
            "--incremental-baseline",
            inc,
            "--incremental-current",
            inc,
        ])
        assert code == 0
        assert "+10% speedup" in capsys.readouterr().out

    def test_exit_one_on_incremental_floor_breach(
        self, gate, baseline, incremental_baseline, tmp_path, capsys
    ):
        slow = copy.deepcopy(incremental_baseline)
        slow["speedup_10pct"] = 1.2
        base = self._write(tmp_path, "base.json", baseline)
        current = self._write(tmp_path, "current.json", baseline)
        inc_base = self._write(tmp_path, "inc_base.json", incremental_baseline)
        inc_now = self._write(tmp_path, "inc_now.json", slow)
        code = gate.main([
            "--baseline",
            base,
            "--current",
            current,
            "--incremental-baseline",
            inc_base,
            "--incremental-current",
            inc_now,
        ])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out

    def test_lone_incremental_option_rejected(self, gate, baseline, tmp_path):
        base = self._write(tmp_path, "base.json", baseline)
        with pytest.raises(SystemExit):
            gate.main([
                "--baseline",
                base,
                "--current",
                base,
                "--incremental-baseline",
                base,
            ])

    def test_gates_the_committed_incremental_baseline(self, gate):
        """The committed BENCH_incremental.json must satisfy its own
        gate (otherwise CI fails on an untouched checkout)."""
        committed = json.loads(
            (_SCRIPT.parent.parent / "BENCH_incremental.json").read_text()
        )
        assert gate.compare_incremental(
            committed, copy.deepcopy(committed), 1.5
        ) == []


@pytest.fixture
def serve_baseline():
    return {
        "bench": "serve",
        "speedup": 12.0,
        "min_speedup": 5.0,
        "checks_pass": True,
        "concurrent": {
            "concurrency": 100,
            "async_over_threaded": 6.0,
            "blocked_read_ratio": 10.0,
            "min_async_over_threaded": 3.0,
            "max_blocked_read_ratio": 20.0,
            "threaded": {
                "read_only": {"p99_ms": 200.0},
                "mixed": {"p99_ms": 300.0},
            },
            "async": {
                "read_only": {"p99_ms": 10.0},
                "mixed": {"p99_ms": 100.0},
            },
        },
    }


class TestCompareServe:
    def test_identical_passes(self, gate, serve_baseline):
        assert gate.compare_serve(
            serve_baseline, copy.deepcopy(serve_baseline), 1.5
        ) == []

    def test_below_absolute_floor_fails(self, gate, serve_baseline):
        current = copy.deepcopy(serve_baseline)
        current["speedup"] = 4.0
        problems = gate.compare_serve(serve_baseline, current, 1.5)
        assert any("floor" in p for p in problems)

    def test_collapse_versus_baseline_fails(self, gate, serve_baseline):
        current = copy.deepcopy(serve_baseline)
        current["speedup"] = 6.0  # clears the 5x floor, but 2x collapse
        problems = gate.compare_serve(serve_baseline, current, 1.5)
        assert any("regressed" in p for p in problems)

    def test_within_tolerance_passes(self, gate, serve_baseline):
        baseline = copy.deepcopy(serve_baseline)
        baseline["speedup"] = 9.0
        current = copy.deepcopy(serve_baseline)
        current["speedup"] = 7.0
        assert gate.compare_serve(baseline, current, 1.5) == []

    def test_failed_internal_checks_fail(self, gate, serve_baseline):
        current = copy.deepcopy(serve_baseline)
        current["checks_pass"] = False
        problems = gate.compare_serve(serve_baseline, current, 1.5)
        assert any("internal checks" in p for p in problems)

    def test_missing_baseline_speedup_reported(self, gate):
        problems = gate.compare_serve(
            {}, {"speedup": 8.0, "checks_pass": True}, 1.5
        )
        assert any("baseline" in p for p in problems)

    def test_custom_floor(self, gate, serve_baseline):
        current = copy.deepcopy(serve_baseline)
        current["speedup"] = 9.0
        assert (
            gate.compare_serve(
                serve_baseline, current, 1.5, min_speedup=10.0
            )
            != []
        )

    def test_concurrent_speedup_below_floor_fails(self, gate, serve_baseline):
        current = copy.deepcopy(serve_baseline)
        current["concurrent"]["async_over_threaded"] = 2.0
        problems = gate.compare_serve(serve_baseline, current, 1.5)
        assert any("threaded qps" in p for p in problems)

    def test_blocked_read_ratio_above_ceiling_fails(
        self, gate, serve_baseline
    ):
        current = copy.deepcopy(serve_baseline)
        current["concurrent"]["blocked_read_ratio"] = 45.0
        problems = gate.compare_serve(serve_baseline, current, 1.5)
        assert any("blocked by updates" in p for p in problems)

    def test_async_p99_worse_than_threaded_fails(self, gate, serve_baseline):
        current = copy.deepcopy(serve_baseline)
        current["concurrent"]["async"]["mixed"]["p99_ms"] = 400.0
        problems = gate.compare_serve(serve_baseline, current, 1.5)
        assert any("worse than" in p for p in problems)

    def test_smoke_concurrency_rejected(self, gate, serve_baseline):
        current = copy.deepcopy(serve_baseline)
        current["concurrent"]["concurrency"] = 8
        problems = gate.compare_serve(serve_baseline, current, 1.5)
        assert any("--concurrency 100" in p for p in problems)

    def test_missing_concurrent_block_rejected(self, gate, serve_baseline):
        current = copy.deepcopy(serve_baseline)
        del current["concurrent"]
        problems = gate.compare_serve(serve_baseline, current, 1.5)
        assert any("concurrent-load block" in p for p in problems)

    def test_custom_concurrent_floors(self, gate, serve_baseline):
        current = copy.deepcopy(serve_baseline)
        assert (
            gate.compare_serve(
                serve_baseline,
                current,
                1.5,
                min_concurrent_speedup=8.0,
            )
            != []
        )
        assert (
            gate.compare_serve(
                serve_baseline, current, 1.5, max_blocked_ratio=5.0
            )
            != []
        )


class TestMainServe:
    def _write(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_exit_zero_with_serve_pair(
        self, gate, baseline, serve_baseline, tmp_path, capsys
    ):
        base = self._write(tmp_path, "base.json", baseline)
        serve = self._write(tmp_path, "serve.json", serve_baseline)
        code = gate.main([
            "--baseline",
            base,
            "--current",
            base,
            "--serve-baseline",
            serve,
            "--serve-current",
            serve,
        ])
        assert code == 0
        assert "indexed-vs-scan speedup" in capsys.readouterr().out

    def test_exit_one_on_serve_floor_breach(
        self, gate, baseline, serve_baseline, tmp_path, capsys
    ):
        slow = copy.deepcopy(serve_baseline)
        slow["speedup"] = 2.0
        base = self._write(tmp_path, "base.json", baseline)
        serve_base = self._write(tmp_path, "serve_base.json", serve_baseline)
        serve_now = self._write(tmp_path, "serve_now.json", slow)
        code = gate.main([
            "--baseline",
            base,
            "--current",
            base,
            "--serve-baseline",
            serve_base,
            "--serve-current",
            serve_now,
        ])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out

    def test_floor_defaults_to_baseline_recorded_floor(
        self, gate, baseline, serve_baseline, tmp_path
    ):
        # baseline records a stricter floor than the built-in default;
        # a current run between the two must fail
        strict = copy.deepcopy(serve_baseline)
        strict["min_speedup"] = 11.0
        current = copy.deepcopy(serve_baseline)
        current["speedup"] = 10.0
        base = self._write(tmp_path, "base.json", baseline)
        serve_base = self._write(tmp_path, "serve_base.json", strict)
        serve_now = self._write(tmp_path, "serve_now.json", current)
        code = gate.main([
            "--baseline",
            base,
            "--current",
            base,
            "--serve-baseline",
            serve_base,
            "--serve-current",
            serve_now,
        ])
        assert code == 1

    def test_concurrent_floors_default_to_baseline_recorded(
        self, gate, baseline, serve_baseline, tmp_path
    ):
        # baseline records a stricter concurrent floor than the
        # built-in default; a current run between the two must fail
        strict = copy.deepcopy(serve_baseline)
        strict["concurrent"]["min_async_over_threaded"] = 7.0
        current = copy.deepcopy(serve_baseline)
        current["concurrent"]["async_over_threaded"] = 5.0
        base = self._write(tmp_path, "base.json", baseline)
        serve_base = self._write(tmp_path, "serve_base.json", strict)
        serve_now = self._write(tmp_path, "serve_now.json", current)
        code = gate.main([
            "--baseline",
            base,
            "--current",
            base,
            "--serve-baseline",
            serve_base,
            "--serve-current",
            serve_now,
        ])
        assert code == 1

    def test_lone_serve_option_rejected(self, gate, baseline, tmp_path):
        base = self._write(tmp_path, "base.json", baseline)
        with pytest.raises(SystemExit):
            gate.main([
                "--baseline",
                base,
                "--current",
                base,
                "--serve-current",
                base,
            ])

    def test_gates_the_committed_serve_baseline(self, gate):
        """The committed BENCH_serve.json must satisfy its own gate
        (otherwise CI fails on an untouched checkout)."""
        committed = json.loads(
            (_SCRIPT.parent.parent / "BENCH_serve.json").read_text()
        )
        assert gate.compare_serve(
            committed, copy.deepcopy(committed), 1.5
        ) == []


@pytest.fixture
def approx_baseline():
    return {
        "bench": "approx",
        "quick": False,
        "speedup": 3.0,
        "recall": 1.0,
        "min_speedup": 2.0,
        "checks_pass": True,
    }


class TestCompareApprox:
    def test_identical_passes(self, gate, approx_baseline):
        assert gate.compare_approx(
            approx_baseline, copy.deepcopy(approx_baseline), 1.5
        ) == []

    def test_below_absolute_floor_fails(self, gate, approx_baseline):
        current = copy.deepcopy(approx_baseline)
        current["speedup"] = 1.5
        problems = gate.compare_approx(approx_baseline, current, 1.5)
        assert any("floor" in p for p in problems)

    def test_imperfect_recall_fails(self, gate, approx_baseline):
        current = copy.deepcopy(approx_baseline)
        current["recall"] = 0.9
        problems = gate.compare_approx(approx_baseline, current, 1.5)
        assert any("recall" in p for p in problems)

    def test_collapse_versus_baseline_fails(self, gate):
        baseline = {"speedup": 8.0, "recall": 1.0, "checks_pass": True}
        current = {"speedup": 2.5, "recall": 1.0, "checks_pass": True}
        problems = gate.compare_approx(baseline, current, 1.5)
        assert any("regressed" in p for p in problems)

    def test_within_tolerance_passes(self, gate):
        baseline = {"speedup": 3.5, "recall": 1.0, "checks_pass": True}
        current = {"speedup": 2.5, "recall": 1.0, "checks_pass": True}
        assert gate.compare_approx(baseline, current, 1.5) == []

    def test_failed_internal_checks_fail(self, gate, approx_baseline):
        current = copy.deepcopy(approx_baseline)
        current["checks_pass"] = False
        problems = gate.compare_approx(approx_baseline, current, 1.5)
        assert any("internal checks" in p for p in problems)

    def test_quick_bench_rejected(self, gate, approx_baseline):
        current = copy.deepcopy(approx_baseline)
        current["quick"] = True
        problems = gate.compare_approx(approx_baseline, current, 1.5)
        assert any("quick" in p for p in problems)

    def test_missing_baseline_speedup_reported(self, gate):
        problems = gate.compare_approx(
            {}, {"speedup": 3.0, "recall": 1.0, "checks_pass": True}, 1.5
        )
        assert any("baseline" in p for p in problems)


class TestMainApprox:
    def _write(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_exit_zero_with_approx_pair(
        self, gate, baseline, approx_baseline, tmp_path, capsys
    ):
        base = self._write(tmp_path, "base.json", baseline)
        approx = self._write(tmp_path, "approx.json", approx_baseline)
        code = gate.main([
            "--baseline",
            base,
            "--current",
            base,
            "--approx-baseline",
            approx,
            "--approx-current",
            approx,
        ])
        assert code == 0
        assert "sample-then-verify speedup" in capsys.readouterr().out

    def test_exit_one_on_recall_breach(
        self, gate, baseline, approx_baseline, tmp_path, capsys
    ):
        lossy = copy.deepcopy(approx_baseline)
        lossy["recall"] = 0.875
        base = self._write(tmp_path, "base.json", baseline)
        approx_base = self._write(
            tmp_path, "approx_base.json", approx_baseline
        )
        approx_now = self._write(tmp_path, "approx_now.json", lossy)
        code = gate.main([
            "--baseline",
            base,
            "--current",
            base,
            "--approx-baseline",
            approx_base,
            "--approx-current",
            approx_now,
        ])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out

    def test_floor_defaults_to_baseline_recorded_floor(
        self, gate, baseline, approx_baseline, tmp_path
    ):
        strict = copy.deepcopy(approx_baseline)
        strict["min_speedup"] = 4.0
        current = copy.deepcopy(approx_baseline)
        current["speedup"] = 3.5
        base = self._write(tmp_path, "base.json", baseline)
        approx_base = self._write(tmp_path, "approx_base.json", strict)
        approx_now = self._write(tmp_path, "approx_now.json", current)
        code = gate.main([
            "--baseline",
            base,
            "--current",
            base,
            "--approx-baseline",
            approx_base,
            "--approx-current",
            approx_now,
        ])
        assert code == 1

    def test_lone_approx_option_rejected(self, gate, baseline, tmp_path):
        base = self._write(tmp_path, "base.json", baseline)
        with pytest.raises(SystemExit):
            gate.main([
                "--baseline",
                base,
                "--current",
                base,
                "--approx-current",
                base,
            ])

    def test_gates_the_committed_approx_baseline(self, gate):
        """The committed BENCH_approx.json must satisfy its own gate
        (otherwise CI fails on an untouched checkout)."""
        committed = json.loads(
            (_SCRIPT.parent.parent / "BENCH_approx.json").read_text()
        )
        assert gate.compare_approx(
            committed, copy.deepcopy(committed), 1.5
        ) == []

    def test_quick_baseline_rejected(self, gate, approx_baseline):
        stale = copy.deepcopy(approx_baseline)
        stale["quick"] = True
        problems = gate.compare_approx(
            stale, copy.deepcopy(approx_baseline), 1.5
        )
        assert any("baseline" in p and "quick" in p for p in problems)


@pytest.fixture
def partition_baseline():
    return {
        "bench": "partition",
        "quick": False,
        "admit_speedup": 8.0,
        "mine_ratio": 1.6,
        "min_admit_speedup": 5.0,
        "max_mine_ratio": 2.5,
        "checks_pass": True,
    }


class TestComparePartition:
    def test_identical_passes(self, gate, partition_baseline):
        assert gate.compare_partition(
            partition_baseline, copy.deepcopy(partition_baseline), 1.5
        ) == []

    def test_below_admit_floor_fails(self, gate, partition_baseline):
        current = copy.deepcopy(partition_baseline)
        current["admit_speedup"] = 3.0
        problems = gate.compare_partition(partition_baseline, current, 1.5)
        assert any("floor" in p for p in problems)

    def test_above_mine_ratio_ceiling_fails(self, gate, partition_baseline):
        current = copy.deepcopy(partition_baseline)
        current["mine_ratio"] = 4.8
        problems = gate.compare_partition(partition_baseline, current, 1.5)
        assert any("ceiling" in p for p in problems)

    def test_admit_collapse_versus_baseline_fails(
        self, gate, partition_baseline
    ):
        baseline = copy.deepcopy(partition_baseline)
        baseline["admit_speedup"] = 20.0
        current = copy.deepcopy(partition_baseline)
        current["admit_speedup"] = 6.0  # above floor, > 1.5x collapse
        problems = gate.compare_partition(baseline, current, 1.5)
        assert any("regressed" in p for p in problems)

    def test_failed_internal_checks_fail(self, gate, partition_baseline):
        current = copy.deepcopy(partition_baseline)
        current["checks_pass"] = False
        problems = gate.compare_partition(partition_baseline, current, 1.5)
        assert any("internal checks" in p for p in problems)

    def test_quick_runs_rejected_both_ways(self, gate, partition_baseline):
        quick = copy.deepcopy(partition_baseline)
        quick["quick"] = True
        assert any(
            "quick" in p
            for p in gate.compare_partition(
                quick, copy.deepcopy(partition_baseline), 1.5
            )
        )
        assert any(
            "quick" in p
            for p in gate.compare_partition(
                copy.deepcopy(partition_baseline), quick, 1.5
            )
        )

    def test_gates_the_committed_partition_baseline(self, gate):
        """The committed BENCH_partition.json must satisfy its own
        gate (otherwise CI fails on an untouched checkout)."""
        committed = json.loads(
            (_SCRIPT.parent.parent / "BENCH_partition.json").read_text()
        )
        assert gate.compare_partition(
            committed, copy.deepcopy(committed), 1.5
        ) == []


class TestMainPartition:
    def _write(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_exit_zero_with_partition_pair(
        self, gate, baseline, partition_baseline, tmp_path, capsys
    ):
        base = self._write(tmp_path, "base.json", baseline)
        part = self._write(tmp_path, "part.json", partition_baseline)
        code = gate.main([
            "--baseline",
            base,
            "--current",
            base,
            "--partition-baseline",
            part,
            "--partition-current",
            part,
        ])
        assert code == 0
        assert "image-admit speedup" in capsys.readouterr().out

    def test_exit_one_on_admit_floor_breach(
        self, gate, baseline, partition_baseline, tmp_path, capsys
    ):
        slow = copy.deepcopy(partition_baseline)
        slow["admit_speedup"] = 2.0
        base = self._write(tmp_path, "base.json", baseline)
        part_base = self._write(tmp_path, "part_base.json", partition_baseline)
        part_now = self._write(tmp_path, "part_now.json", slow)
        code = gate.main([
            "--baseline",
            base,
            "--current",
            base,
            "--partition-baseline",
            part_base,
            "--partition-current",
            part_now,
        ])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out

    def test_floors_default_to_baseline_recorded_floors(
        self, gate, baseline, partition_baseline, tmp_path
    ):
        strict = copy.deepcopy(partition_baseline)
        strict["min_admit_speedup"] = 10.0
        current = copy.deepcopy(partition_baseline)
        current["admit_speedup"] = 8.0  # above 5.0, below 10.0
        base = self._write(tmp_path, "base.json", baseline)
        part_base = self._write(tmp_path, "part_base.json", strict)
        part_now = self._write(tmp_path, "part_now.json", current)
        code = gate.main([
            "--baseline",
            base,
            "--current",
            base,
            "--partition-baseline",
            part_base,
            "--partition-current",
            part_now,
        ])
        assert code == 1

    def test_lone_partition_option_rejected(self, gate, baseline, tmp_path):
        base = self._write(tmp_path, "base.json", baseline)
        with pytest.raises(SystemExit):
            gate.main([
                "--baseline",
                base,
                "--current",
                base,
                "--partition-current",
                base,
            ])


@pytest.fixture
def window_baseline():
    return {
        "bench": "window",
        "speedup": 1.8,
        "min_speedup": 1.2,
        "events_total": 7,
        "checks_pass": True,
    }


class TestCompareWindow:
    def test_identical_passes(self, gate, window_baseline):
        assert gate.compare_window(
            window_baseline, copy.deepcopy(window_baseline), 1.5
        ) == []

    def test_below_absolute_floor_fails(self, gate, window_baseline):
        current = copy.deepcopy(window_baseline)
        current["speedup"] = 1.1
        problems = gate.compare_window(window_baseline, current, 1.5)
        assert any("floor" in p for p in problems)

    def test_collapse_versus_baseline_fails(self, gate, window_baseline):
        fast = copy.deepcopy(window_baseline)
        fast["speedup"] = 6.0
        current = copy.deepcopy(window_baseline)
        current["speedup"] = 2.0
        problems = gate.compare_window(fast, current, 1.5)
        assert any("regressed" in p for p in problems)

    def test_within_tolerance_passes(self, gate, window_baseline):
        current = copy.deepcopy(window_baseline)
        current["speedup"] = 1.4
        assert gate.compare_window(window_baseline, current, 1.5) == []

    def test_failed_internal_checks_fail(self, gate, window_baseline):
        current = copy.deepcopy(window_baseline)
        current["checks_pass"] = False
        problems = gate.compare_window(window_baseline, current, 1.5)
        assert any("internal checks" in p for p in problems)

    def test_dead_event_path_fails(self, gate, window_baseline):
        current = copy.deepcopy(window_baseline)
        current["events_total"] = 0
        problems = gate.compare_window(window_baseline, current, 1.5)
        assert any("event path is dead" in p for p in problems)

    def test_missing_baseline_speedup_reported(self, gate, window_baseline):
        problems = gate.compare_window({}, window_baseline, 1.5)
        assert any("baseline" in p for p in problems)

    def test_custom_floor(self, gate, window_baseline):
        assert (
            gate.compare_window(
                window_baseline,
                copy.deepcopy(window_baseline),
                1.5,
                min_speedup=2.0,
            )
            != []
        )


class TestMainWindow:
    def _write(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_exit_zero_with_window_pair(
        self, gate, baseline, window_baseline, tmp_path, capsys
    ):
        base = self._write(tmp_path, "base.json", baseline)
        window = self._write(tmp_path, "window.json", window_baseline)
        code = gate.main([
            "--baseline",
            base,
            "--current",
            base,
            "--window-baseline",
            window,
            "--window-current",
            window,
        ])
        assert code == 0
        assert "windowed-slide speedup" in capsys.readouterr().out

    def test_floor_comes_from_the_baseline_file(
        self, gate, baseline, window_baseline, tmp_path, capsys
    ):
        # the committed baseline's min_speedup is the single source
        # of truth when no --window-min-speedup is passed
        strict = copy.deepcopy(window_baseline)
        strict["min_speedup"] = 2.5
        base = self._write(tmp_path, "base.json", baseline)
        window_base = self._write(tmp_path, "wb.json", strict)
        window_now = self._write(tmp_path, "wn.json", window_baseline)
        code = gate.main([
            "--baseline",
            base,
            "--current",
            base,
            "--window-baseline",
            window_base,
            "--window-current",
            window_now,
        ])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out

    def test_lone_window_option_rejected(self, gate, baseline, tmp_path):
        base = self._write(tmp_path, "base.json", baseline)
        with pytest.raises(SystemExit):
            gate.main([
                "--baseline",
                base,
                "--current",
                base,
                "--window-baseline",
                base,
            ])

    def test_gates_the_committed_window_baseline(self, gate):
        """The committed BENCH_window.json must satisfy its own gate
        (otherwise CI fails on an untouched checkout)."""
        committed = json.loads(
            (_SCRIPT.parent.parent / "BENCH_window.json").read_text()
        )
        assert gate.compare_window(
            committed, copy.deepcopy(committed), 1.5
        ) == []
