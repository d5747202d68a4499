"""Smoke tests of the benchmark itself: every workload's code path and every
output check at tiny n, in seconds.

    python3 -m pytest perfbench/test_smoke.py -q

Runs start one child process at a time, so the tests never start more
processes than the one they wait for.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import pytest

import checks
import run
import tracer
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

from permclass import cli, engine, oracle  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


def test_spec_lists_what_the_runs_report():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_smoke(workload, trace):
    out = run.run_workload(workload, seed=3, seconds=0.1, trace=trace, scale="smoke")
    result = out["result"]
    assert result["correct"], out["details"]["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert out["details"]["env"]["backend"] == engine.active_backend()
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        assert out["details"]["absent_hooks"] == []
        assert metrics["cli.main.calls"] == workloads.op_count(workload, "smoke")
        # self times of all layers add up to the traced wall time
        assert abs(metrics["unattributed_s"]) < 0.01 * metrics["traced_wall_s"] + 0.005
    else:
        assert all(value > 0 for value in metrics.values())
        assert out["details"]["raw"]["start_factor_median"] > 0
        host = out["details"]["raw"]["host_factor_median"]
        if workload in workloads.CALIBRATED:
            assert host > 0 and host != 1.0
        else:
            assert host == 1.0
            assert metrics["wall_s"] == out["details"]["raw"]["wall_s"]


def test_traced_run_over_several_children():
    # several traced and untraced children: the median of each must be defined
    out = run.run_workload("factor-n10", seed=3, seconds=3, trace=1, scale="smoke")
    assert out["result"]["correct"], out["details"]["failures"]
    assert out["details"]["raw"] is None
    metrics = out["result"]["metrics"]
    assert metrics["untraced_wall_s"]["value"] > 0 and metrics["traced_wall_s"]["value"] > 0


def test_same_seed_same_inputs():
    for workload in workloads.WORKLOADS:
        assert (workloads.ops_for(workload, 7, 1, "full")
                == workloads.ops_for(workload, 7, 1, "full"))
    assert workloads.query_ops(1, 0, "full") != workloads.query_ops(2, 0, "full")
    assert workloads.factor_relation(0) == workloads.FIGURE2_KEY == oracle.FIGURE2_KEY


def test_last_line_is_the_result(capsys):
    rc = run.main(["--workload", "session", "--seed", "1", "--seconds", "0.1",
                   "--trace", "0", "--scale", "smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == workloads.op_count("session", "smoke")
    assert {m: v["unit"] for m, v in result["metrics"].items()} == run.END_TO_END_UNITS


def _fixed_ops():
    return [op for w in workloads.WORKLOADS for op in workloads.fixed_ops(w, 0, "smoke")]


@pytest.mark.parametrize("op", _fixed_ops(), ids=lambda op: op.kind)
def test_checks_pass_right_and_fail_wrong_outputs(op):
    digests, queries = checks.load_digests(), checks.QueryOracle()
    rc, stdout = _cli(op.argv)
    assert checks.check(op, rc, stdout, digests, queries) is None
    assert checks.check(op, 1, stdout, digests, queries) is not None
    assert checks.check(op, rc, stdout.replace("1", "2", 1), digests, queries) is not None


def test_count_check_does_not_trust_a_digest_alone():
    op = workloads.fixed_ops("factor-n10", 0, "smoke")[0]
    rc, stdout = _cli(op.argv)
    wrong = stdout.replace("num_classes=", "num_classes=1")
    digests = {op.key: checks.sha256(wrong)}
    assert "oracle" in checks.check(op, rc, wrong, digests, checks.QueryOracle())


def test_query_check_compares_with_enumerated_class():
    queries = checks.QueryOracle()
    for op in workloads.query_ops(5, 0, "smoke"):
        rc, stdout = _cli(op.argv)
        assert checks.check(op, rc, stdout, {}, queries) is None
        lines = stdout.splitlines()
        if len(lines) > 1:
            truncated = "\n".join(lines[:-1]) + "\n"
            assert "class size" in checks.check(op, rc, truncated, {}, queries)


def test_tracer_reports_missing_hooks_as_absent():
    hooks = tracer.HOOKS + (
        ("permclass.engine", "no_such_function", "span", {}),
        ("permclass.no_such_module", "f", "hot", {"edges": len}),
        ("permclass.perms", "rank", "hot", {"edges": len}),  # len(int) fails: counter stays 0
    )
    original = engine.enumerate_classes
    t = tracer.Tracer(hooks)
    t.install()
    try:
        assert engine.enumerate_classes is not original
        _cli(workloads.fixed_ops("factor-n10", 0, "smoke")[0].argv)
    finally:
        t.uninstall()
    assert engine.enumerate_classes is original
    report = t.report()
    assert report["absent"] == ["engine.no_such_function", "no_such_module.f"]
    assert report["hooks"]["engine.no_such_function"]["calls"] == 0
    assert report["hooks"]["no_such_module.f"]["edges"] == 0
    assert report["hooks"]["perms.rank"]["calls"] > 0
    assert report["hooks"]["perms.rank"]["edges"] == 0
    assert report["hooks"]["engine.enumerate_classes"]["calls"] == 1
    assert report["hooks"]["engine.kernels_numpy.factor_edges"]["edges"] > 0


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "factor-n10", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
