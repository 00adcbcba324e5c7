"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs one tiny pass through client.py; its checks pass on two
seeds, and each check rejects a corrupted output.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from gemkit import add_dipole, format_gem  # noqa: E402
from gemkit.library import k2  # noqa: E402


def tiny_pass(workload, seed, workdir, trace_path=None):
    plan = workloads.prepare(workload, seed, str(workdir), tiny=True)
    pass_plan = {"timed": plan.timed(0), "checks": plan.checks}
    if trace_path:
        pass_plan["trace"] = {"run_id": "smoke", "path": str(trace_path)}
    result = run.Spawner(str(workdir), time.perf_counter() + 120).run(pass_plan)
    return plan, result


def failures(plan, result, workdir):
    return workloads.verify(plan, result, str(workdir))[0]


@pytest.mark.parametrize(
    "workload,seed",
    [("census", 0), ("survey", 1), ("survey", 2), ("reduce", 1), ("reduce", 2)],
)
def test_tiny_pass_passes_its_checks(workload, seed, tmp_path):
    plan, result = tiny_pass(workload, seed, tmp_path)
    problems, items = workloads.verify(plan, result, str(tmp_path))
    assert problems == [None] * len(plan.timed(0))
    assert items > 0


def test_wrong_census_count_is_rejected(tmp_path):
    plan, result = tiny_pass("census", 0, tmp_path)
    bad = copy.deepcopy(result)
    bad["timed"][0]["out"] = "count=4 bipartite=1 nonbipartite=3\n"
    assert failures(plan, bad, tmp_path)[0] is not None
    # a catalogue that lost an entry no longer re-parses to its count
    path = tmp_path / plan.expect[0]["file"]
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:1] + lines[2:]) + "\n")
    assert "re-parses to 2" in failures(plan, result, tmp_path)[0]


def test_missing_identities_line_is_rejected(tmp_path):
    plan, result = tiny_pass("survey", 1, tmp_path)
    bad = copy.deepcopy(result)
    report = bad["timed"][0]["out"].splitlines()
    assert report[-1] == workloads.IDENTITIES_LINE
    bad["timed"][0]["out"] = "\n".join(report[:-1]) + "\n"
    found = failures(plan, bad, tmp_path)
    assert found[0] is not None
    assert found[1:] == [None] * (len(found) - 1)


def test_sphere_left_at_order_4_is_rejected(tmp_path):
    plan, result = tiny_pass("reduce", 1, tmp_path)
    assert plan.expect[0]["sphere"]
    (tmp_path / plan.expect[0]["out"]).write_text(format_gem(add_dipole(k2(4), 0, (0,))))
    assert "order 4" in failures(plan, result, tmp_path)[0]


def test_traced_pass_reports_every_layer(tmp_path):
    trace_path = tmp_path / "reduce.spans"
    plan, result = tiny_pass("reduce", 1, tmp_path, trace_path)
    agg = spans.aggregate(str(trace_path))
    problems, cancelled = workloads.verify(plan, result, str(tmp_path))
    assert problems == [None] * len(plan.timed(0))
    metrics = dict(agg, **spans.derived(agg, cancelled, 0, result["wall_s"], result["wall_s"]))
    assert set(spans.METRIC_UNITS) <= set(metrics)
    assert metrics["cli.main.calls"] == len(plan.timed(0))
    assert metrics["moves.cancel_dipole.calls"] == cancelled
    assert metrics["moves.simplify.total_s"] <= metrics["cli.main.total_s"]
    assert 0 < metrics["singularity.sphere_reuse"] < 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        command = json.load(fh)["command"]
    proc = subprocess.run(
        command + ["--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
