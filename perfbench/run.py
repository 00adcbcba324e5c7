"""gemkit benchmark: census, survey and reduce through ``gemkit.cli.main``.

    python3 perfbench/run.py --workload census|survey|reduce --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The inputs are written from the seed into a scratch directory under
``perfbench/_out/`` and handed to the program as files and argv.  A pass is
one fresh interpreter (client.py) running the workload's commands in a fixed
order with one closed-loop client, then the output checks.  Passes repeat
until ``--seconds`` is used up, with at least three plain passes, and the
metrics are medians over passes.  Set-up is timed from spawning an
interpreter until ``gemkit.cli`` is imported, over the passes and two
import-only spawns before each pass.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates plain and traced passes and reports the per-layer
metrics of spans.py, plus ``trace.overhead``.  Human-readable lines go first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
from statistics import fmean, median
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")
CLIENT = os.path.join(HERE, "client.py")

MIN_PASSES = 3  # plain passes per run, even when --seconds is shorter
SETUP_SPAWNS = 2  # import-only spawns before each pass, spreading set-up samples
DEADLINE_S = 170  # a run ends within this, whatever --seconds says


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("census", "survey", "reduce"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Spawner:
    """Runs client.py passes in one work directory, each in a fresh
    interpreter, and times their set-up."""

    def __init__(self, workdir: str, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0", TMPDIR=workdir)
        self.setup_s: list[float] = []
        self.count = 0

    def run(self, plan: dict, record_setup: bool = True) -> dict:
        self.count += 1
        plan = dict(plan, result=f"result{self.count}.json")
        plan_path = os.path.join(self.workdir, f"plan{self.count}.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        err_path = os.path.join(self.workdir, f"stderr{self.count}.txt")
        with open(err_path, "w", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, CLIENT, plan_path],
                cwd=self.workdir, env=self.env, stdout=subprocess.PIPE, stderr=err,
            )
            try:
                if select.select([proc.stdout], [], [], self._left())[0]:
                    line = proc.stdout.readline()
                    ready = time.perf_counter()
                else:
                    line = b""
                proc.stdout.close()
                rc = proc.wait(timeout=self._left())
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line != b"ready\n" or rc != 0:
            with open(err_path, encoding="utf-8") as fh:
                raise RuntimeError(f"pass failed (exit {proc.returncode}): {fh.read()[-2000:]}")
        if record_setup:
            self.setup_s.append(ready - start)
        with open(os.path.join(self.workdir, plan["result"]), encoding="utf-8") as fh:
            return json.load(fh)

    def _left(self) -> float:
        return max(1.0, self.deadline - time.perf_counter())


def _percentile(xs, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(xs)
    return ordered[min(len(ordered) - 1, max(0, int(round(q * len(ordered))) - 1))]


def measure(args, workdir: str) -> tuple[list, dict]:
    """Prepare, run passes until the time is used, verify every pass; the
    report lines and the result object."""
    import spans
    import workloads

    deadline = time.perf_counter() + DEADLINE_S
    plan = workloads.prepare(args.workload, args.seed, workdir)
    spawner = Spawner(workdir, deadline)
    idle = {"timed": [], "checks": []}
    spawner.run(idle, record_setup=False)  # the first import writes bytecode

    trace_path = os.path.join(OUT, f"{args.workload}.spans")
    passes: dict[str, list] = {"plain": [], "traced": []}
    failures: list[str] = []
    attempted = 0
    start = time.perf_counter()
    while True:
        kind = "traced" if args.trace and len(passes["traced"]) < len(passes["plain"]) else "plain"
        done = passes[kind]
        needed = len(passes["plain"]) < (1 if args.trace else MIN_PASSES) or (
            args.trace and not passes["traced"]
        )
        estimate = fmean(p["pass_s"] for p in done) if done else 0.0
        now = time.perf_counter()
        if now + estimate > deadline or (not needed and now - start + estimate > args.seconds):
            break
        for _ in range(SETUP_SPAWNS):
            spawner.run(idle)
        # a traced pass repeats the draw of the plain pass before it
        timed = plan.timed(len(passes["plain"]) - (kind == "traced"))
        pass_plan = {"timed": timed, "checks": plan.checks}
        if kind == "traced":
            run_id = f"{args.workload}-seed{args.seed}-pass{spawner.count + 1}"
            pass_plan["trace"] = {"run_id": run_id, "path": trace_path}
        result = spawner.run(pass_plan)
        problems, items = workloads.verify(plan, result, workdir)
        attempted += len(problems)
        failures.extend(p for p in problems if p)
        record = {
            "pass_s": time.perf_counter() - now,
            "wall_s": result["wall_s"],
            "command_s": [r["s"] for r in result["timed"]],
            "items": items,
            "peak_rss_mb": result["peak_rss_mb"],
            "analyze_s": [r["s"] for argv, r in zip(timed, result["timed"])
                          if argv[0] == "analyze"],
        }
        if kind == "traced":
            record["layers"] = spans.aggregate(trace_path)
        done.append(record)
    if not passes["plain"] or (args.trace and not passes["traced"]):
        raise RuntimeError(f"no complete pass within {DEADLINE_S} s")

    plain = passes["plain"]
    # each command's median across passes, summed: a burst of machine noise
    # that slows one command in one pass does not move it
    wall = sum(median(col) for col in zip(*(p["command_s"] for p in plain)))
    lines = [
        f"workload={args.workload} seed={args.seed} commands/pass={len(plan.timed(0))} "
        f"plain passes={len(plain)} traced passes={len(passes['traced'])} "
        "(each pass a fresh interpreter, one closed-loop client)",
        *plan.notes,
        "pass wall times: " + " ".join(f"{p['wall_s']:.3f}" for p in plain) + " s",
        f"ops_failed_frac={len(failures) / attempted:.6f} ({len(failures)}/{attempted} commands)",
    ]
    lines += [f"FAILED: {p}" for p in failures[:10]]
    latencies = [s for p in plain for s in p["analyze_s"]]
    if latencies:
        lines.append(
            f"analyze_p50_ms={1000 * median(latencies):.3f} "
            f"analyze_p90_ms={1000 * _percentile(latencies, 0.9):.3f} "
            f"(over {len(latencies)} analyze commands)"
        )
    if args.trace:
        traced = passes["traced"]
        per_pass = [
            dict(p["layers"], **spans.derived(p["layers"], p["items"], plan.classes,
                                              p["wall_s"], pair["wall_s"]))
            for p, pair in zip(traced, plain)
        ]
        metrics = {
            name: {"value": median([m[name] for m in per_pass]), "unit": unit}
            for name, unit in spans.METRIC_UNITS.items()
        }
        lines.append(f"spans of the last traced pass: {trace_path}")
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "items_per_s": {"value": median([p["items"] for p in plain]) / wall,
                            "unit": "1/s"},
            "setup_s": {"value": median(spawner.setup_s), "unit": "s"},
            "peak_rss_mb": {"value": median([p["peak_rss_mb"] for p in plain]), "unit": "MB"},
        }
    lines += [f"{name}={m['value']!r} {m['unit']}" for name, m in metrics.items()]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return lines, result


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gemkit", "cli.py")):
        print(f"run.py: no gemkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        lines, result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
