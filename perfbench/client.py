"""One benchmark pass: a fresh interpreter with one closed-loop client.

    python3 client.py PLAN.json          (run from the pass's work directory)

Imports ``gemkit.cli`` and prints ``ready`` at once, so the parent can time
set-up from spawn to that line.  Then it calls ``gemkit.cli.main(argv)`` for
each timed command of the plan, each one starting when the previous one
returns, and afterwards for each check command, whose outputs the parent
compares.  Standard output and error of every command are captured.  With
``"trace"`` set in the plan, the layer wrappers of spans.py are installed
before the timed commands and the spans are written when the pass ends.
A plan without commands measures set-up only.
"""

import sys
import time


def main() -> int:
    import gemkit.cli  # noqa: F401  -- the set-up being measured

    print("ready", flush=True)

    import contextlib
    import io
    import json
    import os
    import resource
    import traceback

    with open(sys.argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    tracer = None
    if plan.get("trace"):
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from spans import Tracer

        tracer = Tracer(plan["trace"]["run_id"])
        tracer.install()

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = gemkit.cli.main(argv)
            except Exception:  # a crash fails this command, not the pass
                traceback.print_exc()
                rc = -1
        elapsed = time.perf_counter() - start
        return {"rc": rc, "s": elapsed, "out": out.getvalue(), "err": err.getvalue()}

    start = time.perf_counter()
    timed = [run(argv) for argv in plan["timed"]]
    wall = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.write(plan["trace"]["path"])
    checks = [run(argv) for argv in plan["checks"]]
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(
            {"wall_s": wall, "peak_rss_mb": peak_kb / 1024, "timed": timed, "checks": checks},
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
