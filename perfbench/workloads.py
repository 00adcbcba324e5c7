"""The three workloads: their inputs, the CLI commands they run, and the
checks on what those commands produce.

Inputs come from the seed through gemkit's public API only (``random_graph``,
``canonical_matchings``, ``format_catalogue``, ``format_gem``,
``gemkit.library``) and reach the program as files and argv.  `prepare`
writes them into a work directory and returns a `Plan`; `verify` reads one
pass's result and returns, per timed command, None or the reason it failed.
Where the seed draws random inputs for the commands themselves (``reduce``),
each pass gets its own draw, so one run measures several.
``tiny=True`` shrinks every workload for the smoke test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from gemkit import (
    Catalogue,
    CensusParams,
    ColoredGraph,
    DisconnectedError,
    Equivalence,
    GemError,
    format_catalogue,
    format_code_line,
    format_gem,
    parse_catalogue,
    parse_gem,
    random_graph,
)
from gemkit import library
from gemkit.graph import canonical_matchings

@dataclass
class Plan:
    workload: str
    draws: list  # per draw, the timed argv lists in run order; pass k runs draw k mod len
    checks: list  # argv lists run after the timed ones, untimed
    expect: list  # per timed command, what verify compares against
    items: int = 0  # unit of work per pass, when known before running
    classes: int = 0  # census classes emitted per pass
    notes: list = field(default_factory=list)

    def timed(self, k: int) -> list:
        """The timed commands of pass k."""
        return self.draws[k % len(self.draws)]


# ============================================================
# census: enumeration only, deterministic
# ============================================================

# (enumerate arguments, count, bipartite, non-bipartite).  The n=4 order-4 and
# order-6 supercontracted counts are the paper's 1/2 and 8/31; the others are
# regression anchors from this engine.
CENSUSES = (
    (("--n", "3", "--order", "8"), 266, 47, 219),
    (("--n", "3", "--order", "8", "--supercontracted", "--eq", "color-preserving"), 2589, 174, 2415),
    (("--n", "4", "--order", "4", "--supercontracted"), 3, 1, 2),
    (("--n", "4", "--order", "6", "--supercontracted"), 39, 8, 31),
    (("--n", "4", "--order", "6"), 47, 12, 35),
    (("--n", "5", "--order", "4"), 6, 3, 3),
)


def census_plan(seed: int, workdir: str, tiny: bool = False) -> Plan:
    del seed, workdir  # deterministic: the seed changes nothing
    runs = CENSUSES[2:3] if tiny else CENSUSES
    timed, expect = [], []
    for i, (args, count, bip, nonbip) in enumerate(runs):
        timed.append(["enumerate", *args, "-o", f"census{i}.cat"])
        expect.append({"file": f"census{i}.cat", "count": count, "bip": bip, "nonbip": nonbip})
    classes = sum(e["count"] for e in expect)
    return Plan("census", [timed], [], expect, items=classes, classes=classes,
                notes=["census is deterministic: --seed is ignored"])


def _verify_census(plan: Plan, result: dict, workdir: str) -> tuple[list, int]:
    failures: list[Optional[str]] = []
    for exp, run in zip(plan.expect, result["timed"]):
        want = f"count={exp['count']} bipartite={exp['bip']} nonbipartite={exp['nonbip']}"
        if run["rc"] != 0:
            failures.append(f"exit code {run['rc']}: {run['err'].strip()}")
        elif run["out"].strip() != want:
            failures.append(f"printed {run['out'].strip()!r}, expected {want!r}")
        else:
            failures.append(_catalogue_problem(f"{workdir}/{exp['file']}", exp["count"]))
    return failures, plan.items


def _catalogue_problem(path: str, count: int) -> Optional[str]:
    """None when the file re-parses to `count` entries and its footer agrees."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        parsed = parse_catalogue(text).count
    except (OSError, GemError) as exc:
        return f"{path}: {exc}"
    footer = text.rstrip("\n").rsplit("\n", 1)[-1]
    if parsed != count or not footer.startswith(f"# count={count} "):
        return f"{path}: re-parses to {parsed} entries, footer {footer!r}, expected {count}"
    return None


# ============================================================
# survey: report over catalogues, then analyze single graphs
# ============================================================

SURVEY_ORDERS = (8, 12, 16, 20)
SURVEY_PER_CATALOGUE = 150
SURVEY_ANALYZE = 160
IDENTITIES_LINE = "# identities: all hold"


def _bipartite_graph(n: int, order: int, rng: random.Random) -> ColoredGraph:
    """A random connected bipartite graph: color 0 standard, every other
    color a random perfect matching between even and odd vertices."""
    p = order // 2
    base = tuple(v + 1 if v % 2 == 0 else v - 1 for v in range(order))
    while True:
        rows = [base]
        for _ in range(n):
            image = list(range(p))
            rng.shuffle(image)
            row = [0] * order
            for i, j in enumerate(image):
                row[2 * i], row[2 * j + 1] = 2 * j + 1, 2 * i
            rows.append(tuple(row))
        try:
            return ColoredGraph(rows)
        except DisconnectedError:
            continue


class _DistinctDraws:
    """Graphs pairwise non-isomorphic (color-preserving), alternating the
    bipartite generator and `random_graph`."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.seen: set = set()
        self.drawn = 0

    def draw(self, order: int) -> ColoredGraph:
        while True:
            if self.drawn % 2 == 0:
                g = _bipartite_graph(4, order, self.rng)
            else:
                g = random_graph(4, order, self.rng)
            table = canonical_matchings(g.matchings)
            if table not in self.seen:
                self.seen.add(table)
                self.drawn += 1
                return g


def survey_plan(seed: int, workdir: str, tiny: bool = False) -> Plan:
    rng = random.Random(seed)
    draws = _DistinctDraws(rng)
    orders = SURVEY_ORDERS[:1] if tiny else SURVEY_ORDERS
    per = 4 if tiny else SURVEY_PER_CATALOGUE
    n_analyze = 4 if tiny else SURVEY_ANALYZE
    timed, checks, expect = [], [], []
    for order in orders:
        graphs = [ColoredGraph(canonical_matchings(draws.draw(order).matchings))
                  for _ in range(per)]
        bip = sum(1 for g in graphs if g.is_bipartite() is not None)
        cat = Catalogue(
            CensusParams(4, order, Equivalence.COLOR_PRESERVING),
            tuple(sorted(format_code_line(g) for g in graphs)),
            bip,
            per - bip,
        )
        path = f"survey{order}.cat"
        with open(f"{workdir}/{path}", "w", encoding="utf-8") as fh:
            fh.write(format_catalogue(cat))
        timed.append(["report", path])
        expect.append({"report": order, "count": per})
    # drawn after the catalogues, so none of them is a catalogue entry
    for j in range(n_analyze):
        g = draws.draw(orders[j % len(orders)])
        perm = list(range(g.order))
        rng.shuffle(perm)
        for name, graph in ((f"a{j}.gem", g), (f"a{j}r.gem", g.relabel(perm))):
            with open(f"{workdir}/{name}", "w", encoding="utf-8") as fh:
                fh.write(format_gem(graph))
        timed.append(["analyze", "--format", "records", f"a{j}.gem"])
        checks.append(["analyze", "--format", "records", f"a{j}r.gem"])
        expect.append({"analyze": j})
    return Plan("survey", [timed], checks, expect, items=len(orders) * per + n_analyze)


def _verify_survey(plan: Plan, result: dict, workdir: str) -> tuple[list, int]:
    del workdir
    failures: list[Optional[str]] = []
    for exp, run in zip(plan.expect, result["timed"]):
        if run["rc"] != 0:
            failures.append(f"exit code {run['rc']}: {run['err'].strip()}")
        elif "report" in exp:
            failures.append(_report_problem(run["out"], exp["report"], exp["count"]))
        else:
            check = result["checks"][exp["analyze"]]
            if check["rc"] != 0:
                failures.append(f"relabeled copy: exit code {check['rc']}")
            elif _records(run["out"]) != _records(check["out"]):
                failures.append(
                    f"records differ from a relabeling: {run['out']!r} vs {check['out']!r}"
                )
            else:
                failures.append(None)
    return failures, plan.items


def _report_problem(text: str, order: int, count: int) -> Optional[str]:
    lines = text.splitlines()
    head = f"census n=4 order={order} count={count} "
    if not lines or not lines[0].startswith(head):
        return f"report header {lines[:1]!r}, expected {head!r}..."
    if len(lines) != count + 4:
        return f"report has {len(lines) - 4} entry lines, expected {count}"
    if lines[-1] != IDENTITIES_LINE:
        return f"report ends {lines[-1]!r}, expected {IDENTITIES_LINE!r}"
    return None


def _records(text: str) -> dict:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


# ============================================================
# reduce: inflate then simplify the library fixtures
# ============================================================

# (fixture, dipoles added, a sphere that must reduce to order 2)
REDUCTIONS = (
    ("k2(4)", 25, True),
    ("k2(4)", 50, True),
    ("q4", 40, True),
    ("torus_disk", 40, False),
    ("order4_nonbipartite(1)", 40, False),
    ("rp3", 40, False),
)
TINY_REDUCTIONS = (("k2(4)", 3, True), ("q4", 3, True), ("rp3", 2, False))
REDUCE_DRAWS = 8  # inflation seeds per command; passes beyond this reuse them
# invariants of the manifold that proper dipole moves preserve
KEPT = ("chi_M", "chi_hatM", "h1", "closed", "boundary_components", "singular_dimension")

_FIXTURES = {
    "k2(4)": lambda: library.k2(4),
    "q4": library.q4,
    "torus_disk": library.torus_disk,
    "order4_nonbipartite(1)": lambda: library.order4_nonbipartite(1),
    "rp3": library.rp3,
}


def reduce_plan(seed: int, workdir: str, tiny: bool = False) -> Plan:
    rng = random.Random(seed)
    reductions = TINY_REDUCTIONS if tiny else REDUCTIONS
    checks, expect = [], []
    for i, (name, k, sphere) in enumerate(reductions):
        fixture = _FIXTURES[name]()
        with open(f"{workdir}/fixture{i}.gem", "w", encoding="utf-8") as fh:
            fh.write(format_gem(fixture))
        checks.append(["analyze", "--format", "records", f"out{i}.gem"])
        checks.append(["analyze", "--format", "records", f"fixture{i}.gem"])
        expect.append({"name": name, "k": k, "sphere": sphere, "order": fixture.order,
                       "out": f"out{i}.gem"})
    # the cost of one inflation varies by tens of percent with its random
    # dipoles, so every pass draws new ones and a run measures several
    draws = [
        [
            ["transform", "--inflate", str(k), "--seed", str(rng.randrange(1 << 30)),
             "--simplify", f"fixture{i}.gem", "-o", f"out{i}.gem"]
            for i, (name, k, sphere) in enumerate(reductions)
        ]
        for _ in range(REDUCE_DRAWS)
    ]
    return Plan("reduce", draws, checks, expect)


def _verify_reduce(plan: Plan, result: dict, workdir: str) -> tuple[list, int]:
    failures: list[Optional[str]] = []
    cancelled = 0
    for i, (exp, run) in enumerate(zip(plan.expect, result["timed"])):
        if run["rc"] != 0:
            failures.append(f"exit code {run['rc']}: {run['err'].strip()}")
            continue
        try:
            with open(f"{workdir}/{exp['out']}", encoding="utf-8") as fh:
                out = parse_gem(fh.read())
        except (OSError, GemError) as exc:
            failures.append(f"{exp['out']}: {exc}")
            continue
        cancelled += (exp["order"] + 2 * exp["k"] - out.order) // 2
        got, want = result["checks"][2 * i], result["checks"][2 * i + 1]
        if exp["sphere"] and out.order != 2:
            failures.append(f"{exp['name']} stopped at order {out.order}, not 2")
        elif got["rc"] != 0 or want["rc"] != 0:
            failures.append(f"analyze exit codes {got['rc']} (output), {want['rc']} (fixture)")
        else:
            a, b = _records(got["out"]), _records(want["out"])
            moved = [key for key in KEPT if a.get(key) != b.get(key)]
            failures.append(
                f"{exp['name']}: {', '.join(moved)} changed" if moved else None
            )
    return failures, cancelled


_PLANS = {"census": census_plan, "survey": survey_plan, "reduce": reduce_plan}
_VERIFY = {"census": _verify_census, "survey": _verify_survey, "reduce": _verify_reduce}


def prepare(workload: str, seed: int, workdir: str, tiny: bool = False) -> Plan:
    return _PLANS[workload](seed, workdir, tiny)


def verify(plan: Plan, result: dict, workdir: str) -> tuple[list, int]:
    """Per timed command None or a failure reason, and the items done."""
    return _VERIFY[plan.workload](plan, result, workdir)
