"""Command-line behavior: reports, transforms, enumeration, exit codes,
golden record output."""

import os
import random
import subprocess
import sys

import pytest

import gemkit
from gemkit import classify_graph, cli, format_gem, library, parse_gem
from gemkit.census import CensusParams, enumerate_census, format_catalogue, random_graph
from gemkit.cli import main
from gemkit.groups import connecting_relators
from gemkit.library import q4, torus6
from gemkit.moves import inflate
from gemkit.singularity import h1_quasi_manifold

_SRC = os.path.dirname(os.path.dirname(gemkit.__file__))


def run_cli(*argv):
    """Run the CLI in a child interpreter that imports the gemkit under test."""
    path = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
    cmd = [sys.executable, "-m", "gemkit.cli", *argv]
    return subprocess.run(cmd, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})


@pytest.fixture
def q4_file(tmp_path):
    path = tmp_path / "q4.gem"
    path.write_text(format_gem(q4()), encoding="utf-8")
    return str(path)


@pytest.fixture
def t6_file(tmp_path):
    path = tmp_path / "t6.gem"
    path.write_text(format_gem(torus6()), encoding="utf-8")
    return str(path)


def test_validate(q4_file):
    result = run_cli("validate", q4_file)
    assert result.returncode == 0
    assert "ok n=4 order=4" in result.stdout


def test_validate_bad_file(tmp_path):
    bad = tmp_path / "bad.gem"
    bad.write_text("gem 1 4\n0: 1 0 3 2\n1: 0 1 3 2\n", encoding="utf-8")
    result = run_cli("validate", str(bad))
    assert result.returncode == 2
    assert "gemkit:" in result.stderr


def test_missing_file_is_input_error():
    result = run_cli("validate", "/nonexistent/x.gem")
    assert result.returncode == 2


def test_usage_error_exit_code():
    result = run_cli("analyze")  # missing positional
    assert result.returncode == 1


def test_analyze_q4_report(q4_file):
    result = run_cli("analyze", q4_file)
    assert result.returncode == 0
    for token in (
        "bipartite=true",
        "supercontracted=true",
        "chi_hatM=2",
        "omega_G_reduced=2",
    ):
        assert token in result.stdout


def test_analyze_records_sorted_and_stable(q4_file):
    r1 = run_cli("analyze", q4_file, "--format", "records")
    r2 = run_cli("analyze", q4_file, "--format", "records")
    assert r1.stdout == r2.stdout
    keys = [line.split("=", 1)[0] for line in r1.stdout.strip().splitlines()]
    assert keys == sorted(keys)


GOLDEN_Q4_RECORDS = """\
bipartite=true
boundary_components=0
chi_M=2
chi_hatM=2
chi_singular=0
closed=true
h1=0
n=4
omega_G=6
omega_G_reduced=2
order=4
rho_G=1
singular_dimension=empty
singular_manifold=true
supercontracted=true
"""


def test_analyze_golden_records(q4_file):
    result = run_cli("analyze", q4_file, "--format", "records")
    assert result.returncode == 0
    assert result.stdout == GOLDEN_Q4_RECORDS


def test_transform_double_suspension_analysis(t6_file, tmp_path):
    out = tmp_path / "ftb.gem"
    result = run_cli("transform", "--suspend", "1", "--suspend", "2", t6_file, "-o", str(out))
    assert result.returncode == 0
    g = parse_gem(out.read_text(encoding="utf-8"))
    assert g.n == 4 and g.order == 6

    analysis = run_cli("analyze", str(out), "--format", "records")
    assert "boundary_components=1" in analysis.stdout
    assert "h1=Z+Z" in analysis.stdout


def test_transform_inflate_seed_reproducible(q4_file):
    a = run_cli("transform", "--inflate", "3", "--seed", "7", q4_file)
    b = run_cli("transform", "--inflate", "3", "--seed", "7", q4_file)
    c = run_cli("transform", "--inflate", "3", "--seed", "8", q4_file)
    assert a.stdout == b.stdout
    assert a.stdout != c.stdout


def test_transform_negative_inflate_is_usage_error(q4_file):
    result = run_cli("transform", "--inflate", "-4", q4_file)
    assert result.returncode == 1
    assert "--inflate" in result.stderr
    assert result.stdout == ""


def test_transform_simplify(q4_file):
    result = run_cli("transform", "--simplify", q4_file)
    assert result.returncode == 0
    g = parse_gem(result.stdout)
    assert g.order == 2


def test_gdegree_records(q4_file):
    result = run_cli("gdegree", q4_file, "--format", "records")
    assert result.returncode == 0
    assert "omega_G=6" in result.stdout
    assert "check_subdegree=true" in result.stdout


def test_group_output(q4_file):
    result = run_cli("group", q4_file, "--color", "0", "--target", "m")
    assert result.returncode == 0
    assert result.stdout.startswith("gen g0")
    assert "h1=0" in result.stdout


def test_group_cgroup_of_bicolored_cycle(tmp_path, capsys):
    """`group --target cgroup` presents a bicolored cycle of order 8 by its
    four color-c edges and the one {i, c}-cycle, for either color c."""
    path = tmp_path / "cycle.gem"
    path.write_text(format_gem(random_graph(1, 8, random.Random(1))), encoding="utf-8")
    for c in (0, 1):
        assert main(["group", "--color", str(c), "--target", "cgroup", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.count("gen ") == 4 and out.count("rel ") == 1
        assert out.endswith("h1=Z+Z+Z\n")


_GROUP_FIXTURES = {
    "k2(2)": lambda: library.k2(2),
    "k2(3)": lambda: library.k2(3),
    "k2(4)": lambda: library.k2(4),
    "torus6": library.torus6,
    "torus_interval": library.torus_interval,
    "torus_disk": library.torus_disk,
    "q4": library.q4,
    "order4_nonbipartite(0)": lambda: library.order4_nonbipartite(0),
    "order4_nonbipartite(1)": lambda: library.order4_nonbipartite(1),
    "rp3": library.rp3,
}
_GROUP_PINNED = os.path.join(os.path.dirname(__file__), "group_outputs.txt")


def test_group_outputs_pinned(tmp_path, capsys):
    """`group` prints, byte for byte, the pinned presentation and H1 for
    every library fixture, color and target whose hypothesis holds, and
    exits 3 for every other one."""
    with open(_GROUP_PINNED, encoding="utf-8") as fh:
        blocks = fh.read().split("== ")[1:]
    pinned = dict(block.split("\n", 1) for block in blocks)
    ran = set()
    for name, make in _GROUP_FIXTURES.items():
        g = make()
        path = tmp_path / "g.gem"
        path.write_text(format_gem(g), encoding="utf-8")
        for c in g.colors:
            for target in ("m", "hatm", "cgroup"):
                key = f"{name} {c} {target}"
                rc = main(["group", "--color", str(c), "--target", target, str(path)])
                out = capsys.readouterr().out
                if key in pinned:
                    assert (rc, out) == (0, pinned[key]), key
                    ran.add(key)
                else:
                    assert rc == 3, key
    assert ran == set(pinned)


_GDEGREE_PINNED = os.path.join(os.path.dirname(__file__), "gdegree_outputs.txt")


def test_gdegree_outputs_pinned(tmp_path, capsys):
    """`gdegree --format text` prints, byte for byte, the pinned genera,
    G-degree and dimension-four checks for every library fixture with at
    least three colors and every entry of the n=4 order-6 census."""
    with open(_GDEGREE_PINNED, encoding="utf-8") as fh:
        blocks = fh.read().split("== ")[1:]
    pinned = dict(block.split("\n", 1) for block in blocks)
    cat = enumerate_census(CensusParams(n=4, order=6))
    graphs = {name: make() for name, make in _GROUP_FIXTURES.items()}
    graphs.update(zip(cat.entries, cat.graphs()))
    assert set(graphs) == set(pinned)
    path = tmp_path / "g.gem"
    for name, g in graphs.items():
        path.write_text(format_gem(g), encoding="utf-8")
        rc = main(["gdegree", "--format", "text", str(path)])
        assert (rc, capsys.readouterr().out) == (0, pinned[name]), name


_ANALYZE_PINNED = os.path.join(os.path.dirname(__file__), "analyze_outputs.txt")


def test_analyze_outputs_pinned(tmp_path, capsys):
    """`analyze --format records` prints, byte for byte, the pinned records
    for every library fixture and every entry of the n=4 order-6 census,
    and `report` the pinned survey of that census."""
    with open(_ANALYZE_PINNED, encoding="utf-8") as fh:
        blocks = fh.read().split("== ")[1:]
    pinned = dict(block.split("\n", 1) for block in blocks)
    cat = enumerate_census(CensusParams(n=4, order=6))
    graphs = {name: make() for name, make in _GROUP_FIXTURES.items()}
    graphs.update(zip(cat.entries, cat.graphs()))
    assert set(graphs) | {"report"} == set(pinned)
    path = tmp_path / "g.gem"
    for name, g in graphs.items():
        path.write_text(format_gem(g), encoding="utf-8")
        rc = main(["analyze", "--format", "records", str(path)])
        assert (rc, capsys.readouterr().out) == (0, pinned[name]), name
    path = tmp_path / "o6.cat"
    path.write_text(format_catalogue(cat), encoding="utf-8")
    rc = main(["report", str(path)])
    assert (rc, capsys.readouterr().out) == (0, pinned["report"])


_H1_RELATOR_PINNED = os.path.join(os.path.dirname(__file__), "h1_relator_outputs.txt")


def _h1_relator_lines():
    """One line per graph: H1 of the cone space and, for every color c, the
    connecting relators' c-edge indices.  The graphs are the library
    fixtures, each also with six seeded dipoles, the censuses n=4 of order
    6, n=3 of order 8, n=5 of order 4 and n=2 of order 8, and 24 seeded
    random graphs."""
    graphs = {name: make() for name, make in _GROUP_FIXTURES.items()}
    graphs.update({f"inflate({name},6,{seed})": inflate(make(), 6, random.Random(seed))
                   for seed, (name, make) in enumerate(_GROUP_FIXTURES.items())})
    for n, order in ((4, 6), (3, 8), (5, 4), (2, 8)):
        cat = enumerate_census(CensusParams(n=n, order=order))
        graphs.update(zip(cat.entries, cat.graphs()))
    rng = random.Random(19)
    for k in range(24):
        graphs[f"random_graph({k})"] = random_graph(2 + k % 4, rng.randrange(4, 17, 2), rng)
    for name, g in graphs.items():
        relators = (",".join(map(str, connecting_relators(g, c))) or "-" for c in g.colors)
        yield f"{name} h1={h1_quasi_manifold(g)} relators={' '.join(relators)}\n"


def test_h1_relator_outputs_pinned():
    """H1 of the cone space and the connecting relators, which read the
    lattice's vertex-to-residue index, are pinned for every graph of
    `_h1_relator_lines`, line for line."""
    with open(_H1_RELATOR_PINNED, encoding="utf-8") as fh:
        pinned = fh.readlines()
    assert list(_h1_relator_lines()) == pinned


@pytest.fixture
def unresolved_q4(monkeypatch):
    """Every command loads q4 with the classification a zero reduction
    budget leaves, which holds unknown residues."""
    g = q4()
    g.__dict__["classification"] = classify_graph(g, step_limit=0)
    assert g.classification.unresolved
    monkeypatch.setattr(cli, "_load", lambda path: g)
    return g


def test_analyze_unresolved_exit_code(unresolved_q4, capsys):
    """Unknown residues give exit code 3 and `unknown` for every field read
    from the residue classes, never a guess."""
    assert main(["analyze", "--format", "records", "q4.gem"]) == 3
    rec = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    derived = ("chi_M", "chi_hatM", "chi_singular", "closed", "singular_manifold",
               "boundary_components", "singular_dimension", "h1")
    assert {key: rec[key] for key in derived} == dict.fromkeys(derived, "unknown")
    assert (rec["n"], rec["order"]) == ("4", "4")


def test_transform_internalize_unresolved_exit_code(unresolved_q4, capsys):
    """`transform --internalize` needs every residue classified; on unknown
    ones it refuses with exit code 3 and writes no graph."""
    assert main(["transform", "--internalize", "q4.gem"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("gemkit: unresolved:")


def test_group_hypothesis_violation_exit_code(t6_file, tmp_path):
    out = tmp_path / "ftb.gem"
    run_cli("transform", "--suspend", "1", "--suspend", "2", t6_file, "-o", str(out))
    result = run_cli("group", str(out), "--color", "1", "--target", "m")
    assert result.returncode == 3
    assert "unresolved" in result.stderr


def test_classify(q4_file):
    result = run_cli("classify", q4_file)
    assert result.stdout.strip() == "S4"


def test_enumerate_footer_counts():
    result = run_cli(
        "enumerate", "--n", "4", "--order", "4", "--supercontracted",
        "--eq", "color-permuting",
    )
    assert result.returncode == 0
    assert "# count=3 bipartite=1 nonbipartite=2" in result.stdout


def test_enumerate_order6_supercontracted_footer():
    result = run_cli(
        "enumerate", "--n", "4", "--order", "6", "--supercontracted",
        "--eq", "color-permuting",
    )
    assert result.returncode == 0
    assert "count=39" in result.stdout
    assert "bipartite=8" in result.stdout
    assert "nonbipartite=31" in result.stdout


def test_enumerate_budget_exit_code():
    result = run_cli("enumerate", "--n", "4", "--order", "12")
    assert result.returncode == 4


@pytest.mark.parametrize(
    "n, order, message",
    [("0", "4", "gemkit: dimension must be >= 1"),
     ("3", "5", "gemkit: order must be even and >= 2")],
    ids=["n0", "order5"],
)
def test_enumerate_bad_shape_is_input_error(n, order, message):
    """Census parameters naming no graph shape are an input error, held to
    the same check as a catalogue header, before the budget is read."""
    result = run_cli("enumerate", "--n", n, "--order", order)
    assert result.returncode == 2
    assert result.stderr.strip() == message
    assert result.stdout == ""


def test_enumerate_report_round_trip(tmp_path):
    cat_file = tmp_path / "o4.cat"
    run_cli("enumerate", "--n", "4", "--order", "4", "--supercontracted",
            "-o", str(cat_file))
    result = run_cli("report", str(cat_file))
    assert result.returncode == 0
    assert "identities: all hold" in result.stdout
    assert "name=S4" in result.stdout


def test_report_truncated_catalogue_is_input_error(tmp_path):
    cat_file = tmp_path / "o6.cat"
    run_cli("enumerate", "--n", "4", "--order", "6", "--supercontracted",
            "-o", str(cat_file))
    lines = cat_file.read_text(encoding="utf-8").splitlines(keepends=True)
    cat_file.write_text("".join(lines[:20]), encoding="utf-8")
    result = run_cli("report", str(cat_file))
    assert result.returncode == 2
    assert "footer" in result.stderr
    assert result.stdout == ""


def test_report_catalogue_header_mismatch_is_input_error(tmp_path):
    cat_file = tmp_path / "o4.cat"
    run_cli("enumerate", "--n", "4", "--order", "4", "--supercontracted",
            "-o", str(cat_file))
    text = cat_file.read_text(encoding="utf-8")
    cat_file.write_text(text.replace(" n=4 order=4 ", " n=3 order=6 ", 1), encoding="utf-8")
    result = run_cli("report", str(cat_file))
    assert result.returncode == 2
    assert "header says n=3 order=6" in result.stderr
    assert result.stdout == ""


def test_report_catalogue_not_supercontracted_is_input_error(tmp_path):
    """A plain order-6 census tagged supercontracted holds 8 entries the
    filter excludes, so it is refused rather than reported."""
    cat_file = tmp_path / "o6.cat"
    run_cli("enumerate", "--n", "4", "--order", "6", "-o", str(cat_file))
    text = cat_file.read_text(encoding="utf-8")
    cat_file.write_text(
        text.replace("filters=connected", "filters=connected,supercontracted", 1),
        encoding="utf-8",
    )
    result = run_cli("report", str(cat_file))
    assert result.returncode == 2
    assert "is not supercontracted" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("n, order", [("-3", "5"), ("0", "2"), ("3", "0"), ("3", "7")])
def test_report_catalogue_bad_shape_is_input_error(tmp_path, n, order):
    """A header naming no graph shape is refused, even with no entries to
    contradict it."""
    cat_file = tmp_path / "bad.cat"
    cat_file.write_text(
        f"# gemkit-census v1 n={n} order={order} eq=color-permuting filters=connected\n"
        "# count=0 bipartite=0 nonbipartite=0\n",
        encoding="utf-8",
    )
    result = run_cli("report", str(cat_file))
    assert result.returncode == 2
    assert "bad catalogue header" in result.stderr
    assert result.stdout == ""


def test_export_dot(q4_file):
    result = run_cli("export-dot", q4_file)
    assert result.returncode == 0
    assert result.stdout.startswith("graph gem {")
    assert result.stdout.rstrip().endswith("}")


def test_main_callable_in_process(q4_file, capsys):
    assert main(["classify", q4_file]) == 0
    assert capsys.readouterr().out.strip() == "S4"


def test_main_twice_in_one_process(t6_file, q4_file, capsys):
    """The parser is built once per process; no call leaks state into the
    next one, the appended --suspend list and a usage error included."""
    assert main(["transform", "--suspend", "1", t6_file]) == 0
    assert parse_gem(capsys.readouterr().out).n == 3
    assert main(["transform", t6_file]) == 0
    assert len(parse_gem(capsys.readouterr().out).matchings) == 3
    assert main(["analyze"]) == 1
    assert main(["classify", q4_file]) == 0
    assert capsys.readouterr().out.strip() == "S4"
