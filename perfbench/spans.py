"""Span tracing of gemkit's layers from outside the package.

`install` replaces each traced public function, in every gemkit module
namespace that binds it, by a wrapper that records one span per call: the
function's index, start and end (perf_counter_ns) and the enclosing span.
Lazy imports such as ``from .singularity import classify_graph`` inside a
function body read the patched namespace, so they are traced too.  Spans
stay in memory as flat integer arrays; `Tracer.write` saves them when the
pass ends and `aggregate` turns a saved file into per-layer metrics.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import pkgutil
import time

# layer (gemkit module) -> traced public functions
LAYERS: dict[str, tuple[str, ...]] = {
    "graph": ("parse_gem", "parse_code_line", "canonical_matchings", "canonical_code"),
    "residues": ("residue_lattice", "residues", "residue_count"),
    "singularity": ("classify_graph", "sphere_status"),
    "moves": ("find_dipoles", "dipole_sites", "cancel_dipole", "simplify", "inflate"),
    "invariants": ("g_degree", "regular_genus"),
    "groups": ("quotient_presentation", "homology_h1"),
    "census": ("enumerate_census", "parse_catalogue", "format_catalogue", "census_report"),
    "cli": ("main",),
}

SPAN_NAMES: tuple[str, ...] = tuple(
    f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns
)

METRIC_UNITS: dict[str, str] = {}
for _name in SPAN_NAMES:
    METRIC_UNITS[f"{_name}.calls"] = "count"
    METRIC_UNITS[f"{_name}.self_s"] = "s"
    METRIC_UNITS[f"{_name}.total_s"] = "s"
METRIC_UNITS.update({
    "singularity.sphere_status.lattice_builds": "count",
    "singularity.sphere_reuse": "ratio",
    "census.labelings_per_class": "ratio",
    "moves.classify_per_cancel": "ratio",
    "residues.lattices_per_graph": "ratio",
    "invariants.residue_walks_per_gdegree": "ratio",
    "graph.labeling_share": "ratio",
    "trace.overhead": "ratio",
})

_ARRAYS = ("name", "parent", "start", "end")


class Tracer:
    """In-memory span store for one pass (one interpreter, one run id)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.name = array.array("q")
        self.parent = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self._stack: list[int] = []

    def wrap(self, fn, index: int):
        name, parent, start, end, stack = (
            self.name, self.parent, self.start, self.end, self._stack
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(name)
            name.append(index)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    def install(self) -> int:
        """Patch every gemkit namespace; returns the number of bindings."""
        import gemkit

        modules = [gemkit] + [
            importlib.import_module(f"gemkit.{info.name}")
            for info in pkgutil.iter_modules(gemkit.__path__)
        ]
        wrappers = {}
        for index, span in enumerate(SPAN_NAMES):
            layer, fn_name = span.split(".")
            fn = getattr(importlib.import_module(f"gemkit.{layer}"), fn_name)
            wrappers[id(fn)] = self.wrap(fn, index)
        patched = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    patched += 1
        return patched

    def write(self, path: str) -> None:
        """Header line (run id, span names, count) then the four arrays."""
        header = {"run_id": self.run_id, "names": SPAN_NAMES, "spans": len(self.name)}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for key in _ARRAYS:
                getattr(self, key).tofile(fh)


def read_spans(path: str) -> tuple[dict, dict]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        count = header["spans"]
        cols = {}
        for key in _ARRAYS:
            col = array.array("q")
            col.fromfile(fh, count)
            cols[key] = col
    return header, cols


def aggregate(path: str) -> dict[str, float]:
    """calls, self_s and total_s for every traced function, plus the span
    counts the derived ratios need (which `derived` turns into metrics).

    total_s sums only spans with no enclosing span of the same function, so
    recursion (sphere_status) is not counted twice; self_s subtracts the
    time direct child spans cover.
    """
    header, cols = read_spans(path)
    names = header["names"]
    k = len(names)
    name, parent, start, end = cols["name"], cols["parent"], cols["start"], cols["end"]
    idx = {n: i for i, n in enumerate(names)}
    i_lattice = idx["residues.residue_lattice"]
    i_sphere = idx["singularity.sphere_status"]
    i_residues = idx["residues.residues"]
    i_gdeg = idx["invariants.g_degree"]
    labeling = (idx["graph.canonical_matchings"], idx["graph.canonical_code"])

    calls = [0] * k
    self_ns = [0] * k
    total_ns = [0] * k
    child_ns = [0] * len(name)
    # open[sid]: bit f set when function f encloses span sid or is sid itself;
    # spans are stored in start order, so a parent precedes its children
    open_ = [0] * len(name)
    label_bits = (1 << labeling[0]) | (1 << labeling[1])
    lattice_builds = 0
    built = set()
    walks_in_gdeg = 0
    labeling_ns = 0
    for sid in range(len(name)):
        f = name[sid]
        dur = end[sid] - start[sid]
        calls[f] += 1
        p = parent[sid]
        above = 0
        if p >= 0:
            above = open_[p]
            child_ns[p] += dur
            if f == i_lattice and name[p] == i_sphere and p not in built:
                built.add(p)
                lattice_builds += 1
        open_[sid] = above | (1 << f)
        if not (above >> f) & 1:
            total_ns[f] += dur
        if f == i_residues and (above >> i_gdeg) & 1:
            walks_in_gdeg += 1
        if (label_bits >> f) & 1 and not above & label_bits:
            labeling_ns += dur
    for sid in range(len(name)):
        self_ns[name[sid]] += end[sid] - start[sid] - child_ns[sid]

    out: dict[str, float] = {}
    for i, n in enumerate(names):
        out[f"{n}.calls"] = calls[i]
        out[f"{n}.self_s"] = self_ns[i] / 1e9
        out[f"{n}.total_s"] = total_ns[i] / 1e9
    out["singularity.sphere_status.lattice_builds"] = lattice_builds
    out["_walks_in_gdegree"] = walks_in_gdeg
    out["_labeling_s"] = labeling_ns / 1e9
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derived(agg: dict[str, float], items: int, classes: int,
            wall_traced: float, wall_plain: float) -> dict[str, float]:
    """The ratio metrics; a ratio whose base is zero reads 0.  `items` is the
    workload's unit of work, `classes` the census classes emitted."""
    sphere_calls = agg["singularity.sphere_status.calls"]
    return {
        "singularity.sphere_reuse": (
            1.0 - _ratio(agg["singularity.sphere_status.lattice_builds"], sphere_calls)
            if sphere_calls else 0.0
        ),
        "census.labelings_per_class": _ratio(
            agg["graph.canonical_matchings.calls"], classes
        ),
        "moves.classify_per_cancel": _ratio(
            agg["singularity.classify_graph.calls"], agg["moves.cancel_dipole.calls"]
        ),
        "residues.lattices_per_graph": _ratio(agg["residues.residue_lattice.calls"], items),
        "invariants.residue_walks_per_gdegree": _ratio(
            agg["_walks_in_gdegree"], agg["invariants.g_degree.calls"]
        ),
        "graph.labeling_share": _ratio(agg["_labeling_s"], wall_traced),
        "trace.overhead": _ratio(wall_traced, wall_plain),
    }
