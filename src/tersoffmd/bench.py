"""Force-kernel benchmark harness.

Times only the force-kernel phase: the neighbor list is built once
outside the timed region (its cost is reported separately in the meta
block) and no I/O happens between timer reads. Each variant runs a few
warmup evaluations, then `repeats` timed passes of `steps` evaluations.
The first evaluation on the list, whatever the variant, also derives the
topology and its triples that every later evaluation reuses
(neighbor.pack_adjacency), so with warmup=0 the first timed pass of the
first variant pays that one-off build. The reported time_s is the
minimum over repeats (cache-warm best case) and the median goes to the
meta block as a stability indicator.

The three renderings (table, CSV, JSON) are generated from one
canonicalized value per cell, so they carry identical numbers by
construction.
"""

import json
import statistics
import time
from dataclasses import dataclass

from .kernels import LANE_TAGS, compute
from .neighbor import build_neighbor_list
from .system import check_int

CSV_FIELDS = ("variant", "backend", "width", "precision", "atoms", "steps",
              "time_s", "speedup_ref", "speedup_scalar", "efficiency",
              "lane_util")


def _canon(value):
    """Round floats to 9 significant digits; the shared cell value."""
    if value is None or isinstance(value, (int, str)):
        return value
    return float(f"{value:.9g}")


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


@dataclass
class BenchRow:
    variant: str
    backend: str
    width: int
    precision: str
    atoms: int
    steps: int
    time_s: float
    speedup_ref: float = None
    speedup_scalar: float = None
    efficiency: float = None
    lane_util: float = None

    def as_dict(self):
        return {f: _canon(getattr(self, f)) for f in CSV_FIELDS}


@dataclass
class BenchReport:
    rows: list
    meta: dict

    def as_dict(self):
        return {"rows": [r.as_dict() for r in self.rows], "meta": self.meta}

    def render(self, fmt="table"):
        if fmt == "json":
            return json.dumps(self.as_dict(), indent=2)
        if fmt == "csv":
            lines = [",".join(CSV_FIELDS)]
            for row in self.rows:
                d = row.as_dict()
                lines.append(",".join(_cell(d[f]) for f in CSV_FIELDS))
            return "\n".join(lines)
        if fmt == "table":
            return self._render_table()
        raise ValueError(f"unknown report format {fmt!r}")

    def _render_table(self):
        cells = [[f for f in CSV_FIELDS]]
        for row in self.rows:
            d = row.as_dict()
            cells.append([_cell(d[f]) for f in CSV_FIELDS])
        widths = [max(len(r[c]) for r in cells) for c in range(len(CSV_FIELDS))]
        lines = []
        for k, r in enumerate(cells):
            lines.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
            if k == 0:
                lines.append("  ".join("-" * w for w in widths))
        med = self.meta.get("median_s", {})
        if med:
            pairs = "  ".join(f"{k}={_cell(_canon(v))}"
                              for k, v in med.items())
            lines.append(f"# median time_s over {self.meta['repeats']} "
                         f"repeats: {pairs}")
        nb = self.meta.get("neighbor_build_s")
        if nb is not None:
            lines.append(f"# neighbor build (untimed phase): "
                         f"{_cell(_canon(nb))} s")
        return "\n".join(lines)


def run_benchmark(state, params, variants, steps=20, warmup=1, repeats=5,
                  skin=0.3):
    """Time the force kernel for each variant on a fixed configuration.

    Returns a BenchReport whose rows follow the order of `variants`.
    Speedup columns need the Reference / ScalarOpt baselines in the same
    run; they stay empty when the baseline variant was not requested. A
    variant listed twice is a ValueError. A steps, warmup or repeats
    value that is not an integer in range (steps, repeats >= 1, warmup
    >= 0; a bool is not an integer) is a ConfigurationError naming the
    count.
    """
    check_int("steps", steps, 1)
    check_int("warmup", warmup, 0)
    check_int("repeats", repeats, 1)
    keys = [var.describe() for var in variants]
    repeated = next((k for n, k in enumerate(keys) if k in keys[:n]), None)
    if repeated is not None:
        raise ValueError(f"variant {repeated} requested twice")
    t0 = time.perf_counter()
    nl = build_neighbor_list(state, params.r_cut, skin)
    neighbor_s = time.perf_counter() - t0

    rows, medians, energies = [], {}, {}
    for var, key in zip(variants, keys):
        for _ in range(warmup):
            res = compute(state, nl, params, var)
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(steps):
                res = compute(state, nl, params, var)
            samples.append(time.perf_counter() - t0)
        medians[key] = statistics.median(samples)
        energies[key] = res.potential_energy
        rows.append(BenchRow(
            variant=var.tag, backend=var.backend.name,
            width=var.backend.width, precision=var.precision,
            atoms=state.natoms, steps=steps, time_s=min(samples),
            lane_util=res.lane_utilization))

    # the speedup columns, once both baselines are timed
    ref_time = next((r.time_s for r in rows if r.variant == "Reference"),
                    None)
    scalar_time = next((r.time_s for r in rows if r.variant == "ScalarOpt"),
                       None)
    for row in rows:
        if ref_time is not None:
            row.speedup_ref = ref_time / row.time_s
        if scalar_time is not None:
            row.speedup_scalar = scalar_time / row.time_s
            if row.variant in LANE_TAGS:
                row.efficiency = row.speedup_scalar / row.width

    meta = {
        "steps": steps, "warmup": warmup, "repeats": repeats,
        "skin": skin, "atoms": state.natoms,
        "neighbor_build_s": neighbor_s,
        "median_s": {k: _canon(v) for k, v in medians.items()},
        "energy": {k: float(v) for k, v in energies.items()},
    }
    return BenchReport(rows, meta)
