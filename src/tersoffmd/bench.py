"""Force-kernel benchmark harness.

Times only the force-kernel phase: the neighbor list is built once
outside the timed region (its cost is reported separately in the meta
block) and no I/O happens between timer reads. Each variant runs a few
warmup evaluations, then `repeats` timed passes of `steps` evaluations;
the reported time_s is the minimum over repeats (cache-warm best case)
and the median goes to the meta block as a stability indicator.

The three renderings (table, CSV, JSON) are generated from one
canonicalized value per cell, so they carry identical numbers by
construction.
"""

import json
import statistics
import time
from dataclasses import dataclass

from .kernels import compute
from .neighbor import build_neighbor_list

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
    run; they stay empty when the baseline variant was not requested.
    """
    if repeats < 1 or steps < 1 or warmup < 0:
        raise ValueError("need steps >= 1, repeats >= 1, warmup >= 0")
    t0 = time.perf_counter()
    nl = build_neighbor_list(state, params.r_cut, skin)
    neighbor_s = time.perf_counter() - t0

    times, medians, energies, lanes = {}, {}, {}, {}
    for var in variants:
        key = var.describe()
        for _ in range(warmup):
            res = compute(state, nl, params, var)
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(steps):
                res = compute(state, nl, params, var)
            samples.append(time.perf_counter() - t0)
        times[key] = min(samples)
        medians[key] = statistics.median(samples)
        energies[key] = res.potential_energy
        lanes[key] = res.lane_utilization

    ref_time = next((times[v.describe()] for v in variants
                     if v.tag == "Reference"), None)
    scalar_time = next((times[v.describe()] for v in variants
                        if v.tag == "ScalarOpt"), None)

    rows = []
    for var in variants:
        key = var.describe()
        t = times[key]
        speedup_ref = ref_time / t if ref_time is not None else None
        speedup_scalar = scalar_time / t if scalar_time is not None else None
        efficiency = None
        if var.tag in ("VecJ", "VecI") and speedup_scalar is not None:
            efficiency = speedup_scalar / var.backend.width
        rows.append(BenchRow(
            variant=var.tag, backend=var.backend.name,
            width=var.backend.width, precision=var.precision,
            atoms=state.natoms, steps=steps, time_s=t,
            speedup_ref=speedup_ref, speedup_scalar=speedup_scalar,
            efficiency=efficiency, lane_util=lanes[key]))

    meta = {
        "steps": steps, "warmup": warmup, "repeats": repeats,
        "skin": skin, "atoms": state.natoms,
        "neighbor_build_s": neighbor_s,
        "median_s": {k: _canon(v) for k, v in medians.items()},
        "energy": {k: float(v) for k, v in energies.items()},
    }
    return BenchReport(rows, meta)
