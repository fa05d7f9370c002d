"""Per-layer spans for the traced benchmark mode, recorded from outside.

The traced run replaces module-level names and class attributes that the
program looks up at call time with timing wrappers, and restores every
original when it finishes. Each call becomes one span (name, start, end,
parent) kept in memory; counts are taken at the same boundaries from the
arguments, the returned values and ``ForceEnergyResult.stats``.

A span name is ``<layer>.<what>``; the layer is the tersoffmd module the
wrapped function lives in. ``setup`` spans are the benchmark's own set-up
phase (structure, velocities, parameters, first list and force).
"""

import os
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

import tersoffmd.kernels
import tersoffmd.neighbor
import tersoffmd.simd
import tersoffmd.system
import tersoffmd.verify

LAYERS = ("neighbor", "kernels", "potential", "simd", "system", "verify")


def original(owner, attr):
    """The attribute itself; for a class, as stored (not bound)."""
    return (owner.__dict__[attr] if isinstance(owner, type)
            else getattr(owner, attr))


@contextmanager
def patched(replacements):
    """Set owner.attr = make(original) for each (owner, attr, make), and
    put every original back on exit."""
    saved = []
    try:
        for owner, attr, make in replacements:
            fn = original(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, make(fn))
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def _count_candidates(counts, args, out):
    counts["candidates"] += out[0].shape[0]


def _count_within(counts, args, out):
    counts["list_pairs"] += out[0].shape[0]


def _count_rebuild_check(counts, args, out):
    counts["rebuild_true"] += bool(out)


def _count_pack(counts, args, out):
    counts["list_entries_packed"] += args[1].neighbors.shape[0]
    counts["adjacency_pairs"] += out.npairs
    n = np.diff(out.offsets)
    counts["triples"] += int((n * (n - 1)).sum())


def _count_compute(counts, args, out):
    for key in ("zeta_visits", "gathers", "lane_active", "lane_total"):
        counts[key] += out.stats.get(key, 0)


def _count_checks(counts, args, out):
    counts["checks"] += len(out)
    counts["checks_failed"] += sum(not c.passed for c in out)


class Tracer:
    """Span recorder; ``installed()`` wraps the program for its duration."""

    def __init__(self):
        self.names = []
        self.start = []
        self.end = []
        self.parent = []
        self.counts = Counter()
        self._stack = [-1]

    def _open(self, name):
        idx = len(self.start)
        self.names.append(name)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrapper(self, name, fn, count):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(self.counts, args, out)
            return out
        return traced

    def _dump_wrapper(self, fn):
        """write_xyz: the span plus frames and bytes written."""
        traced = self._wrapper("system.write_xyz", fn, None)

        def dump(path, state, comment=None, append=False):
            before = os.path.getsize(path) if append else 0
            traced(path, state, comment, append)
            self.counts["dump_bytes"] += os.path.getsize(path) - before
        return dump

    def _targets(self):
        """(owner, attribute, span name, counter) for every wrapped name."""
        system, verify = tersoffmd.system, tersoffmd.verify
        neighbor, kernels = tersoffmd.neighbor, tersoffmd.kernels
        cells, backend = neighbor.CellList, tersoffmd.simd.Backend
        out = [
            (system, "build_neighbor_list", "neighbor.build_neighbor_list",
             None),
            (verify, "build_neighbor_list", "neighbor.build_neighbor_list",
             None),
            (system, "needs_rebuild", "neighbor.needs_rebuild",
             _count_rebuild_check),
            (system, "compute", "kernels.compute", _count_compute),
            (verify, "compute", "kernels.compute", _count_compute),
            (system, "velocity_verlet_step", "system.velocity_verlet_step",
             None),
            (system.ForceField, "__call__", "system.ForceField", None),
            (neighbor, "build_cell_list", "neighbor.build_cell_list", None),
            (cells, "candidate_pairs", "neighbor.candidate_pairs",
             _count_candidates),
            (cells, "pairs_within", "neighbor.pairs_within", _count_within),
            (kernels, "pack_adjacency", "neighbor.pack_adjacency",
             _count_pack),
            (kernels, "zeta_parts_lanes", "potential.zeta_parts_lanes", None),
            (kernels, "pair_parts_lanes", "potential.pair_parts_lanes", None),
            (backend, "gather", "simd.gather", None),
            (backend, "gather_fields", "simd.gather_fields", None),
            (backend, "scatter_add", "simd.scatter_add", None),
        ]
        for attr in ("check_gradients", "check_cross_variant",
                     "check_width_independence", "check_conservation"):
            out.append((verify, attr, f"verify.{attr}", _count_checks))
        return out

    def installed(self):
        """Wrap every traced name; the originals come back on exit."""
        wraps = [(owner, attr,
                  lambda fn, name=name, count=count:
                  self._wrapper(name, fn, count))
                 for owner, attr, name, count in self._targets()]
        wraps.append((tersoffmd.system, "write_xyz", self._dump_wrapper))
        return patched(wraps)

    # ---- analysis -------------------------------------------------------

    def arrays(self):
        """Spans as numpy columns: name ids, name table, start, end, parent."""
        table = sorted(set(self.names))
        lookup = {n: k for k, n in enumerate(table)}
        ids = np.array([lookup[n] for n in self.names], dtype=np.int32)
        return (ids, table, np.array(self.start), np.array(self.end),
                np.array(self.parent, dtype=np.int64))

    def save(self, path):
        ids, table, start, end, parent = self.arrays()
        np.savez_compressed(path, name_id=ids, names=np.array(table),
                            start=start, end=end, parent=parent)

    def by_name(self):
        """{span name: (calls, busy s, self s, durations array)}."""
        ids, table, start, end, parent = self.arrays()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        out = {}
        for k, name in enumerate(table):
            sel = ids == k
            out[name] = (int(sel.sum()), float(dur[sel].sum()),
                         float(own[sel].sum()), dur[sel])
        return out

    def root_seconds(self):
        """Wall time covered by top-level spans."""
        _, _, start, end, parent = self.arrays()
        top = parent < 0
        return float((end[top] - start[top]).sum())


def unit_of(name):
    """The unit of a per-layer metric, read from its name."""
    if "_ms_p" in name:
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_util", "_frac", ".share")):
        return "fraction"
    return "count"


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, window_s, overhead_frac, scale=1.0):
    """The per-layer table of one traced window, as {metric: value}.

    window_s is the traced wall time; overhead_frac how much longer it
    took than the same work untraced. Times are multiplied by `scale`,
    which puts them in reference seconds (see speed.py).
    """
    spans = tracer.by_name()
    c = tracer.counts
    unaccounted = 1.0 - _ratio(tracer.root_seconds(), window_s)
    window_s *= scale

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0, None))[0]

    def busy(name):
        return scale * spans.get(name, (0, 0.0, 0.0, None))[1]

    def own(name):
        return scale * spans.get(name, (0, 0.0, 0.0, None))[2]

    def p50_ms(name):
        durs = spans.get(name, (0, 0.0, 0.0, None))[3]
        return 1e3 * scale * float(np.median(durs)) if durs is not None \
            else 0.0

    m = {}
    m["neighbor.builds"] = calls("neighbor.build_neighbor_list")
    m["neighbor.build_s"] = busy("neighbor.build_neighbor_list")
    m["neighbor.build_ms_p50"] = p50_ms("neighbor.build_neighbor_list")
    m["neighbor.cell_bin_s"] = busy("neighbor.build_cell_list")
    m["neighbor.candidate_pairs_s"] = busy("neighbor.candidate_pairs")
    m["neighbor.distance_filter_s"] = own("neighbor.pairs_within")
    m["neighbor.candidates"] = c["candidates"]
    m["neighbor.list_pairs"] = c["list_pairs"]
    m["neighbor.candidate_hit_ratio"] = _ratio(c["list_pairs"],
                                               c["candidates"])
    m["neighbor.rebuild_checks"] = calls("neighbor.needs_rebuild")
    m["neighbor.needs_rebuild_s"] = busy("neighbor.needs_rebuild")
    m["neighbor.rebuild_ratio"] = _ratio(c["rebuild_true"],
                                         m["neighbor.rebuild_checks"])
    m["neighbor.pack_calls"] = calls("neighbor.pack_adjacency")
    m["neighbor.pack_adjacency_s"] = busy("neighbor.pack_adjacency")
    m["neighbor.adjacency_pairs"] = c["adjacency_pairs"]
    m["neighbor.skin_keep_ratio"] = _ratio(c["adjacency_pairs"],
                                           c["list_entries_packed"])

    m["kernels.calls"] = calls("kernels.compute")
    m["kernels.compute_s"] = busy("kernels.compute")
    m["kernels.compute_ms_p50"] = p50_ms("kernels.compute")
    m["kernels.zeta_visits"] = c["zeta_visits"]
    m["kernels.triples"] = c["triples"]
    m["kernels.visit_useful_ratio"] = _ratio(c["triples"], c["zeta_visits"])
    m["kernels.triples_per_s"] = _ratio(c["triples"], m["kernels.compute_s"])
    m["kernels.lane_util"] = _ratio(c["lane_active"], c["lane_total"])
    m["kernels.gathers"] = c["gathers"]

    m["potential.zeta_lanes_s"] = busy("potential.zeta_parts_lanes")
    m["potential.pair_lanes_s"] = busy("potential.pair_parts_lanes")
    m["potential.zeta_lane_calls"] = calls("potential.zeta_parts_lanes")

    m["simd.gather_s"] = busy("simd.gather") + busy("simd.gather_fields")
    m["simd.gather_calls"] = calls("simd.gather") + calls("simd.gather_fields")
    m["simd.scatter_s"] = busy("simd.scatter_add")
    m["simd.scatter_calls"] = calls("simd.scatter_add")

    m["system.force_field_s"] = busy("system.ForceField")
    m["system.integrate_s"] = (own("system.velocity_verlet_step")
                               + own("system.run_stretch"))
    m["system.dump_s"] = busy("system.write_xyz")
    m["system.dump_frames"] = calls("system.write_xyz")
    m["system.dump_mb"] = c["dump_bytes"] / 1e6

    m["verify.gradients_s"] = busy("verify.check_gradients")
    m["verify.cross_variant_s"] = busy("verify.check_cross_variant")
    m["verify.width_independence_s"] = busy("verify.check_width_independence")
    m["verify.conservation_s"] = busy("verify.check_conservation")
    m["verify.checks"] = c["checks"]
    m["verify.checks_failed"] = c["checks_failed"]

    layer_self = Counter()
    for name, (_, _, self_s, _) in spans.items():
        layer_self[name.split(".", 1)[0]] += self_s
    for layer in LAYERS + ("setup",):
        m[f"{layer}.self_s"] = scale * layer_self[layer]
        m[f"{layer}.share"] = _ratio(scale * layer_self[layer], window_s)
    m["trace.spans"] = len(tracer.start)
    m["trace.window_s"] = window_s
    m["trace.unaccounted_frac"] = unaccounted
    m["trace.overhead_frac"] = overhead_frac
    return m
