#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 benchmark/run.py --workload nve_tube10k --seed 1 --seconds 20 \\
        --trace 0

Run from the root of a source tree; the program is imported from its
``src/`` directory, never from an installed copy. With ``--trace 0`` the
run measures the end-to-end metrics with nothing wrapped. With
``--trace 1`` it runs the same work twice, plain and then traced, and
reports the per-layer table and the tracing overhead. Either way the last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The run context, the correctness checks and (traced) the spans and the
full per-layer table go to ``.bench_out/`` as well. The exit code is 0
only when every correctness check passed.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


def _import_program():
    """Put the tree's own src/ first on the path; refuse anything else."""
    if not (SRC / "tersoffmd" / "__init__.py").is_file():
        sys.exit(f"benchmark: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import tersoffmd
    if Path(tersoffmd.__file__).resolve().parent != SRC / "tersoffmd":
        sys.exit(f"benchmark: imported tersoffmd from {tersoffmd.__file__}, "
                 f"not from {SRC}")


def _declared():
    spec = json.loads(BENCHMARK_JSON.read_text())
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, units


def _context(seed):
    """Where and on what the numbers were taken."""
    import numpy
    files = sorted((SRC / "tersoffmd").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(data)
        lines += data.count(b"\n")
    commit = "unknown"  # an exported tree carries no history
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def end_to_end(m, reference=True):
    """The end-to-end metrics of one untraced pass.

    Times are in reference seconds (see speed.py) unless `reference` is
    False, which gives the wall-clock figures they were scaled from.
    """
    steps = m.seconds(m.steps, reference)
    steps_ms = [1e3 * s for s in steps]
    return {
        "atom_steps_per_s": m.atoms * len(steps) / sum(steps),
        "step_ms_p50": statistics.median(steps_ms),
        "setup_s": statistics.median(m.seconds(m.setups, reference)),
        "verify_s": statistics.median(m.seconds(m.verdicts, reference)),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _run_all(args):
    """Every declared workload, each in its own process, one after another.

    Exits non-zero if any of them did.
    """
    spec, _ = _declared()
    worst = 0
    for w in spec["workloads"]:
        print(f"== {w['name']}", flush=True)
        code = subprocess.run(
            [sys.executable, __file__, "--workload", w["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--tol-scale", str(args.tol_scale)],
            check=False).returncode
        worst = max(worst, code)
    return worst


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name, or 'all' for each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tol-scale", type=float, default=1.0,
                    help="scale every correctness tolerance (0 must fail)")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)

    _import_program()
    import numpy
    import tracing
    from workloads import WORKLOADS

    spec, units = _declared()
    if args.workload not in WORKLOADS:
        sys.exit(f"benchmark: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        sys.exit("benchmark: --seconds must be positive")
    wl = WORKLOADS[args.workload]
    ctx = _context(args.seed)
    print("context: " + json.dumps(ctx, sort_keys=True), flush=True)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    record = {"workload": wl.name, "why": why.get(wl.name), "context": ctx}

    if args.trace == 0:
        m = wl.run(args.seed, seconds=args.seconds, tol_scale=args.tol_scale)
        values = end_to_end(m)
        names = [e["name"] for e in spec["end_to_end"]]
        record["wall_clock_metrics"] = end_to_end(m, reference=False)
        # Reported but not declared: on stretch_tube2k_dump p90 sits on
        # the boundary between plain and rebuild steps and does not repeat.
        values["step_ms_p90"] = float(numpy.percentile(
            [1e3 * s for s in m.seconds(m.steps)], 90))
        record["samples"] = {"steps": len(m.steps), "setups": len(m.setups),
                             "verdicts": len(m.verdicts),
                             "probes": len(m.probe.durations)}
    else:
        # Same work twice: plain for the overhead baseline, then traced.
        plain = wl.run(args.seed, seconds=args.seconds / 2, setup_reps=1,
                       tol_scale=args.tol_scale, clock=False)
        tracer = tracing.Tracer()
        m = wl.run(args.seed, work=plain.work, tracer=tracer, setup_reps=1,
                   tol_scale=args.tol_scale, clock=False)
        m.attempted += plain.attempted
        m.failed += plain.failed
        m.checks = plain.checks + m.checks
        overhead = m.reference_window_s() / plain.reference_window_s() - 1
        values = tracing.layer_metrics(tracer, m.window_s, overhead,
                                       m.reference_window_s() / m.window_s)
        tracer.save(f"{stem}-spans.npz")
        names = [e["name"] for e in spec["per_layer"]]
        values["trace.untraced_window_s"] = plain.reference_window_s()
        record["samples"] = {"work": m.work, "spans": len(tracer.start)}
        unaccounted = values["trace.unaccounted_frac"]
        m.check("trace_accounts_for_window", 0.0 <= unaccounted <= 0.05,
                f"layer self times leave {unaccounted:.2%} of the traced "
                f"window unaccounted")

    for name, passed, detail in m.checks:
        print(f"check {'PASS' if passed else 'FAIL'} {name}: {detail}")
    width = max(len(k) for k in values)
    for name, value in values.items():
        unit = units.get(name) or tracing.unit_of(name)
        print(f"{name:<{width}}  {value:>16.6g} {unit}")
    record["checks"] = [{"name": n, "passed": p, "detail": d}
                        for n, p, d in m.checks]
    record["metrics"] = values
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    correct = m.failed == 0
    result = {
        "correct": correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {n: {"value": values[n], "unit": units[n]}
                    for n in names},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
