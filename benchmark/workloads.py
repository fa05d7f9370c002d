"""The benchmark's workloads, driven through the public tersoffmd API.

Every workload runs in one process with threads=1, double precision,
skin 0.3 A and dt 0.5 fs. The benchmark seed only sets the velocities
(on verify_tube200 it is the seed passed to ``run_verification``).

A workload run is one or more set-ups followed by a loop that lasts a
given number of seconds, or replays a given amount of work. Afterwards a
correctness gate checks what the loop produced. Step times, set-up times
and gate times come back in a ``Measurement``.
"""

import math
import os
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import tersoffmd
import tersoffmd.system as system
from speed import SpeedProbe
from tracing import patched

DT = 0.5            # fs
SKIN = 0.3          # A
TEMPERATURE = 300.0  # K
THREADS = 1

# Gate tolerances, the ones check_cross_variant and check_conservation use.
ENERGY_TOL = 1e-10  # relative potential energy vs Reference
FORCE_TOL = 1e-8    # eV/A, max force component vs Reference
DRIFT_TOL = 1e-4    # relative total-energy drift over an NVE run

# Reference evaluations timed per run: at least GATE_REPS, and more until
# GATE_S seconds have gone into them. verify_s is their median.
GATE_REPS = 5
GATE_S = 5.0

OUT_DIR = Path(__file__).resolve().parent.parent / ".bench_out"


@dataclass
class Measurement:
    """What one pass of a workload measured.

    setups, steps and verdicts hold (start, end, seconds) intervals; the
    probe that ran around them turns them into reference seconds.
    """

    probe: SpeedProbe = field(default_factory=SpeedProbe)
    atoms: int = 0
    setups: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    checks: list = field(default_factory=list)   # (name, passed, detail)
    attempted: int = 0
    failed: int = 0
    work: int = 0          # steps (NVE) or episodes (stretch, verify)
    window_s: float = 0.0  # set-up plus loop, without gate and probes
    unit_start: float = 0.0  # when the current step or episode began

    def check(self, name, passed, detail):
        self.checks.append((name, bool(passed), detail))
        self.attempted += 1
        self.failed += not passed

    def timed(self, into, fn, *args, **kwargs):
        """Call fn, record its interval into `into`, then run the probe."""
        spent = self.probe.spent
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        t1 = time.perf_counter()
        into.append((t0, t1, t1 - t0 - (self.probe.spent - spent)))
        self.probe()
        return out

    def seconds(self, intervals, reference=True):
        """Interval lengths, in reference seconds or as wall seconds."""
        if reference:
            return [self.probe.reference_s(*iv) for iv in intervals]
        return [iv[2] for iv in intervals]

    def reference_window_s(self):
        """window_s on the reference scale of the whole pass."""
        return self.window_s * self.probe.scale(-math.inf, math.inf)


def _fail(m, what):
    """An operation raised: report it and count it as failed."""
    traceback.print_exc()
    m.check(what, False, "raised")


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def _variant():
    return tersoffmd.make_variant("VecI", "native")


def _setup(make_state, rng, tracer):
    """Structure, velocities, parameters, first list and first force."""
    with _span(tracer, "setup"):
        params = tersoffmd.builtin_params("C")
        state = make_state()
        tersoffmd.seed_velocities(state, TEMPERATURE, rng=rng)
        ff = system.ForceField(params, _variant(), skin=SKIN, threads=THREADS)
        res = ff(state)
    return params, state, ff, res


def _reference_gate(m, state, params, energy, forces, nl, tol_scale):
    """Final state vs the Reference kernel; each evaluation is a verdict."""
    ref_variant = tersoffmd.make_variant("Reference")
    while True:
        ref = m.timed(m.verdicts, tersoffmd.compute, state, nl, params,
                      ref_variant, THREADS)
        spent = sum(iv[2] for iv in m.verdicts)
        if len(m.verdicts) >= GATE_REPS and spent >= GATE_S:
            break
    e_dev = abs(energy - ref.potential_energy) / abs(ref.potential_energy)
    f_dev = float(np.abs(forces - ref.forces).max())
    m.check("final_energy_vs_reference", e_dev <= ENERGY_TOL * tol_scale,
            f"relative deviation {e_dev:.3e} (tolerance "
            f"{ENERGY_TOL * tol_scale:.1e})")
    m.check("final_forces_vs_reference", f_dev <= FORCE_TOL * tol_scale,
            f"max deviation {f_dev:.3e} eV/A (tolerance "
            f"{FORCE_TOL * tol_scale:.1e})")


class _StepClock:
    """Times the steps of a driver that runs its own loop.

    While active, every ForceField evaluation ends with a clock read and
    a probe run; the interval from one probe's end to the next
    evaluation's end is one step (run_stretch and run_nve evaluate forces
    once per step). Functions named in `probe_after` (owner, attribute)
    are followed by a probe too, so that long stretches without steps
    still see how fast the machine runs.
    """

    def __init__(self, m, probe_after=()):
        self.m = m
        self.count = 0
        self.probe_after = probe_after

    def _clocked(self, call):
        m, last = self.m, [None]

        def clocked(ff, state):
            res = call(ff, state)
            t = time.perf_counter()
            if last[0] is not None:
                m.steps.append((last[0], t, t - last[0]))
                self.count += 1
            m.probe()
            last[0] = time.perf_counter()
            return res
        return clocked

    def _probed(self, fn):
        def probed(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.m.probe()
            return out
        return probed

    def __enter__(self):
        self._patch = patched(
            [(system.ForceField, "__call__", self._clocked)]
            + [(owner, attr, self._probed)
               for owner, attr in self.probe_after])
        self._patch.__enter__()
        return self

    def __exit__(self, *exc):
        return self._patch.__exit__(*exc)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its structure, driver and set-up repeats."""

    name: str
    make_state: Callable
    setup_reps: int

    def run(self, seed, seconds=None, work=None, tracer=None, setup_reps=None,
            tol_scale=1.0, clock=True):
        """Set up, then loop for `seconds` or replay `work`; then gate.

        With a tracer, the set-up and the loop run with the program
        wrapped; the gate never does. `clock` times the steps of drivers
        that run their own loop (run_stretch, run_verification).
        """
        m = Measurement()
        reps = self.setup_reps if setup_reps is None else setup_reps
        with tracer.installed() if tracer is not None else nullcontext():
            m.probe()
            t0, spent = time.perf_counter(), m.probe.spent
            for k in range(reps):
                ctx = m.timed(m.setups, _setup, self.make_state, [seed, k],
                              tracer)
            m.atoms = ctx[1].natoms
            deadline = (None if seconds is None
                        else time.perf_counter() + seconds)
            gate = self._loop(m, seed, ctx, deadline, work, tracer, clock,
                              tol_scale)
            m.window_s = time.perf_counter() - t0 - (m.probe.spent - spent)
        try:
            gate()
        except Exception:  # noqa: BLE001 - a gate that raises has failed
            _fail(m, "correctness gate")
        return m

    def _more(self, m, deadline, work):
        """Another unit of work? Against a deadline, start one only while
        half the previous unit still fits, so runs end close to it."""
        now = time.perf_counter()
        last, m.unit_start = now - m.unit_start, now
        if work is not None:
            return m.work < work
        return m.work == 0 or now + 0.5 * last < deadline


class NveWorkload(Workload):
    """NVE with VecI/native, stepped here through velocity_verlet_step."""

    def _loop(self, m, seed, ctx, deadline, work, tracer, clock,
              tol_scale):
        params, state, ff, res = ctx
        e0 = res.potential_energy + tersoffmd.kinetic_energy(state)
        drift = 0.0
        while self._more(m, deadline, work):
            m.work += 1
            try:
                res = m.timed(m.steps, system.velocity_verlet_step, state,
                              DT, ff, res)
            except Exception:  # noqa: BLE001 - a failed step is counted
                _fail(m, f"step {m.work}")
                return lambda: None
            m.attempted += 1
            etot = res.potential_energy + tersoffmd.kinetic_energy(state)
            drift = max(drift, abs(etot - e0) / abs(e0))

        def gate():
            m.check("nve_energy_drift", drift <= DRIFT_TOL * tol_scale,
                    f"relative drift {drift:.3e} over {m.work} steps "
                    f"(tolerance {DRIFT_TOL * tol_scale:.1e})")
            _reference_gate(m, state, params, res.potential_energy,
                            res.forces, ff.nl, tol_scale)
        return gate


class StretchWorkload(Workload):
    """run_stretch episodes of 200 steps, one XYZ frame per step."""

    steps = 200
    speed = 0.05  # A/fs, total grip separation rate

    def _loop(self, m, seed, ctx, deadline, work, tracer, clock,
              tol_scale):
        params = ctx[0]
        OUT_DIR.mkdir(exist_ok=True)
        tmp = tempfile.TemporaryDirectory(dir=OUT_DIR)
        finals = []
        while self._more(m, deadline, work):
            m.work += 1
            with _span(tracer, "setup"):
                state = self.make_state()
                tersoffmd.seed_velocities(state, TEMPERATURE,
                                          rng=[seed, 1000 + m.work])
            dump = os.path.join(tmp.name, f"episode{m.work}.xyz")
            cfg = tersoffmd.RunConfig(
                dt=DT, steps=self.steps, variant=_variant(), skin=SKIN,
                threads=THREADS, dump_every=1, dump_path=dump,
                stretch=tersoffmd.StretchSpec(axis=2, speed=self.speed))
            try:
                with _StepClock(m) if clock else nullcontext(), \
                        _span(tracer, "system.run_stretch"):
                    summary = tersoffmd.run_stretch(state, params, cfg)
            except Exception:  # noqa: BLE001 - a failed run is counted
                _fail(m, f"stretch episode {m.work}")
                continue
            m.attempted += summary["steps"]
            finals.append((state, summary["potential"][-1], dump))

        def gate():
            with tmp:
                for state, energy, dump in finals:
                    frames = tersoffmd.read_xyz(dump)
                    m.check("dump_frames", len(frames) == self.steps + 1,
                            f"{len(frames)} frames for {self.steps} steps")
                    dev = float(np.abs(frames[-1][1]
                                       - state.positions).max())
                    m.check("dump_matches_final_state", dev <= 1e-9,
                            f"max coordinate deviation {dev:.1e} A")
                    nl = tersoffmd.build_neighbor_list(state, params.r_cut,
                                                       SKIN)
                    _reference_gate(m, state, params, energy, state.forces,
                                    nl, tol_scale)
        return gate


class VerifyWorkload(Workload):
    """run_verification, the verify CLI's default suite, to its verdict."""

    @staticmethod
    def _verify(tracer, state, params, seed, tol_scale):
        with _span(tracer, "verify.run_verification"):
            return tersoffmd.run_verification(
                state, params, tol_scale=tol_scale, dt=DT, skin=SKIN,
                threads=THREADS, seed=seed)

    def _loop(self, m, seed, ctx, deadline, work, tracer, clock,
              tol_scale):
        params = ctx[0]
        reports = []
        while self._more(m, deadline, work):
            m.work += 1
            state = self.make_state()
            steps = (_StepClock(m, [(tersoffmd.verify, "compute")]) if clock
                     else nullcontext())
            try:
                with steps:
                    report = m.timed(m.verdicts, self._verify, tracer, state,
                                     params, seed, tol_scale)
            except Exception:  # noqa: BLE001 - a failed verify is counted
                _fail(m, f"verification {m.work}")
                continue
            if clock:
                m.attempted += steps.count
            reports.append(report)

        def gate():
            for report in reports:
                for c in report["checks"]:
                    m.check(c["name"], c["passed"],
                            f"measured {c['measured']} tolerance "
                            f"{c['tolerance']} ({c['worst']})")
                m.check("verify_passed", report["passed"],
                        "run_verification verdict")
        return gate


# Why each workload exists is in BENCHMARK.json and RATIONALE.md.
WORKLOADS = {w.name: w for w in (
    NveWorkload("nve_tube10k", lambda: tersoffmd.gen_nanotube(5, 500),
                setup_reps=3),
    NveWorkload("nve_diamond1728", lambda: tersoffmd.gen_diamond(6),
                setup_reps=5),
    StretchWorkload("stretch_tube2k_dump",
                    lambda: tersoffmd.gen_nanotube(5, 100), setup_reps=5),
    VerifyWorkload("verify_tube200", lambda: tersoffmd.gen_nanotube(5, 10),
                   setup_reps=5),
)}
