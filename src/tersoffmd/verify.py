"""Invariant suites behind the verify command.

Four families of checks, each returning named results with the measured
worst-case value, the tolerance it was held to, and a human description
of the worst offender:

  gradients          analytic forces vs central differences of the energy
  cross_variant      all kernel variants against the Reference kernel
  width_independence vector kernels across lane widths; the W=1 run is
                     strict and also bit-compared with ScalarOpt
  conservation       short NVE: energy drift, force sum, momentum

`run_verification` composes them into one report dict (JSON-safe) whose
`passed` field is the AND of every check. Tolerances scale with
`tol_scale`, so 0 turns every inequality into an impossible bar; that is
deliberate, it proves the thresholds are live.
"""

import math

import numpy as np

from .errors import ConfigurationError
from .kernels import LANE_TAGS, check_threads, compute, make_variant
from .neighbor import build_neighbor_list, check_box
from .simd import EMULATED_WIDTHS
from .system import (run_nve, RunConfig, check_seed, seed_velocities,
                     total_momentum)

# Fixed settings of the checks; tol_scale multiplies every TOL_ constant.
FD_STEP = 2e-4            # A, central-difference step of the gradient check
JITTER = 0.03             # A, jitter when no force clears the FD floor
TOL_GRADIENT = 1e-6       # relative, analytic vs finite-difference force
TOL_ENERGY = 1e-10        # relative, each variant's energy vs Reference
TOL_FORCE = 1e-8          # eV/A, max force component vs Reference
TOL_WIDTH = 1e-12         # relative energy spread across lane widths
TOL_DRIFT = 1e-4          # relative total-energy drift over the NVE run
TOL_FORCE_SUM = 1e-9      # eV/A per atom, max |sum_i F_i| component
TOL_MOMENTUM = 1e-9       # per atom, max |p_final - p_initial| component
SEED_TEMPERATURE = 300.0  # K, velocities seeded for a state at rest


class CheckResult:
    """One named invariant check: measured value vs tolerance."""

    def __init__(self, name, passed, measured, tolerance, worst=""):
        self.name = name
        self.passed = bool(passed)
        self.measured = measured
        self.tolerance = tolerance
        self.worst = worst

    @property
    def margin(self):
        """tolerance / measured; > 1 means the check passed with room."""
        if self.measured is None or self.tolerance is None:
            return None
        if self.measured == 0.0:
            return math.inf
        return self.tolerance / self.measured

    def as_dict(self):
        m = self.margin
        return {
            "name": self.name,
            "passed": self.passed,
            "measured": None if self.measured is None else float(self.measured),
            "tolerance": None if self.tolerance is None else float(self.tolerance),
            "margin": float(m) if m is not None and math.isfinite(m) else None,
            "worst": self.worst,
        }

    def __repr__(self):
        state = "PASS" if self.passed else "FAIL"
        return f"<{state} {self.name}: {self.measured} vs {self.tolerance}>"


def _guard(name, fn):
    """Run one suite; an exception becomes a failed check naming it."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - report, never crash the suite
        return [CheckResult(name, False, None, None,
                            worst=f"{type(exc).__name__}: {exc}")]


def _finite_or_raise(res, label):
    if not (np.isfinite(res.forces).all()
            and math.isfinite(res.potential_energy)):
        raise ArithmeticError(f"non-finite energy/forces from {label}")


# ---------------------------------------------------------------------
# gradient check
# ---------------------------------------------------------------------

def check_gradients(state, params, variant=None, probes=4, tol_scale=1.0,
                    skin=0.3, seed=0):
    """Analytic forces vs 4th-order central differences of the energy.

    A handful of probe atoms is enough to catch a broken derivative
    chain; errors there are systematic, not localized. The step is
    large enough that double-precision roundoff (~eps*|E|/step) sits
    well below the tolerance on significant components, and small
    enough that the O(step^4) truncation term does too. Components
    below 1e-2 eV/A are skipped: relative error is meaningless at the
    noise floor. When no probed component clears that floor (an ideal
    lattice, where every force vanishes), the probes run again on a copy
    displaced by a seeded uniform +-JITTER jitter, and ``worst`` says so.
    """
    variant = variant or make_variant()
    worst_rel, worst_txt, checked = _probe_gradients(
        state, params, variant, probes, skin, seed)
    note = ""
    if checked == 0:
        jittered = state.copy()
        jittered.positions += np.random.default_rng(seed).uniform(
            -JITTER, JITTER, jittered.positions.shape)
        worst_rel, worst_txt, checked = _probe_gradients(
            jittered, params, variant, probes, skin, seed)
        note = (f" of a copy jittered by +-{JITTER:g} A with seed {seed}: "
                f"none of the given state clears the floor")
    tolerance = TOL_GRADIENT * tol_scale
    return [CheckResult("gradient_fd", worst_rel <= tolerance and checked > 0,
                        worst_rel, tolerance,
                        worst=f"{worst_txt} ({checked} components{note})")]


def _probe_gradients(state, params, variant, probes, skin, seed):
    """(worst relative error, its description, components checked)."""
    nl = build_neighbor_list(state, params.r_cut, skin)
    base = compute(state, nl, params, variant)
    _finite_or_raise(base, variant.describe())

    rng = np.random.default_rng(seed)
    atoms = rng.choice(state.natoms, size=min(probes, state.natoms),
                       replace=False)
    probe = state.copy()
    worst_rel, worst_txt, checked = 0.0, "no significant components", 0
    for a in atoms:
        for ax in range(3):
            x0 = probe.positions[a, ax]
            samples = []
            for mult in (-2.0, -1.0, 1.0, 2.0):
                probe.positions[a, ax] = x0 + mult * FD_STEP
                samples.append(compute(probe, nl, params,
                                       variant).potential_energy)
            probe.positions[a, ax] = x0
            em2, em1, ep1, ep2 = samples
            fd = -(em2 - 8.0 * em1 + 8.0 * ep1 - ep2) / (12.0 * FD_STEP)
            analytic = base.forces[a, ax]
            if abs(analytic) <= 1e-2:
                continue
            checked += 1
            rel = abs(fd - analytic) / abs(analytic)
            if rel > worst_rel:
                worst_rel = rel
                worst_txt = (f"atom {a} axis {ax}: analytic {analytic:.8e}"
                             f" vs fd {fd:.8e}")
    return worst_rel, worst_txt, checked


# ---------------------------------------------------------------------
# cross-variant equivalence
# ---------------------------------------------------------------------

def check_cross_variant(state, params, tol_scale=1.0, skin=0.3):
    """Every variant against the Reference kernel, double precision."""
    nl = build_neighbor_list(state, params.r_cut, skin)
    ref = compute(state, nl, params, make_variant("Reference"))
    _finite_or_raise(ref, "Reference")
    others = [make_variant("ScalarOpt")]
    others += [make_variant(t, "emulated") for t in LANE_TAGS]
    others.append(make_variant())  # the production kernel
    e_tol = TOL_ENERGY * tol_scale
    f_tol = TOL_FORCE * tol_scale
    e_worst, e_txt = 0.0, ""
    f_worst, f_txt = 0.0, ""
    e_scale = max(abs(ref.potential_energy), 1e-30)
    for var in others:
        res = compute(state, nl, params, var)
        _finite_or_raise(res, var.describe())
        e_dev = abs(res.potential_energy - ref.potential_energy) / e_scale
        if e_dev > e_worst:
            e_worst, e_txt = e_dev, var.describe()
        df = np.abs(res.forces - ref.forces)
        f_dev = float(df.max()) if df.size else 0.0
        if f_dev > f_worst:
            flat = int(np.argmax(df))
            f_txt = f"{var.describe()} atom {flat // 3} axis {flat % 3}"
            f_worst = f_dev
    return [
        CheckResult("cross_variant_energy", e_worst <= e_tol, e_worst,
                    e_tol, worst=e_txt),
        CheckResult("cross_variant_forces", f_worst <= f_tol, f_worst,
                    f_tol, worst=f_txt),
    ]


# ---------------------------------------------------------------------
# width independence
# ---------------------------------------------------------------------

def check_width_independence(state, params, tol_scale=1.0, skin=0.3):
    """Emulated-lane energies across widths, and strict-W=1 bit identity:
    each width runs once, and the strict W=1 run feeds both rows."""
    nl = build_neighbor_list(state, params.r_cut, skin)
    tolerance = TOL_WIDTH * tol_scale
    scalar = compute(state, nl, params, make_variant("ScalarOpt"))
    spreads, bitwise = [], []
    for tag in LANE_TAGS:
        runs = {w: compute(state, nl, params,
                           make_variant(tag, "emulated", w, strict=w == 1))
                for w in EMULATED_WIDTHS}
        for w, res in runs.items():
            _finite_or_raise(res, f"{tag} W={w}")
        energies = [res.potential_energy for res in runs.values()]
        spread = (max(energies) - min(energies)) / max(abs(energies[0]), 1e-30)
        spreads.append(CheckResult(
            f"width_independence_{tag.lower()}", spread <= tolerance,
            spread, tolerance,
            worst=f"widths {EMULATED_WIDTHS}, W=1 strict: "
                  f"min {min(energies)!r} max {max(energies)!r}"))
        same = (runs[1].forces.tobytes() == scalar.forces.tobytes()
                and runs[1].potential_energy == scalar.potential_energy)
        dev = float(np.abs(runs[1].forces - scalar.forces).max(initial=0.0))
        bitwise.append(CheckResult(
            f"strict_w1_bitwise_{tag.lower()}", same, dev, 0.0,
            worst="bit-identical" if same else
                  f"max force deviation {dev:.3e}"))
    return spreads + bitwise


# ---------------------------------------------------------------------
# conservation
# ---------------------------------------------------------------------

def check_conservation(state, params, variant=None, steps=200, dt=0.5,
                       tol_scale=1.0, skin=0.3, seed=0):
    """Short NVE: relative energy drift, force sum, momentum drift.

    Seeds velocities when the state has none so the probe actually
    explores phase space; a frozen lattice conserves anything.
    """
    st = state.copy()
    if st.velocities is None or not st.velocities.any():
        seed_velocities(st, SEED_TEMPERATURE, seed)
    p0 = total_momentum(st)
    cfg = RunConfig(dt=dt, steps=steps, variant=variant, skin=skin)
    summary = run_nve(st, params, cfg)
    total = np.asarray(summary["total"])
    scale = max(abs(total[0]), 1e-30)
    drift = float(np.abs(total - total[0]).max() / scale)
    fmax = float(np.max(summary["force_sum_max"]))
    pdrift = float(np.abs(total_momentum(st) - p0).max())
    n = st.natoms
    return [
        CheckResult("nve_energy_drift", drift <= TOL_DRIFT * tol_scale,
                    drift, TOL_DRIFT * tol_scale,
                    worst=f"{steps} steps at dt={dt:g} fs"),
        CheckResult("nve_force_sum", fmax <= TOL_FORCE_SUM * n * tol_scale,
                    fmax, TOL_FORCE_SUM * n * tol_scale,
                    worst="max |sum_i F_i| component over the run"),
        CheckResult("nve_momentum", pdrift <= TOL_MOMENTUM * n * tol_scale,
                    pdrift, TOL_MOMENTUM * n * tol_scale,
                    worst="max |p_final - p_initial| component"),
    ]


# ---------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------

def run_verification(state, params, variant=None, tol_scale=1.0,
                     conservation_steps=200, dt=0.5, skin=0.3, threads=1,
                     seed=0):
    """Run every suite; return a JSON-safe report dict."""
    check_threads(threads)
    if not (math.isfinite(tol_scale) and tol_scale >= 0):
        raise ConfigurationError(
            f"tol_scale must be finite and >= 0, got {tol_scale!r}")
    # bad steps, dt, skin, box or seed raise here, not as a FAIL row of
    # every suite
    RunConfig(dt=dt, steps=conservation_steps, skin=skin)
    check_box(state.box, params.r_cut + skin)
    check_seed(seed)
    checks = []
    checks += _guard("gradient_fd", lambda: check_gradients(
        state, params, variant=variant, tol_scale=tol_scale, skin=skin,
        seed=seed))
    checks += _guard("cross_variant", lambda: check_cross_variant(
        state, params, tol_scale=tol_scale, skin=skin))
    checks += _guard("width_independence", lambda: check_width_independence(
        state, params, tol_scale=tol_scale, skin=skin))
    checks += _guard("conservation", lambda: check_conservation(
        state, params, variant=variant, steps=conservation_steps, dt=dt,
        tol_scale=tol_scale, skin=skin, seed=seed))
    return {
        "passed": all(c.passed for c in checks),
        "tol_scale": float(tol_scale),
        "natoms": int(state.natoms),
        "variant": (variant or make_variant()).describe(),
        "checks": [c.as_dict() for c in checks],
    }
