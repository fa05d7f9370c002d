"""Potential math against extended-precision oracles and its lane mirrors."""

import math

import mpmath
import numpy as np
import pytest

from tersoffmd.potential import (
    TersoffParams, ZETA_TINY,
    bond_order, bond_order_lanes, f_attractive, f_cutoff, f_cutoff_lanes,
    f_repulsive, g_angle,
    _pair_parts, _zeta_parts, pair_parts_lanes, zeta_parts_lanes)
from tersoffmd.simd import Backend

from helpers import carbon_table, real_lanes, silicon_table, \
    two_species_table

RNG = np.random.default_rng(7)
mpmath.mp.dps = 40

CP = carbon_table().entry(0, 0, 0)  # published carbon entry


def ulps(got, exact):
    """Distance in final-place units between a double and an mpmath value."""
    e = float(exact)
    if e == got:
        return 0.0
    return abs(got - e) / np.spacing(abs(e))


# ------------------------------------------------------------- cutoff taper

def test_cutoff_plateaus_are_exact():
    assert f_cutoff(1.2, CP.R, CP.D) == (1.0, 0.0)
    assert f_cutoff(CP.R - CP.D, CP.R, CP.D) == (1.0, 0.0)
    assert f_cutoff(CP.R + CP.D, CP.R, CP.D) == (0.0, 0.0)
    assert f_cutoff(CP.R + CP.D + 1e-9, CP.R, CP.D) == (0.0, 0.0)


def test_cutoff_midpoint_value_and_slope():
    fc, dfc = f_cutoff(CP.R, CP.R, CP.D)
    assert fc == 0.5
    assert dfc == -math.pi / (4 * CP.D)


def test_cutoff_matches_extended_precision_in_taper():
    # mpf(float) is exact: the oracle evaluates at the same double inputs.
    # Errors are absolute at the natural scale (the value crosses zero at the
    # upper join, where relative ulp distance is meaningless).
    R, D = mpmath.mpf(CP.R), mpmath.mpf(CP.D)
    dscale = np.spacing(math.pi / (4 * CP.D))
    for r in np.linspace(1.801, 2.099, 23):
        fc, dfc = f_cutoff(float(r), CP.R, CP.D)
        rm = mpmath.mpf(float(r))
        exact = mpmath.mpf("0.5") - mpmath.mpf("0.5") * mpmath.sin(
            mpmath.pi / 2 * (rm - R) / D)
        dexact = -mpmath.pi / (4 * D) * mpmath.cos(mpmath.pi / 2 * (rm - R) / D)
        assert abs(fc - float(exact)) <= 2 * np.spacing(0.5)
        assert abs(dfc - float(dexact)) <= 2 * dscale


def test_cutoff_is_c1_across_joins():
    # secant slope through each join is O(f'' h), not O(pi/4D)
    for r0 in (CP.R - CP.D, CP.R + CP.D):
        h = 1e-7
        lo, _ = f_cutoff(r0 - h, CP.R, CP.D)
        hi, _ = f_cutoff(r0 + h, CP.R, CP.D)
        assert abs(hi - lo) / (2 * h) < 1e-5  # derivative ~0 at both joins


# ------------------------------------------------- pair factors vs mpmath

def test_repulsive_attractive_track_extended_precision():
    """exp amplifies the one rounding of its argument by |arg| ulps, so the
    achievable bound is 2 + |lam r| ulp, not a flat 2 (measured max is ~5
    across this range, i.e. ~1e-15 relative)."""
    A, lam1 = mpmath.mpf(CP.A), mpmath.mpf(CP.lam1)
    B, lam2 = mpmath.mpf(CP.B), mpmath.mpf(CP.lam2)
    for r in RNG.uniform(0.8, 2.1, 40):
        fr, dfr = f_repulsive(float(r), CP.A, CP.lam1)
        fa, dfa = f_attractive(float(r), CP.B, CP.lam2)
        rm = mpmath.mpf(float(r))
        assert ulps(fr, A * mpmath.exp(-lam1 * rm)) <= 2 + CP.lam1 * r
        assert ulps(dfr, -lam1 * A * mpmath.exp(-lam1 * rm)) <= 2.5 + CP.lam1 * r
        assert ulps(fa, -B * mpmath.exp(-lam2 * rm)) <= 2 + CP.lam2 * r
        assert ulps(dfa, lam2 * B * mpmath.exp(-lam2 * rm)) <= 2.5 + CP.lam2 * r


def test_angular_weight_special_points():
    gv, dgv = g_angle(CP.h, CP.gamma, CP.c, CP.d, CP.h)
    assert gv == CP.gamma and dgv == 0.0  # minimum at cos = h
    gv, dgv = g_angle(0.3, CP.gamma, 0.0, CP.d, CP.h)
    assert gv == CP.gamma and dgv == 0.0  # c = 0 flattens the weight


def test_angular_weight_close_to_extended_precision_despite_cancellation():
    """Carbon's c^2/d^2 ~ 7.7e7 makes the naive three-term form lose up to 8
    digits near cos = h; the factored form stays within a few roundings (4
    ulp covers its ~6-operation chain) of the extended-precision value."""
    gamma, c, d, h = (mpmath.mpf(CP.gamma), mpmath.mpf(CP.c),
                      mpmath.mpf(CP.d), mpmath.mpf(CP.h))
    for cost in np.concatenate([RNG.uniform(-1, 1, 40), [-0.5, -0.57058, 1.0]]):
        gv, dgv = g_angle(float(cost), CP.gamma, CP.c, CP.d, CP.h)
        cm = mpmath.mpf(float(cost))
        exact = gamma * (1 + c**2 / d**2 - c**2 / (d**2 + (h - cm)**2))
        dexact = -2 * gamma * c**2 * (h - cm) / (d**2 + (h - cm)**2)**2
        assert ulps(gv, exact) <= 4, cost
        if float(dexact) != 0.0:
            assert ulps(dgv, dexact) <= 4, cost


def test_angular_weight_frozen_goldens():
    # frozen from a 50-digit evaluation at the double parameter values
    gv, dgv = g_angle(-0.5, CP.gamma, CP.c, CP.d, CP.h)
    assert abs(gv - 20166.892729984982) <= 2 * np.spacing(20166.892729984982)
    assert abs(dgv - 571283.1212764916) <= 2 * np.spacing(571283.1212764916)
    gv, _ = g_angle(1.0, CP.gamma, CP.c, CP.d, CP.h)
    assert abs(gv - 8835586.703641092) <= 2 * np.spacing(8835586.703641092)


# ------------------------------------------------------------- bond order

def _mp_bond(z, beta, eta):
    t = (mpmath.mpf(beta) * mpmath.mpf(z)) ** mpmath.mpf(eta)
    return (1 + t) ** (-1 / (2 * mpmath.mpf(eta)))


def test_bond_order_value_and_derivative_vs_extended_precision():
    for zeta in [2.5, 40326.0, 0.017, 123.4, 1e-6]:
        for beta, eta in [(CP.beta, CP.eta), (1.1e-6, 0.78734), (0.33, 1.5)]:
            b, db = bond_order(zeta, beta, eta)
            exact = _mp_bond(zeta, beta, eta)
            dexact = mpmath.diff(lambda z: _mp_bond(z, beta, eta),
                                 mpmath.mpf(zeta))
            assert abs(b - float(exact)) <= 1e-10 * abs(float(exact))
            assert abs(db - float(dexact)) <= 1e-10 * abs(float(dexact))


def test_bond_order_frozen_goldens():
    b, db = bond_order(40326.0, CP.beta, CP.eta)
    assert abs(b - 0.9830544811919522) < 1e-12
    assert abs(db - -2.993667136862498e-07) < 1e-19
    b, db = bond_order(2.5, CP.beta, CP.eta)
    assert abs(b - 0.9999849665058818) < 1e-12
    assert abs(db - -4.3747261909208935e-06) < 1e-18


def test_bond_order_zero_zeta_guard():
    b, db = bond_order(0.0, CP.beta, CP.eta)
    assert b == 1.0  # no neighbors -> full bond strength, exactly
    assert db == 0.0  # eta < 1 derivative blowup is defined away
    b, db = bond_order(1e-31, CP.beta, CP.eta)
    assert db == 0.0 and math.isfinite(b)
    assert ZETA_TINY == 1e-30


# ------------------------------------------------------------- zeta term

def _zeta_grads(d_ij, d_ik, p):
    """_zeta_parts on displacement vectors: (value, g_i, g_j, g_k), with
    g_i = -(g_j + g_k) composed as the kernels do."""
    r_ij = float(np.linalg.norm(d_ij))
    r_ik = float(np.linalg.norm(d_ik))
    val, gjx, gjy, gjz, gkx, gky, gkz = _zeta_parts(
        *d_ij, r_ij, *d_ik, r_ik, p.R, p.D, p.gamma, p.c, p.d, p.h,
        p.lam3, p.m)
    gj = np.array([gjx, gjy, gjz])
    gk = np.array([gkx, gky, gkz])
    return val, -(gj + gk), gj, gk


def _random_triplet(rng, spread=0.4):
    xi = rng.uniform(-0.2, 0.2, 3)
    xj = xi + rng.normal(size=3) * spread + np.array([1.4, 0, 0])
    xk = xi + rng.normal(size=3) * spread + np.array([-0.6, 1.25, 0])
    return xi, xj, xk


def _zeta_value_at(atoms, p):
    """zeta value in 80-bit arithmetic: the FD oracle needs the extra
    precision so central differences at step 1e-6 are not roundoff-bound
    for carbon's large angular weights."""
    xi, xj, xk = atoms
    dj = xj - xi
    dk = xk - xi
    rij = np.sqrt(dj @ dj)
    rik = np.sqrt(dk @ dk)
    ld = np.longdouble
    return float(_zeta_parts(
        dj[0], dj[1], dj[2], rij, dk[0], dk[1], dk[2], rik,
        ld(p.R), ld(p.D), ld(p.gamma), ld(p.c), ld(p.d), ld(p.h),
        ld(p.lam3), p.m, xm=np)[0])


@pytest.mark.parametrize("p", [CP, two_species_table().entry(0, 1, 1),
                               silicon_table().entry(0, 0, 0)],
                         ids=["carbon", "mixed-m1", "silicon"])
def test_zeta_gradients_match_finite_differences(p):
    h = np.longdouble(1e-6)
    checked = 0
    for trial in range(12):
        xi, xj, xk = _random_triplet(np.random.default_rng(100 + trial))
        if not (0.3 < np.linalg.norm(xk - xi) < p.R + p.D - 0.05):
            continue  # keep clear of the taper join for clean FD
        checked += 1
        val, gi, gj, gk = _zeta_grads(xj - xi, xk - xi, p)
        scale = max(float(np.abs(np.array([gi, gj, gk])).max()), 1.0)
        atoms = [x.astype(np.longdouble) for x in (xi, xj, xk)]
        for a, grad in zip(range(3), (gi, gj, gk)):
            for axis in range(3):
                pp = [x.copy() for x in atoms]
                pm = [x.copy() for x in atoms]
                pp[a][axis] += h
                pm[a][axis] -= h
                fd = (_zeta_value_at(pp, p) - _zeta_value_at(pm, p)) / float(2 * h)
                denom = max(abs(grad[axis]), 1e-2 * scale)
                assert abs(fd - grad[axis]) <= 1e-6 * denom, (trial, a, axis)
    assert checked >= 5  # the geometry filter must not starve the test


def test_zeta_translation_invariance():
    xi, xj, xk = _random_triplet(np.random.default_rng(5))
    _, gi, gj, gk = _zeta_grads(xj - xi, xk - xi, CP)
    assert np.all(gi == -(gj + gk))  # constructed identity, bit for bit
    scale = float(np.abs(np.array([gi, gj, gk])).max())
    assert np.abs(gi + gj + gk).max() <= 1e-12 * scale


def test_zeta_rotation_invariance():
    rng = np.random.default_rng(17)
    xi, xj, xk = _random_triplet(rng)
    v0 = _zeta_grads(xj - xi, xk - xi, CP)[0]
    for _ in range(5):
        q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        v = _zeta_grads(q @ (xj - xi), q @ (xk - xi), CP)[0]
        assert abs(v - v0) <= 1e-12 * abs(v0)


def test_zeta_beyond_cutoff_is_zero():
    val, gi, gj, gk = _zeta_grads(
        np.array([1.4, 0.0, 0.0]), np.array([0.0, 2.2, 0.0]), CP)  # r_ik > R+D
    assert val == 0.0
    assert np.all(gi == 0.0) and np.all(gj == 0.0) and np.all(gk == 0.0)


def test_cos_theta_clamp_handles_collinear_rounding():
    # nearly collinear geometry: |cos| can exceed 1 by rounding; must not blow up
    d_ij = np.array([1.4, 0.0, 0.0])
    d_ik = np.array([1.9, 1e-9, 0.0])
    val = _zeta_grads(d_ij, d_ik, CP)[0]
    assert math.isfinite(val) and val > 0


# ------------------------------------------------------ pair energy/force

PAIR_CP = (CP.R, CP.D, CP.A, CP.lam1, CP.B, CP.lam2, CP.beta, CP.eta)


def test_pair_energy_zero_zeta_reduces_to_cutoff_times_pair_terms():
    r = 1.4
    v, dv_dr, dz = _pair_parts(r, 0.0, *PAIR_CP)
    fc, dfc = f_cutoff(r, CP.R, CP.D)
    fr, dfr = f_repulsive(r, CP.A, CP.lam1)
    fa, dfa = f_attractive(r, CP.B, CP.lam2)
    assert v == fc * (fr + fa)  # b(0) = 1 exactly
    assert dv_dr == dfc * (fr + fa) + fc * (dfr + dfa)  # pure pair term
    assert dz == 0.0


def test_pair_energy_frozen_dimer_goldens():
    # frozen from a 50-digit evaluation at r = 1.4, double parameter values
    v, dv_dr, _ = _pair_parts(1.4, 0.0, *PAIR_CP)
    assert abs(v - -5.117768228846192) < 1e-13  # one ordered pair
    assert abs(dv_dr - -2.1479988885945214) < 1e-13


def test_delta_zeta_sign_and_magnitude():
    # dV/dzeta = fC fA db: fA < 0 and db < 0, so delta_zeta > 0
    v, _, dz = _pair_parts(1.4, 40326.0, *PAIR_CP)
    assert dz > 0
    fc, _ = f_cutoff(1.4, CP.R, CP.D)
    fa, _ = f_attractive(1.4, CP.B, CP.lam2)
    _, db = bond_order(40326.0, CP.beta, CP.eta)
    assert v == pytest.approx(fc * (f_repulsive(1.4, CP.A, CP.lam1)[0]
                                    + bond_order(40326.0, CP.beta, CP.eta)[0] * fa))
    assert dz == fc * fa * db


# ------------------------------------------------------------ lane mirrors

def _lane_params_pair(bk, rows):
    cols = list(zip(*rows))
    return [real_lanes(bk, np.array(c)) for c in cols]


@pytest.mark.parametrize("width,make_table", [
    *(pytest.param(w, two_species_table, id=str(w)) for w in (1, 2, 4, 8, 16)),
    pytest.param(16, silicon_table, id="silicon-16")])
def test_lane_forms_bit_identical_to_scalar_in_strict_mode(width, make_table):
    """The mirrored expression trees: strict lanes == scalar, bit for bit."""
    bk = Backend("emulated", width, strict=True)
    tab = make_table()
    rng = np.random.default_rng(width)

    # gather per-lane random params from the table
    S = tab.nspecies
    trips = [tab.entry(*rng.integers(0, S, 3)) for _ in range(width)]
    pairs = [tab.pair_entry(*rng.integers(0, S, 2)) for _ in range(width)]

    dj = rng.uniform(-1.5, 1.5, (width, 3)) + np.array([1.4, 0, 0])
    dk = rng.uniform(-1.5, 1.5, (width, 3)) + np.array([-0.5, 1.2, 0])
    rij = np.sqrt((dj * dj).sum(axis=1))
    rik = np.sqrt((dk * dk).sum(axis=1))
    zeta = rng.uniform(0.0, 3e4, width)
    zeta[0] = 0.0  # exercise the tiny-zeta guard lane

    # --- zeta parts: displacements and gradients are (3, W) blocks
    val, gj, gk = zeta_parts_lanes(
        bk, real_lanes(bk, dj.T), real_lanes(bk, rij),
        real_lanes(bk, dk.T), real_lanes(bk, rik),
        *_lane_params_pair(bk, [(p.R, p.D, p.gamma, p.c, p.d, p.h, p.lam3,
                                 p.m) for p in trips]))
    assert gj.shape == gk.shape == (3, width)
    for lane in range(width):
        p = trips[lane]
        want = _zeta_parts(
            dj[lane, 0], dj[lane, 1], dj[lane, 2], float(rij[lane]),
            dk[lane, 0], dk[lane, 1], dk[lane, 2], float(rik[lane]),
            p.R, p.D, p.gamma, p.c, p.d, p.h, p.lam3, p.m)
        assert val[lane] == want[0]
        for c in range(3):
            assert gj[c, lane] == want[1 + c]
            assert gk[c, lane] == want[4 + c]

    # --- pair parts
    lanes_out = pair_parts_lanes(
        bk, real_lanes(bk, rij), real_lanes(bk, zeta),
        *_lane_params_pair(bk, [(p.R, p.D, p.A, p.lam1, p.B, p.lam2,
                                 p.beta, p.eta) for p in pairs]))
    for lane in range(width):
        p = pairs[lane]
        scalar_out = _pair_parts(float(rij[lane]), float(zeta[lane]),
                                 p.R, p.D, p.A, p.lam1, p.B, p.lam2,
                                 p.beta, p.eta)
        for got, want in zip(lanes_out, scalar_out):
            assert got[lane] == want

    # --- individual functions
    # the scalar forms that do not branch run on lanes with xm=bk
    r = real_lanes(bk, rng.uniform(1.0, 2.2, width))
    lanes = [real_lanes(bk, a)
             for a in (CP.R, CP.D, CP.A, CP.lam1, CP.B, CP.lam2)]
    for got, sc_fn, args in [
            (f_cutoff_lanes(r, *lanes[0:2], bk), f_cutoff, (CP.R, CP.D)),
            (f_repulsive(r, *lanes[2:4], bk), f_repulsive, (CP.A, CP.lam1)),
            (f_attractive(r, *lanes[4:6], bk), f_attractive,
             (CP.B, CP.lam2))]:
        for lane in range(width):
            want = sc_fn(float(r[lane]), *args)
            assert got[0][lane] == want[0]
            assert got[1][lane] == want[1]
    cost = real_lanes(bk, rng.uniform(-1, 1, width))
    got = g_angle(cost, *[real_lanes(bk, a)
                          for a in (CP.gamma, CP.c, CP.d, CP.h)])
    for lane in range(width):
        want = g_angle(float(cost[lane]), CP.gamma, CP.c, CP.d, CP.h)
        assert got[0][lane] == want[0]
        assert got[1][lane] == want[1]
    got = bond_order_lanes(*[real_lanes(bk, a)
                             for a in (zeta, CP.beta, CP.eta)], bk)
    for lane in range(width):
        want = bond_order(float(zeta[lane]), CP.beta, CP.eta)
        assert got[0][lane] == want[0]
        assert got[1][lane] == want[1]


def _cutoff_where(bk, r, R, D):
    """f_cutoff_lanes without the plateau branch: every lane through the
    taper and the np.where selects."""
    a = (math.pi / 2) * ((r - R) / D)
    taper = 0.5 - 0.5 * bk.sin(a)
    dtaper = (-math.pi / 4 / D) * bk.cos(a)
    plateau, beyond = r <= R - D, r >= R + D
    return (np.where(plateau, 1.0, np.where(beyond, 0.0, taper)),
            np.where(plateau | beyond, 0.0, dtaper))


@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("taper_lanes", [0, 1, 3],
                         ids=["plateau", "one-taper", "mixed"])
def test_cutoff_lanes_plateau_branch_same_bytes(precision, taper_lanes):
    """A chunk with every lane on the plateau returns exact ones and zeros
    in r's dtype, the same bytes as the np.where path; a chunk that mixes
    in taper lanes (and one beyond R + D) takes that path."""
    bk = Backend("emulated", 8, precision=precision)
    r = np.linspace(1.2, CP.R - CP.D, 8)
    r[:taper_lanes] = [CP.R, CP.R + 0.5 * CP.D, CP.R + CP.D][:taper_lanes]
    r, R, D = (real_lanes(bk, x) for x in (r, CP.R, CP.D))
    got, want = f_cutoff_lanes(r, R, D, bk), _cutoff_where(bk, r, R, D)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == bk.real_dtype
        assert g.tobytes() == w.tobytes()
    assert (got[0].tolist() == [1.0] * 8) == (taper_lanes == 0)


# r_ik per lane for the lambda3 = 0 fold: 16 lanes on the plateau, then
# taper lanes (the joins, the midpoint) mixed in, then lanes beyond R + D
_FOLD_RIK = {
    "plateau": np.linspace(1.2, CP.R - CP.D, 16),
    "taper": np.r_[np.linspace(1.25, 1.75, 10), CP.R - CP.D, CP.R,
                   np.linspace(1.82, 2.08, 3), CP.R + CP.D],
    "beyond": np.r_[np.linspace(1.3, 1.7, 6), 1.85, CP.R, 2.05, CP.R + CP.D,
                    np.linspace(2.11, 2.6, 6)],
}


@pytest.mark.parametrize("precision,width", [
    ("double", 1), ("double", 8), ("double", 16), ("single", 8)])
@pytest.mark.parametrize("case", list(_FOLD_RIK))
def test_lambda3_zero_fold_bit_identical_to_scalar(case, precision, width):
    """Carbon's broadcast (1,) row, lambda3 = 0: a chunk on the cutoff
    plateau takes the fold without an exp, a chunk with taper or beyond
    lanes the general body. Every lane equals the scalar form bit for bit
    up to the sign of a zero (compared as x + 0.0), in chunks of `width`
    lanes."""
    strict = precision == "double"
    bk = Backend("emulated", width, precision=precision, strict=strict)
    if case == "plateau":
        bk.exp = lambda *args: pytest.fail("the lambda3 = 0 fold called exp")
    dtype = bk.real_dtype
    row = carbon_table().views(precision)[1][0]
    par = row[:, None]  # one (1,) lane array per field, as compute_lanes
    rng = np.random.default_rng(len(case))
    rik = _FOLD_RIK[case]
    dj = rng.normal(size=(16, 3))
    dk = rng.normal(size=(16, 3))
    dj *= rng.uniform(1.3, 1.7, (16, 1)) / np.linalg.norm(dj, axis=1)[:, None]
    dk *= rik[:, None] / np.linalg.norm(dk, axis=1)[:, None]
    dj, dk = dj.astype(dtype), dk.astype(dtype)
    rij = np.sqrt((dj * dj).sum(axis=1))
    rik = np.sqrt((dk * dk).sum(axis=1))
    # the scalar form's inputs: Python floats and math in double, float32
    # scalars and numpy in single, as the scalar kernels pass them
    scalar = [np.c_[dj, rij, dk, rik], row]
    if strict:
        scalar = [a.tolist() for a in scalar]
    xm = math if strict else np

    def flush(x):
        return (np.asarray(x, dtype=dtype) + dtype(0.0)).tobytes()

    for c0 in range(0, 16, width):
        lanes = slice(c0, c0 + width)
        val, gj, gk = zeta_parts_lanes(
            bk, dj[lanes].T.copy(), rij[lanes], dk[lanes].T.copy(),
            rik[lanes], *par)
        assert val.dtype == gj.dtype == gk.dtype == dtype
        for lane in range(width):
            want = _zeta_parts(*scalar[0][c0 + lane], *scalar[1], xm)
            got = [val[lane], *gj[:, lane], *gk[:, lane]]
            assert [flush(g) for g in got] == [flush(w) for w in want]


def test_fast_mode_lane_forms_close_to_strict():
    width = 8
    fast = Backend("emulated", width)
    strict = Backend("emulated", width, strict=True)
    rng = np.random.default_rng(3)
    r = rng.uniform(1.0, 2.05, width)
    z = rng.uniform(0, 4e4, width)
    args = (r, z, CP.R, CP.D, CP.A, CP.lam1, CP.B, CP.lam2, CP.beta, CP.eta)
    vf = pair_parts_lanes(fast, *[real_lanes(fast, a) for a in args])
    vs = pair_parts_lanes(strict, *[real_lanes(strict, a) for a in args])
    for got, want in zip(vf, vs):
        assert np.allclose(got, want, rtol=1e-12, atol=1e-300)


def test_single_precision_scalar_path():
    """float32 inputs with xm=numpy keep the whole chain in float32 and land
    within single-precision distance of the double result."""
    f32 = np.float32
    v32 = _pair_parts(f32(1.4), f32(40326.0), f32(CP.R), f32(CP.D), f32(CP.A),
                      f32(CP.lam1), f32(CP.B), f32(CP.lam2), f32(CP.beta),
                      f32(CP.eta), xm=np)
    v64 = _pair_parts(1.4, 40326.0, CP.R, CP.D, CP.A, CP.lam1, CP.B, CP.lam2,
                      CP.beta, CP.eta)
    assert v32[0].dtype == np.float32
    for a, b in zip(v32, v64):
        assert abs(float(a) - b) <= 2e-5 * max(abs(b), 1.0)


def test_param_views_reject_unknown_precision():
    table = carbon_table()
    with pytest.raises(ValueError, match="unknown precision 'half'"):
        table.views("half")
    assert [m.dtype for m in table.views("single")] == [np.float32] * 2
    assert [m.dtype for m in table.views("double")] == [np.float64] * 2


def test_params_validation():
    with pytest.raises(ValueError, match="m must be"):
        TersoffParams(m=2, gamma=1, lam3=0, c=1, d=1, h=0, eta=1, beta=1,
                      lam2=1, B=1, R=2, D=0.5, lam1=1, A=1)
    with pytest.raises(ValueError, match="R must exceed D"):
        TersoffParams(m=1, gamma=1, lam3=0, c=1, d=1, h=0, eta=1, beta=1,
                      lam2=1, B=1, R=0.4, D=0.5, lam1=1, A=1)
