"""Tersoff bond-order potential: parameters and the potential math.

Energy model (per ordered pair i->j within the cutoff):

    V_ij = f_C(r_ij) * [ f_R(r_ij) + b_ij * f_A(r_ij) ]
    f_R(r) = A exp(-lambda1 r)
    f_A(r) = -B exp(-lambda2 r)
    f_C(r) = 1                                   r <= R - D
             1/2 - 1/2 sin(pi (r-R) / (2 D))     |r - R| < D
             0                                   r >= R + D
    b_ij   = (1 + (beta zeta_ij)^eta)^(-1/(2 eta))
    zeta_ij = sum_{k != i,j} f_C(r_ik) g(cos theta_ijk) exp((lambda3 (r_ij - r_ik))^m)
    g(cos) = gamma (1 + c^2/d^2 - c^2/(d^2 + (h - cos)^2))

The total energy is the plain sum of V_ij over ordered pairs (see
docs/math_notes.md for conventions, stability rewrites, and derivative
formulas). g is evaluated in the cancellation-free form
gamma*(1 + c^2 x^2 / (d^2 (d^2 + x^2))) with x = h - cos.

The scalar forms serve the reference/scalar kernels (pass ``xm=math`` for
double, ``xm=numpy`` with float32 inputs for single precision) and, where
they do not branch on a value, the lane kernel too: lane arrays (numpy
arrays of shape (W,)) with ``xm=bk`` take their transcendentals from the
SIMD backend ``bk``. `_pair_parts` is the one pair formula; on lanes it is
given the twins of the cutoff and bond-order forms it composes. Only forms
that branch on a value have ``*_lanes`` twins, which select with np.where:
the cutoff (plateau and beyond; the taper is shared), the bond order (the
tiny-zeta guard) and the zeta term (the m switch, the cos clamp, and
(3, W) blocks where the scalar form works per component x, y, z). Twins
share expression trees operation for operation, so a strict width-1 lane
run reproduces the scalar result bit for bit. The one exact shortcut is
`zeta_parts_lanes` on a chunk with lam3 = 0 and r_ik on the cutoff
plateau on every lane, which skips terms that are exactly 1 or +-0; it
moves at most the sign of a zero, which no output keeps (see its
docstring).
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .simd import real_dtype

HALF_PI = 0.5 * math.pi
NEG_QUARTER_PI = -0.25 * math.pi
ZETA_TINY = 1e-30  # below this, d b/d zeta is forced to 0 (eta < 1 blowup)

PAIR_FIELDS = ("R", "D", "A", "lam1", "B", "lam2", "beta", "eta")
TRIP_FIELDS = ("R", "D", "gamma", "c", "d", "h", "lam3", "m")


@dataclass(frozen=True)
class TersoffParams:
    """One parameter entry (one element triple) of a Tersoff table.

    Field names follow the 17-token file format: m, gamma, lam3, c, d, h,
    eta, beta, lam2, B, R, D, lam1, A. R and D are the cutoff midpoint and
    half-width in Angstrom; energies in eV, inverse lengths in 1/Angstrom.
    """

    m: int
    gamma: float
    lam3: float
    c: float
    d: float
    h: float
    eta: float
    beta: float
    lam2: float
    B: float
    R: float
    D: float
    lam1: float
    A: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.m not in (1, 3):
            raise ValueError(f"m must be 1 or 3, got {self.m}")
        if not self.A > 0:
            raise ValueError("A must be positive")
        if not self.B > 0:
            raise ValueError("B must be positive")
        if not self.D > 0:
            raise ValueError("D must be positive")
        if not self.R > self.D:
            raise ValueError("R must exceed D")
        if not self.eta > 0:
            raise ValueError("eta must be positive")
        if self.d == 0:
            raise ValueError("d must be nonzero")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")

    @property
    def r_cut(self):
        return self.R + self.D


class ParamTable:
    """Complete parameter table: one TersoffParams per ordered species triple.

    The (i,j) pair factors and bond-order constants come from entry
    (i,j,j); the zeta term for triple (i,j,k) reads entry (i,j,k).
    """

    def __init__(self, species, entries):
        self.species = tuple(species)
        s = len(self.species)
        if s == 0:
            raise ValueError("no species")
        missing = [(a, b, c) for a in range(s) for b in range(s)
                   for c in range(s) if (a, b, c) not in entries]
        if missing:
            names = ", ".join("-".join(self.species[x] for x in t)
                              for t in missing[:4])
            raise ValueError(f"incomplete table, missing triples: {names}")
        self.entries = dict(entries)
        self.r_cut = max(p.r_cut for p in entries.values())
        self._views = {}

    @property
    def nspecies(self):
        return len(self.species)

    def entry(self, ti, tj, tk):
        return self.entries[(ti, tj, tk)]

    def pair_entry(self, ti, tj):
        return self.entries[(ti, tj, tj)]

    def species_index(self, name):
        try:
            return self.species.index(name)
        except ValueError:
            raise KeyError(f"species {name!r} not in parameter table") from None

    # ---- kernel views, cached per precision ---------------------------

    def views(self, precision):
        """(pair_mat, trip_mat) in the precision's real dtype: row
        ti*S + tj holds PAIR_FIELDS of pair_entry(ti, tj), row
        (ti*S + tj)*S + tk holds TRIP_FIELDS of entry(ti, tj, tk)."""
        if precision not in self._views:
            dtype = real_dtype(precision)
            s = range(self.nspecies)
            pair = [[getattr(self.pair_entry(ti, tj), f) for f in PAIR_FIELDS]
                    for ti in s for tj in s]
            trip = [[getattr(self.entry(ti, tj, tk), f) for f in TRIP_FIELDS]
                    for ti in s for tj in s for tk in s]
            self._views[precision] = (np.array(pair, dtype=dtype),
                                      np.array(trip, dtype=dtype))
        return self._views[precision]


# ======================================================================
# scalar forms
# ======================================================================

def _taper(r, R, D, xm):
    """f_cutoff between its plateaus: (value, d/dr)."""
    a = HALF_PI * ((r - R) / D)
    return 0.5 - 0.5 * xm.sin(a), (NEG_QUARTER_PI / D) * xm.cos(a)


def f_cutoff(r, R, D, xm=math):
    """Smooth cutoff taper. Returns (value, d/dr); exactly (1,0)/(0,0) on
    the plateaus, C1 at both joins."""
    if r <= R - D:
        return 1.0, 0.0
    if r >= R + D:
        return 0.0, 0.0
    return _taper(r, R, D, xm)


def f_repulsive(r, A, lam1, xm=math):
    """A exp(-lambda1 r) and its r-derivative."""
    fr = A * xm.exp(-lam1 * r)
    return fr, -lam1 * fr


def f_attractive(r, B, lam2, xm=math):
    """-B exp(-lambda2 r) and its r-derivative (value is negative)."""
    fa = -B * xm.exp(-lam2 * r)
    return fa, -lam2 * fa


def g_angle(cos_theta, gamma, c, d, h):
    """Angular weight g(cos) and dg/dcos, in cancellation-free form."""
    x = h - cos_theta
    x2 = x * x
    c2 = c * c
    d2 = d * d
    den = d2 + x2
    gv = gamma * (1.0 + c2 * x2 / (d2 * den))
    dgv = (-2.0 * gamma) * c2 * x / (den * den)
    return gv, dgv


def bond_order(zeta, beta, eta, xm=math):
    """b(zeta) = (1+(beta zeta)^eta)^(-1/(2 eta)) and d b/d zeta.

    For zeta below ZETA_TINY the derivative is defined as 0: with eta < 1
    the analytic derivative diverges while its force contribution vanishes
    (it is always multiplied by f_C f_A db terms of bounded weight).
    """
    t = beta * zeta
    u = xm.pow(t, eta)
    b = xm.pow(1.0 + u, -0.5 / eta)
    if zeta < ZETA_TINY:
        return b, 0.0
    db = (-0.5 * beta) * xm.pow(t, eta - 1.0) * xm.pow(1.0 + u, -0.5 / eta - 1.0)
    return b, db


def _zeta_parts(dxj, dyj, dzj, rij, dxk, dyk, dzk, rik,
                R, D, gamma, c, d, h, lam3, m, xm=math):
    """zeta term for one (i,j,k): value plus gradients w.r.t. x_j and x_k.

    dx*/dy*/dz* are displacement components x_j - x_i and x_k - x_i. The
    x_i gradient is -(gj + gk) (translation invariance), composed by the
    caller. Returns (val, gjx, gjy, gjz, gkx, gky, gkz).
    """
    fc, dfc = f_cutoff(rik, R, D, xm)
    inv_rij = 1.0 / rij
    inv_rik = 1.0 / rik
    ejx = dxj * inv_rij
    ejy = dyj * inv_rij
    ejz = dzj * inv_rij
    ekx = dxk * inv_rik
    eky = dyk * inv_rik
    ekz = dzk * inv_rik
    cost = ejx * ekx + ejy * eky + ejz * ekz
    cost = min(1.0, max(-1.0, cost))
    gv, dgv = g_angle(cost, gamma, c, d, h)
    t = lam3 * (rij - rik)
    if m == 3:
        arg = t * t * t
        darg = (3.0 * lam3) * (t * t)
    else:
        arg = t
        darg = lam3
    ex = xm.exp(arg)
    val = fc * gv * ex
    dval_drij = val * darg
    dval_drik = dfc * gv * ex - val * darg
    dval_dcos = fc * dgv * ex
    # dcos/dx_j = (e_ik - cos e_ij)/r_ij ; dcos/dx_k = (e_ij - cos e_ik)/r_ik
    gjx = dval_drij * ejx + dval_dcos * ((ekx - cost * ejx) * inv_rij)
    gjy = dval_drij * ejy + dval_dcos * ((eky - cost * ejy) * inv_rij)
    gjz = dval_drij * ejz + dval_dcos * ((ekz - cost * ejz) * inv_rij)
    gkx = dval_drik * ekx + dval_dcos * ((ejx - cost * ekx) * inv_rik)
    gky = dval_drik * eky + dval_dcos * ((ejy - cost * eky) * inv_rik)
    gkz = dval_drik * ekz + dval_dcos * ((ejz - cost * ekz) * inv_rik)
    return val, gjx, gjy, gjz, gkx, gky, gkz


def _pair_parts(r, zeta, R, D, A, lam1, B, lam2, beta, eta, xm=math,
                cutoff=f_cutoff, bond=bond_order):
    """Pair factors for one (i,j): (V, dV/dr at fixed zeta, dV/dzeta),
    composed of the cutoff and bond-order forms given."""
    fc, dfc = cutoff(r, R, D, xm)
    fr, dfr = f_repulsive(r, A, lam1, xm)
    fa, dfa = f_attractive(r, B, lam2, xm)
    b, db = bond(zeta, beta, eta, xm)
    inner = fr + b * fa
    v = fc * inner
    dv_dr = dfc * inner + fc * (dfr + b * dfa)
    delta_zeta = fc * fa * db
    return v, dv_dr, delta_zeta


# ======================================================================
# lane twins of the branching forms (same expression trees)
# ======================================================================

def f_cutoff_lanes(r, R, D, bk):
    plateau = r <= R - D
    if plateau.all():  # f_cutoff's first branch on every lane
        return plateau.astype(r.dtype), np.zeros_like(r)
    taper, dtaper = _taper(r, R, D, bk)
    beyond = r >= R + D
    fc = np.where(plateau, 1.0, np.where(beyond, 0.0, taper))
    dfc = np.where(plateau | beyond, 0.0, dtaper)
    return fc, dfc


def bond_order_lanes(zeta, beta, eta, bk):
    t = beta * zeta
    u = bk.pow(t, eta)
    b = bk.pow(1.0 + u, -0.5 / eta)
    tiny = zeta < ZETA_TINY
    t_safe = np.where(tiny, 1.0, t)
    db = (-0.5 * beta) * bk.pow(t_safe, eta - 1.0) \
        * bk.pow(1.0 + u, -0.5 / eta - 1.0)
    return b, np.where(tiny, 0.0, db)


def zeta_parts_lanes(bk, dj, rij, dk, rik, R, D, gamma, c, d, h, lam3, m):
    """Lane twin of _zeta_parts on (3, W) displacement blocks dj and dk.

    Returns (val, gj, gk) with gj and gk (3, W) blocks; row c repeats the
    scalar form's component-c expressions. m holds each lane's exponent,
    1 or 3, as the parameter rows store it.

    A chunk whose lam3 is 0 on every lane (carbon) and whose r_ik all sit
    on the cutoff plateau takes the one exact shortcut: ex = exp(+-0) = 1,
    val * darg = +-0 (val >= 0), fc = 1 and dfc = 0, so the cutoff, the
    exp, the m selects and the darg terms drop out. Dropping a +-0 term
    moves at most the sign of a zero, and no zero sign survives the force
    and zeta accumulators, which start at +0.0. Every other chunk takes
    the general body.
    """
    inv_rij = 1.0 / rij
    inv_rik = 1.0 / rik
    ej = dj * inv_rij
    ek = dk * inv_rik
    cost = ej[0] * ek[0] + ej[1] * ek[1] + ej[2] * ek[2]
    cost = np.minimum(np.maximum(cost, -1.0), 1.0)
    gv, dgv = g_angle(cost, gamma, c, d, h)
    if not lam3.any() and (rik <= R - D).all():
        return (gv, dgv * ((ek - cost * ej) * inv_rij),
                dgv * ((ej - cost * ek) * inv_rik))
    m_is3 = m == 3
    fc, dfc = f_cutoff_lanes(rik, R, D, bk)
    t = lam3 * (rij - rik)
    arg = np.where(m_is3, t * t * t, t)
    darg = np.where(m_is3, (3.0 * lam3) * (t * t), lam3)
    ex = bk.exp(arg)
    val = fc * gv * ex
    dval_drij = val * darg
    dval_drik = dfc * gv * ex - val * darg
    dval_dcos = fc * dgv * ex
    gj = dval_drij * ej + dval_dcos * ((ek - cost * ej) * inv_rij)
    gk = dval_drik * ek + dval_dcos * ((ej - cost * ek) * inv_rik)
    return val, gj, gk


def pair_parts_lanes(bk, r, zeta, *par):
    """_pair_parts on lanes; par holds PAIR_FIELDS, each lanes or a scalar."""
    return _pair_parts(r, zeta, *par, bk, f_cutoff_lanes, bond_order_lanes)
