"""Shared test fixtures: parameter tables and random configurations."""

import numpy as np

from tersoffmd.paramfile import builtin_params, parse_params
from tersoffmd.potential import ParamTable, TersoffParams

_CARBON = None


def carbon_table():
    global _CARBON
    if _CARBON is None:
        _CARBON = builtin_params("C")
    return _CARBON


# Si(C) as distributed with LAMMPS: the m = 3 branch with lam3 != 0, so
# the zeta term's exponent is the cube (lam3 t)^3 at t = r_ij - r_ik != 0
SILICON_LINE = ("Si Si Si 3.0 1.0 1.3258 4.8381 2.0417 0.0 22.956 0.33675 "
                "1.3258 95.373 3.0 0.2 3.2394 3264.7")


def silicon_table():
    return parse_params(SILICON_LINE, "Si(C)")


def two_species_table():
    """Synthetic two-species table (carbon-derived, NOT a published set).

    Field values vary with the species triple so that pair-entry and
    per-triple lookups, the m=1 branch, and lam3 != 0 all get exercised.
    """
    entries = {}
    for si in range(2):
        for sj in range(2):
            for sk in range(2):
                m = 3 if sk == 0 else 1
                entries[(si, sj, sk)] = TersoffParams(
                    m=m,
                    gamma=1.0 + 0.1 * sk,
                    lam3=0.0 if m == 3 else 0.8,
                    c=38049.0 * (1.0 - 0.2 * si),
                    d=4.3484 + 0.5 * sj,
                    h=-0.57058 + 0.05 * sk,
                    eta=0.72751 + 0.1 * si,
                    beta=1.5724e-7 * (1.0 + si + sj),
                    lam2=2.2119 - 0.1 * sj,
                    B=346.74 * (1.0 + 0.1 * si),
                    R=1.95 + 0.12 * (si + sj),
                    D=0.15 + 0.02 * sk,
                    lam1=3.4879 - 0.1 * si,
                    A=1393.6 * (1.0 + 0.05 * sj),
                )
    return ParamTable(("C", "X"), entries)


def random_cluster_positions(rng, n, grow_lo=1.35, grow_hi=1.9,
                             min_sep=1.05, kink_gap=0.04, kinks=(1.8, 2.1)):
    """Connected random cluster with bond-like spacings.

    Atoms are grown one at a time at a random distance from a random
    existing atom; candidates too close to any atom, or with any pair
    distance within kink_gap of a cutoff kink, are rejected (keeps
    finite-difference checks away from the taper joins).
    """
    pos = np.zeros((n, 3))
    placed = 1
    attempts = 0
    while placed < n:
        attempts += 1
        if attempts > 20000:
            raise RuntimeError("cluster generation stalled")
        anchor = pos[rng.integers(0, placed)]
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        cand = anchor + direction * rng.uniform(grow_lo, grow_hi)
        dists = np.linalg.norm(pos[:placed] - cand, axis=1)
        if dists.min() < min_sep:
            continue
        if any(abs(dists - k).min() < kink_gap for k in kinks):
            continue
        pos[placed] = cand
        placed += 1
    return pos


class Box:
    """Minimal orthorhombic box stub for neighbor-layer tests."""

    def __init__(self, lengths, periodic=(False, False, False)):
        self.lengths = np.asarray(lengths, dtype=np.float64)
        self.periodic = tuple(periodic)


class Frame:
    """positions + box, duck-typing what the neighbor layer reads."""

    def __init__(self, positions, box):
        self.positions = np.asarray(positions, dtype=np.float64)
        self.box = box


def free_frame(positions):
    positions = np.asarray(positions, dtype=np.float64)
    span = positions.max(axis=0) - positions.min(axis=0) + 8.0
    return Frame(positions, Box(span))


def real_lanes(bk, values):
    """Lanes in bk's real dtype from a length-W sequence or one scalar."""
    arr = np.asarray(values, dtype=bk.real_dtype)
    if arr.ndim == 0:
        arr = np.full(bk.width, arr, dtype=bk.real_dtype)
    return arr
