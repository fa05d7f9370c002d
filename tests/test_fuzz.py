"""Seeded fuzzing near the potential's non-smooth and degenerate spots.

Bonds are placed just inside and outside the cutoff taper joins r = R-D
and r = R+D, and bond angles at or near cos(theta) = -1 and +1 (a
neighbor directly behind another), where a kernel that went through
arccos or sin(theta) would break. Forces must stay finite, every
variant must agree with Reference, and the forces must match central
differences of the energy. The finite-difference step is kept well
below the distance of any pair from a taper join, so no stencil
straddles a kink.
"""

import numpy as np
import pytest

from helpers import carbon_table
from tersoffmd.kernels import compute, make_variant
from tersoffmd.neighbor import _wrap, build_neighbor_list
from tersoffmd.system import gen_diamond, gen_nanotube
from tersoffmd.verify import check_cross_variant

STEP = 1e-4  # central-difference step, A
GAP = (1e-3, 1e-2)  # placed bonds sit this far (A) from a taper join


def unit(v):
    return v / np.linalg.norm(v)


def bonds_of(st, i, r_max=1.7):
    d = _wrap(st.positions - st.positions[i], st.box)
    r = np.linalg.norm(d, axis=1)
    return [int(j) for j in np.flatnonzero((r > 0) & (r < r_max))]


def perturb(st, rng, table, centers=6):
    """Move a few atoms onto the taper joins and into collinear triples.

    Returns the atoms that were moved or had a neighbor moved.
    """
    p = table.entry(0, 0, 0)
    kinks = (p.R - p.D, p.R + p.D)
    st.positions += rng.uniform(-0.03, 0.03, st.positions.shape)
    touched = set()
    for c, i in enumerate(rng.choice(st.natoms, centers, replace=False)):
        i = int(i)
        nbrs = bonds_of(st, i)
        if len(nbrs) < 2 or touched & {i, *nbrs}:
            continue
        j, k = (int(a) for a in rng.choice(nbrs, 2, replace=False))
        xi = st.positions[i]
        rij = _wrap(st.positions[j] - xi, st.box)
        kind = c % 3
        if kind == 0:  # bond just inside or outside a taper join
            side = rng.choice((-1.0, 1.0))
            r = kinks[rng.integers(2)] + side * rng.uniform(*GAP)
            st.positions[j] = xi + r * unit(rij)
        else:  # k behind i (cos = -1) or behind j (cos = +1)
            tilt = 0.0 if c < 3 else rng.uniform(1e-4, 1e-3)
            axis = unit(rij) * (-1.0 if kind == 1 else 1.0)
            side = unit(np.cross(axis, rng.normal(size=3)))
            r = 1.45 if kind == 1 else 1.9
            st.positions[k] = xi + r * unit(axis + tilt * side)
        touched |= {i, j, k}
    return sorted(touched), kinks


def fd_forces(st, nl, table, variant, atoms):
    probe = st.copy()
    out = np.zeros((len(atoms), 3))
    for row, a in enumerate(atoms):
        for ax in range(3):
            x0 = probe.positions[a, ax]
            e = []
            for mult in (-2.0, -1.0, 1.0, 2.0):
                probe.positions[a, ax] = x0 + mult * STEP
                e.append(compute(probe, nl, table, variant).potential_energy)
            probe.positions[a, ax] = x0
            out[row, ax] = -(e[0] - 8.0 * e[1] + 8.0 * e[2] - e[3]) / (
                12.0 * STEP)
    return out


@pytest.mark.parametrize("make,seed", [(lambda: gen_nanotube(5, 2), 21),
                                       (lambda: gen_diamond(2), 22)],
                         ids=["tube40", "diamond64"])
def test_forces_near_cutoff_joins_and_collinear_bonds(make, seed):
    table = carbon_table()
    st = make()
    rng = np.random.default_rng(seed)
    atoms, kinks = perturb(st, rng, table)
    assert len(atoms) >= 9  # at least three perturbations landed

    d = _wrap(st.positions[None] - st.positions[:, None], st.box)
    r = np.linalg.norm(d, axis=-1)[np.triu_indices(st.natoms, 1)]
    gap = np.min([np.abs(r - k).min() for k in kinks])
    assert 2.0 * STEP < gap < GAP[1]  # some bond near a join, none across

    variant = make_variant("ScalarOpt")
    nl = build_neighbor_list(st, table.r_cut, skin=0.3)
    res = compute(st, nl, table, variant)
    assert np.isfinite(res.forces).all()
    assert np.isfinite(res.potential_energy)

    for check in check_cross_variant(st, table):
        assert check.passed, check

    fd = fd_forces(st, nl, table, variant, atoms)
    analytic = res.forces[atoms]
    sig = np.abs(analytic) > 1e-2
    assert sig.sum() >= 12
    rel = np.abs(fd[sig] - analytic[sig]) / np.abs(analytic[sig])
    assert rel.max() < 1e-6
