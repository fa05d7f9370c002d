"""Kernel equivalence, instrumentation counters and error handling.

The ground truth is tests/oracle.py (extended-precision triple loop +
finite differences), written before the kernels and sharing no code with
them.
"""

import numpy as np
import pytest

from helpers import (Box, Frame, carbon_table, free_frame,
                     random_cluster_positions, two_species_table)
from oracle import oracle_energy, oracle_forces
from tersoffmd.errors import ConfigurationError, InputError
from tersoffmd.kernels import KernelVariant, compute, make_variant
from tersoffmd.neighbor import build_neighbor_list, pack_adjacency
from tersoffmd.simd import EMULATED_WIDTHS, make_backend
from tersoffmd.system import ForceField, gen_diamond, gen_nanotube

# frozen in test_potential.py from the 50-digit evaluation
DIMER_E = -10.235536457692383
DIMER_F0X = -4.295997777189043

ALL_VARIANTS = [
    make_variant("Reference"),
    make_variant("ScalarOpt"),
    make_variant("VecJ", "emulated", 4),
    make_variant("VecI", "emulated", 4),
    make_variant("VecI", "native"),
]

VIDS = [v.describe() for v in ALL_VARIANTS]


def cluster(seed, n, mixed=False):
    rng = np.random.default_rng(seed)
    table = two_species_table() if mixed else carbon_table()
    fr = free_frame(random_cluster_positions(rng, n))
    fr.species = (rng.integers(0, 2, n) if mixed
                  else np.zeros(n, dtype=np.int64))
    nl = build_neighbor_list(fr, table.r_cut, skin=0.3)
    return fr, nl, table


def periodic_lattice(seed=5, reps=4, spacing=1.8, jitter=0.15):
    rng = np.random.default_rng(seed)
    grid = np.stack(np.meshgrid(*[np.arange(reps) * spacing] * 3,
                                indexing="ij"), -1).reshape(-1, 3)
    pos = grid + rng.uniform(-jitter, jitter, grid.shape)
    fr = Frame(pos, Box([reps * spacing] * 3, periodic=(True, True, True)))
    fr.species = np.zeros(len(pos), dtype=np.int64)
    table = carbon_table()
    return fr, build_neighbor_list(fr, table.r_cut, skin=0.3), table


def packed_row_lengths(fr, table):
    """Independent n_i count: brute-force distances under r_cut."""
    pos = fr.positions
    d = pos[:, None, :] - pos[None, :, :]
    for ax in range(3):
        if fr.box.periodic[ax]:
            L = fr.box.lengths[ax]
            d[..., ax] -= L * np.round(d[..., ax] / L)
    r = np.sqrt((d ** 2).sum(-1))
    np.fill_diagonal(r, np.inf)
    return (r < table.r_cut).sum(1)


# ---------------------------------------------------------------------
# values against the independent oracle
# ---------------------------------------------------------------------

@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=VIDS)
def test_dimer_matches_frozen_goldens(variant):
    table = carbon_table()
    fr = free_frame(np.array([[0.0, 0.0, 0.0], [1.4, 0.0, 0.0]]))
    fr.species = np.zeros(2, dtype=np.int64)
    nl = build_neighbor_list(fr, table.r_cut, skin=0.3)
    res = compute(fr, nl, table, variant)
    assert res.potential_energy == pytest.approx(DIMER_E, rel=5e-14)
    assert res.forces[0, 0] == pytest.approx(DIMER_F0X, rel=5e-13)
    assert res.forces[0, 0] == -res.forces[1, 0]  # exact pair antisymmetry
    assert np.all(res.forces[:, 1:] == 0.0)
    assert res.per_atom_energy.sum() == pytest.approx(DIMER_E, rel=5e-14)


@pytest.mark.parametrize("mixed", [False, True], ids=["carbon", "mixed"])
@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=VIDS)
def test_matches_oracle_on_random_clusters(variant, mixed):
    for seed in range(6):
        n = 4 + seed % 5
        fr, nl, table = cluster(seed, n, mixed)
        res = compute(fr, nl, table, variant)
        e_ref = float(oracle_energy(fr.positions, fr.species, table))
        assert res.potential_energy == pytest.approx(e_ref, rel=1e-12)
        f_ref = oracle_forces(fr.positions, fr.species, table)
        assert np.max(np.abs(res.forces
                             - f_ref.astype(np.float64))) < 1e-10
        assert res.per_atom_energy.sum() == pytest.approx(e_ref, rel=1e-12)


def test_forces_match_finite_differences():
    # step 1e-5, relative bar 1e-6 on components above 1e-2 eV/A
    for seed in (1, 2, 3):
        fr, nl, table = cluster(seed, 7)
        res = compute(fr, nl, table, make_variant("ScalarOpt"))
        f_fd = oracle_forces(fr.positions, fr.species, table,
                             h=1e-5).astype(np.float64)
        sig = np.abs(res.forces) > 1e-2
        assert sig.sum() >= 12
        rel = np.abs(res.forces[sig] - f_fd[sig]) / np.abs(res.forces[sig])
        assert rel.max() < 1e-6


# ---------------------------------------------------------------------
# cross-variant agreement
# ---------------------------------------------------------------------

def _systems():
    yield cluster(0, 12)
    yield cluster(1, 25, mixed=True)
    yield cluster(2, 40)
    yield periodic_lattice()


def test_cross_variant_double():
    for fr, nl, table in _systems():
        ref = compute(fr, nl, table, make_variant("Reference"))
        for variant in ALL_VARIANTS[1:]:
            res = compute(fr, nl, table, variant)
            assert res.potential_energy == pytest.approx(
                ref.potential_energy, rel=1e-10)
            assert np.max(np.abs(res.forces - ref.forces)) < 1e-8


def test_cross_variant_single():
    singles = [
        make_variant("Reference", precision="single"),
        make_variant("ScalarOpt", precision="single"),
        make_variant("VecJ", "emulated", 8, "single"),
        make_variant("VecI", "native", precision="single"),
    ]
    for fr, nl, table in _systems():
        ref = compute(fr, nl, table, make_variant("Reference"))
        fscale = max(1.0, np.max(np.abs(ref.forces)))
        for variant in singles:
            res = compute(fr, nl, table, variant)
            assert res.potential_energy == pytest.approx(
                ref.potential_energy, rel=1e-4)
            # single-precision force bar scales with the force magnitude;
            # squeezed random clusters reach tens of eV/A
            assert np.max(np.abs(res.forces - ref.forces)) < 1e-3 * fscale
            assert res.forces.dtype == np.float64  # accumulators stay double


@pytest.mark.parametrize("mixed", [False, True], ids=["carbon", "mixed"])
@pytest.mark.parametrize("tag", ["VecJ", "VecI"])
def test_strict_width1_bit_identical_to_scalar_opt(tag, mixed):
    fr, nl, table = cluster(7, 8, mixed)
    base = compute(fr, nl, table, make_variant("ScalarOpt"))
    res = compute(fr, nl, table, make_variant(tag, "emulated", 1,
                                              strict=True))
    assert res.forces.tobytes() == base.forces.tobytes()
    assert np.float64(res.potential_energy).tobytes() == \
        np.float64(base.potential_energy).tobytes()
    assert res.per_atom_energy.tobytes() == base.per_atom_energy.tobytes()


@pytest.mark.parametrize("tag", ["VecJ", "VecI"])
def test_width_independence(tag):
    fr, nl, table = cluster(9, 20)
    runs = [compute(fr, nl, table, make_variant(tag, "emulated", w))
            for w in EMULATED_WIDTHS]
    if tag == "VecI":
        runs.append(compute(fr, nl, table, make_variant(tag, "native")))
    e0, f0 = runs[0].potential_energy, runs[0].forces
    for res in runs[1:]:
        assert res.potential_energy == pytest.approx(e0, rel=1e-12)
        assert np.max(np.abs(res.forces - f0)) < 1e-12


@pytest.mark.parametrize("width", [64, 1024])
def test_native_is_emulated_at_the_same_width(width):
    """native is a width preset of the same lane code: same bits."""
    mixed, _, mixed_table = cluster(11, 40, mixed=True)
    table = carbon_table()
    for state, params in ((gen_nanotube(5, 10), table),
                          (gen_diamond(2), table), (mixed, mixed_table)):
        nl = build_neighbor_list(state, params.r_cut, skin=0.3)
        nat = compute(state, nl, params, make_variant("VecI", "native", width))
        emu = compute(state, nl, params,
                      make_variant("VecI", "emulated", width))
        assert nat.forces.tobytes() == emu.forces.tobytes()
        assert nat.per_atom_energy.tobytes() == emu.per_atom_energy.tobytes()
        assert nat.potential_energy == emu.potential_energy


def test_vec_j_is_vec_i_when_each_batch_is_one_row():
    """VecJ and VecI are schedules of one lane kernel: when every row of
    the packed adjacency fills a batch exactly, both schedules make the
    same batches, so every output is the same."""
    state = gen_diamond(2)
    state.positions = state.positions + np.random.default_rng(8).normal(
        0.0, 0.05, state.positions.shape)
    table = carbon_table()
    nl = build_neighbor_list(state, table.r_cut, skin=0.3)
    assert np.all(np.diff(pack_adjacency(state, nl).offsets) == 4)
    vj = compute(state, nl, table, make_variant("VecJ", "emulated", 4))
    vi = compute(state, nl, table, make_variant("VecI", "emulated", 4))
    assert vj.forces.tobytes() == vi.forces.tobytes()
    assert vj.per_atom_energy.tobytes() == vi.per_atom_energy.tobytes()
    assert vj.potential_energy == vi.potential_energy
    assert vj.stats == vi.stats


def _padding_frames():
    jittered = gen_nanotube(5, 10)
    rng = np.random.default_rng(11)
    jittered.positions += rng.uniform(-0.1, 0.1, jittered.positions.shape)
    lone = free_frame([[0, 0, 0], [1.45, 0, 0], [0, 1.45, 0], [30, 30, 30]])
    lone.species = np.zeros(4, dtype=np.int64)
    return [gen_nanotube(5, 10), jittered, gen_diamond(2), lone]


@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("tag,backend,width", [
    ("VecJ", "emulated", 8), ("VecJ", "emulated", 16),
    ("VecI", "emulated", 16), ("VecI", "native", None)])
def test_padding_lanes_raise_no_floating_point_error(tag, backend, width,
                                                     precision):
    """The gathers' fill values keep the math on padding and finished lanes
    finite: no overflow, invalid or divide-by-zero anywhere in a call."""
    table = carbon_table()
    variant = make_variant(tag, backend, width, precision)
    for fr in _padding_frames():
        nl = build_neighbor_list(fr, table.r_cut, skin=0.3)
        with np.errstate(all="raise"):
            compute(fr, nl, table, variant)


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=VIDS)
def test_total_force_vanishes(variant):
    fr, nl, table = cluster(4, 30)
    res = compute(fr, nl, table, variant)
    assert np.max(np.abs(res.forces.sum(axis=0))) < 1e-12 * len(fr.positions)


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=VIDS)
def test_repeat_runs_bit_identical(variant):
    fr, nl, table = cluster(6, 16, mixed=True)
    a = compute(fr, nl, table, variant)
    b = compute(fr, nl, table, variant)
    assert a.forces.tobytes() == b.forces.tobytes()
    assert a.potential_energy == b.potential_energy
    assert a.stats == b.stats


# ---------------------------------------------------------------------
# instrumentation
# ---------------------------------------------------------------------

def test_visit_counters_reference_twice_scalar_opt():
    fr, nl, table = cluster(3, 10)
    nsq = int((packed_row_lengths(fr, table).astype(np.int64) ** 2).sum())
    ref = compute(fr, nl, table, make_variant("Reference"))
    opt = compute(fr, nl, table, make_variant("ScalarOpt"))
    assert ref.stats["zeta_visits"] == 2 * nsq
    assert ref.lane_utilization is None
    assert opt.stats["zeta_visits"] == nsq
    for variant in ALL_VARIANTS[2:] + [make_variant("VecJ", "emulated", 8)]:
        res = compute(fr, nl, table, variant)
        assert res.stats["zeta_visits"] == nsq
        assert res.stats["gathers"] > 0
        assert 0.0 < res.lane_utilization <= 1.0


def test_lane_utilization_exact_on_chain():
    # chain 0-1-2 spaced 1.4 A: packed rows [1], [0,2], [1]
    table = carbon_table()
    fr = free_frame(np.array([[0.0, 0, 0], [1.4, 0, 0], [2.8, 0, 0]]))
    fr.species = np.zeros(3, dtype=np.int64)
    nl = build_neighbor_list(fr, table.r_cut, skin=0.3)
    vj = compute(fr, nl, table, make_variant("VecJ", "emulated", 4))
    # three one-i batches with 1, 2, 1 active lanes out of 4
    assert vj.stats["lane_active"] == 4
    assert vj.stats["lane_total"] == 12
    assert vj.lane_utilization == pytest.approx(1.0 / 3.0)
    vi = compute(fr, nl, table, make_variant("VecI", "emulated", 4))
    # four pairs fill a single width-4 batch
    assert vi.stats["lane_active"] == 4
    assert vi.stats["lane_total"] == 4
    assert vi.lane_utilization == 1.0
    # per batch: pair and geometry records, four per k step, pair params
    assert vj.stats["gathers"] == 7 + 11 + 7
    assert vi.stats["gathers"] == 2 + 2 * 4 + 1
    sc = compute(fr, nl, table, make_variant("ScalarOpt"))
    assert sc.lane_utilization is None
    assert sc.stats["gathers"] == 0


# ---------------------------------------------------------------------
# edges and errors
# ---------------------------------------------------------------------

@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=VIDS)
def test_lone_and_distant_atoms(variant):
    table = carbon_table()
    fr = free_frame(np.array([[0.0, 0.0, 0.0]]))
    fr.species = np.zeros(1, dtype=np.int64)
    nl = build_neighbor_list(fr, table.r_cut, skin=0.3)
    res = compute(fr, nl, table, variant)
    assert res.potential_energy == 0.0
    assert res.forces.shape == (1, 3) and np.all(res.forces == 0.0)
    fr2 = free_frame(np.array([[0.0, 0, 0], [5.0, 0, 0]]))
    fr2.species = np.zeros(2, dtype=np.int64)
    nl2 = build_neighbor_list(fr2, table.r_cut, skin=0.3)
    res2 = compute(fr2, nl2, table, variant)
    assert res2.potential_energy == 0.0
    assert np.all(res2.forces == 0.0)


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=VIDS)
def test_non_finite_position_rejected(variant):
    table = carbon_table()
    fr = free_frame(np.array([[0.0, 0, 0], [1.5, 0, 0]]))
    fr.species = np.zeros(2, dtype=np.int64)
    nl = build_neighbor_list(fr, table.r_cut, skin=0.3)
    fr.positions[1, 0] = np.nan
    with pytest.raises(InputError, match="non-finite"):
        compute(fr, nl, table, variant)


def test_species_index_outside_table_rejected():
    table = carbon_table()
    fr = free_frame(np.array([[0.0, 0, 0], [1.5, 0, 0]]))
    fr.species = np.array([0, 1])  # table only has carbon
    nl = build_neighbor_list(fr, table.r_cut, skin=0.3)
    with pytest.raises(ConfigurationError, match="species index"):
        compute(fr, nl, table, make_variant("ScalarOpt"))
    fr.species = np.array([0, -1])
    with pytest.raises(ConfigurationError, match="species index"):
        compute(fr, nl, table, make_variant("VecI", "native"))


def test_unknown_tag_rejected():
    with pytest.raises(ConfigurationError, match="kernel tag"):
        make_variant("Fastest")


def test_default_backends_and_vec_j_not_native():
    assert make_variant("Reference").backend.name == "scalar"
    assert make_variant("ScalarOpt").backend.name == "scalar"
    vec_j = make_variant("VecJ").backend
    assert (vec_j.name, vec_j.width) == ("emulated", 8)
    vec_i = make_variant("VecI").backend
    assert (vec_i.name, vec_i.width) == ("native", 1024)
    with pytest.raises(ConfigurationError, match="VecJ"):
        make_variant("VecJ", "native")
    with pytest.raises(ConfigurationError, match="VecJ"):
        KernelVariant("VecJ", make_backend("native", 16))


def test_neighbor_list_for_another_atom_count_rejected():
    """A list built for 80 atoms, used on 120 (and back): every kernel and
    a reused ForceField name both counts instead of returning (80, 3)
    forces or a numpy broadcast error."""
    table = carbon_table()
    small, large = gen_nanotube(5, 4), gen_nanotube(5, 6)
    for built, used in ((small, large), (large, small)):
        nl = build_neighbor_list(built, table.r_cut)
        counts = f"{built.natoms} atoms.* {used.natoms}"
        for variant in ALL_VARIANTS:
            with pytest.raises(ConfigurationError, match=counts):
                compute(used, nl, table, variant)
        ff = ForceField(table)
        ff(built)
        with pytest.raises(ConfigurationError, match=counts):
            ff(used)
