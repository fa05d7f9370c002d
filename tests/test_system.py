"""Structure generators, integrator, and the NVE / stretch drivers."""

import types

import numpy as np
import pytest

import tersoffmd.system as system
from helpers import carbon_table
from tersoffmd.errors import ConfigurationError, InputError
from tersoffmd.kernels import compute, make_variant
from tersoffmd.neighbor import build_neighbor_list
from tersoffmd.system import (ACCEL, ELEMENT_MASSES, KB_EV, ForceField,
                              RunConfig, SimulationBox, SimulationState,
                              StretchSpec, gen_diamond, gen_nanotube,
                              kinetic_energy, read_xyz, run_nve, run_stretch,
                              seed_velocities, select_grips, state_from_xyz,
                              total_momentum, velocity_verlet_step,
                              write_xyz)

TABLE = carbon_table()


def distance_matrix(state):
    d = state.positions[:, None, :] - state.positions[None, :, :]
    for ax in range(3):
        if state.box.periodic[ax]:
            L = state.box.lengths[ax]
            d[..., ax] -= L * np.round(d[..., ax] / L)
    r = np.sqrt((d ** 2).sum(-1))
    np.fill_diagonal(r, np.inf)
    return r


# ---------------------------------------------------------------------
# constants and state plumbing
# ---------------------------------------------------------------------

def test_unit_constants():
    # (eV/A)/amu -> A/fs^2, from CODATA 2018 e and amu
    assert ACCEL == 1.602176634e-19 / 1.66053906660e-27 * 1e-10
    assert ACCEL == pytest.approx(9.648533215665327e-3, rel=1e-12)
    assert KB_EV == pytest.approx(8.617333262e-5, rel=1e-12)
    assert ELEMENT_MASSES["C"] == 12.011


def test_state_validation():
    box = SimulationBox([10, 10, 10])
    with pytest.raises(ConfigurationError, match=r"\(n, 3\)"):
        SimulationState(np.zeros((2, 2)), box)
    with pytest.raises(InputError, match="non-finite"):
        SimulationState(np.array([[np.nan, 0, 0]]), box)
    with pytest.raises(ConfigurationError, match="species"):
        SimulationState(np.zeros((2, 3)), box, species=np.array([0]))
    with pytest.raises(ConfigurationError, match="no mass"):
        SimulationState(np.zeros((1, 3)), box, species=np.array([1]),
                        masses=np.array([12.0]))
    with pytest.raises(ConfigurationError, match="positive"):
        SimulationBox([5.0, -1.0, 5.0])
    st = SimulationState(np.zeros((1, 3)), box)
    assert st.velocities.shape == (1, 3) and st.forces.shape == (1, 3)
    assert st.atom_masses[0] == ELEMENT_MASSES["C"]


def test_state_copy_is_independent():
    st = gen_nanotube(3, 1)
    cp = st.copy()
    assert not np.shares_memory(cp.positions, st.positions)
    before = st.positions.copy()
    cp.positions += 1.0
    cp.velocities += 0.5
    assert np.all(st.velocities == 0.0)
    assert st.positions.tobytes() == before.tobytes()


# ---------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------

def test_nanotube_atom_count():
    assert gen_nanotube(5, 10).natoms == 200  # 4 n cells
    assert gen_nanotube(3, 1).natoms == 12
    assert gen_nanotube(6, 4).natoms == 96


def test_nanotube_bonds_exact_and_coordination():
    st = gen_nanotube(5, 10)
    r = distance_matrix(st)
    nn = r.min(axis=1)
    assert np.max(np.abs(nn - 1.421)) < 1e-6  # in fact exact to 1e-14
    coord = (r < 2.0).sum(axis=1)
    # open ends: the 2n-atom end rings lose one neighbor
    assert np.all(np.isin(coord, (2, 3)))
    assert (coord == 2).sum() == 2 * 2 * 5
    assert (coord == 3).sum() == st.natoms - 20


def test_nanotube_scales_with_bond_length():
    a = gen_nanotube(4, 3, bond_length=1.421)
    b = gen_nanotube(4, 3, bond_length=2.842)
    ra, rb = distance_matrix(a), distance_matrix(b)
    fin = np.isfinite(ra)
    assert np.max(np.abs(rb[fin] / ra[fin] - 2.0)) < 1e-12


def test_nanotube_validation():
    with pytest.raises(ConfigurationError, match="chirality"):
        gen_nanotube(2, 5)
    with pytest.raises(ConfigurationError, match="cell"):
        gen_nanotube(5, 0)


def test_diamond_counts_and_geometry():
    assert gen_diamond(1).natoms == 8
    st = gen_diamond(3)
    assert st.natoms == 216
    assert st.box.periodic == (True, True, True)
    r = distance_matrix(st)
    nn_expected = 3.566 * np.sqrt(3.0) / 4.0
    assert np.max(np.abs(r.min(axis=1) - nn_expected)) < 1e-12
    assert np.all((r < 2.0).sum(axis=1) == 4)


def test_diamond_one_cell_box_too_small_for_lists():
    st = gen_diamond(1)  # generation itself is fine
    with pytest.raises(ConfigurationError, match="twice the build cutoff"):
        build_neighbor_list(st, TABLE.r_cut, skin=0.3)


# ---------------------------------------------------------------------
# velocities and observables
# ---------------------------------------------------------------------

def test_seed_velocities_momentum_and_temperature():
    st = gen_nanotube(5, 10)
    seed_velocities(st, 300.0, rng=7)
    assert np.max(np.abs(total_momentum(st))) < 1e-12 * st.natoms
    temperature = 2.0 * kinetic_energy(st) / (3.0 * st.natoms * KB_EV)
    assert temperature == pytest.approx(300.0, rel=0.2)
    assert kinetic_energy(st) > 0.0


@pytest.mark.parametrize("temperature", [-300.0, np.nan, np.inf])
def test_seed_velocities_rejects_bad_temperature(temperature):
    st = gen_nanotube(3, 2)
    with pytest.raises(ConfigurationError, match="temperature"):
        seed_velocities(st, temperature)
    assert st.velocities is None or not np.isnan(st.velocities).any()
    seed_velocities(st, 0.0)  # 0 K is a valid, motionless start
    assert not st.velocities.any()


# ---------------------------------------------------------------------
# XYZ round trip
# ---------------------------------------------------------------------

def test_xyz_round_trip(tmp_path):
    st = gen_nanotube(3, 2)
    path = tmp_path / "tube.xyz"
    write_xyz(path, st)
    frames = read_xyz(path)
    assert len(frames) == 1
    symbols, pos, comment = frames[0]
    assert symbols == ["C"] * st.natoms
    assert np.max(np.abs(pos - st.positions)) < 1e-9
    back = state_from_xyz(path)
    assert np.allclose(back.box.lengths, st.box.lengths)
    assert back.box.periodic == st.box.periodic
    assert np.max(np.abs(back.positions - st.positions)) < 1e-9
    write_xyz(path, st, comment="frame 2", append=True)
    assert len(read_xyz(path)) == 2
    with open(path, "a") as f:
        f.write("\n  \n\t\n")  # trailing whitespace ends the frames
    assert len(read_xyz(path)) == 2


def test_write_xyz_exact_bytes(tmp_path):
    """Two species, a negative zero and a tiny negative coordinate, which
    both print as -0.0000000000; an appended frame keeps its comment."""
    st = SimulationState(positions=[[0.0, -0.0, 1.5], [-1e-12, 2.25, 13.0]],
                         box=SimulationBox([10.0, 11.5, 12.0],
                                           (True, False, True)),
                         species=[0, 1], masses=[12.011, 28.0855],
                         symbols=("C", "Si"))
    path = tmp_path / "two.xyz"
    write_xyz(path, st)
    write_xyz(path, st, comment="frame 2", append=True)
    rows = (b"C 0.0000000000 -0.0000000000 1.5000000000\n"
            b"Si -0.0000000000 2.2500000000 13.0000000000\n")
    assert path.read_bytes() == (
        b"2\nbox 10 11.5 12 periodic 101 time 0\n" + rows
        + b"2\nframe 2\n" + rows)


@pytest.mark.parametrize("comment", [
    "box 10 10 periodic 111", "box 10 10 abc periodic 111",
    "box 10 10 10 periodic 1x1", "box 10 10 10 periodic 11",
    "box 10 10 10", "box 10 10 inf periodic 000"])
def test_xyz_malformed_box_comment_rejected(tmp_path, comment):
    """A box line that does not parse fails; it does not fall back to a
    free bounding box with shifted atoms."""
    path = tmp_path / "bad.xyz"
    write_xyz(path, gen_nanotube(3, 2), comment=comment)
    with pytest.raises(InputError, match="bad.xyz: malformed box"):
        state_from_xyz(path)
    # a comment with no box token keeps the bounding-box fallback
    write_xyz(path, gen_nanotube(3, 2), comment="frame 2")
    back = state_from_xyz(path)
    assert back.box.periodic == (False, False, False)
    assert np.allclose(back.positions.min(axis=0), 6.0)


# ---------------------------------------------------------------------
# integrator basics
# ---------------------------------------------------------------------

def two_distant_atoms():
    box = SimulationBox([20.0, 10.0, 10.0])
    return SimulationState(np.array([[3.0, 5.0, 5.0], [15.0, 5.0, 5.0]]),
                           box)


def test_fixed_point_zero_velocity_zero_force():
    st = two_distant_atoms()
    ff = ForceField(TABLE)
    before = st.positions.copy()
    velocity_verlet_step(st, 0.5, ff)
    assert st.positions.tobytes() == before.tobytes()
    assert np.all(st.velocities == 0.0)
    assert st.time == 0.5


def test_ballistic_advance_exact():
    box = SimulationBox([20.0, 20.0, 20.0])
    st = SimulationState(np.array([[5.0, 5.0, 5.0]]), box,
                         velocities=np.array([[0.01, 0.02, -0.005]]))
    ff = ForceField(TABLE)
    x0 = st.positions.copy()
    v = st.velocities.copy()
    dt = 0.7
    velocity_verlet_step(st, dt, ff)
    assert st.positions.tobytes() == (x0 + dt * v).tobytes()
    assert st.velocities.tobytes() == v.tobytes()


def test_periodic_wrap_during_integration():
    box = SimulationBox([6.0, 6.0, 6.0], periodic=(True, True, True))
    st = SimulationState(np.array([[5.0, 3.0, 3.0]]), box,
                         velocities=np.array([[2.0, 0.0, 0.0]]))
    ff = ForceField(TABLE)
    res = ff(st)
    for _ in range(2):
        res = velocity_verlet_step(st, 1.0, ff, res)
    assert st.positions[0, 0] == pytest.approx(3.0, abs=1e-12)
    assert 0.0 <= st.positions[0, 0] < 6.0


def test_nan_forces_abort():
    st = two_distant_atoms()

    def bad_forces(state):
        return types.SimpleNamespace(
            forces=np.array([[np.nan, 0, 0], [0, 0, 0]]),
            potential_energy=0.0)

    with pytest.raises(InputError, match="non-finite"):
        velocity_verlet_step(st, 0.5, bad_forces)


def test_coincident_atoms_rejected():
    box = SimulationBox([10.0, 10.0, 10.0])
    st = SimulationState(np.array([[2.0, 2.0, 2.0], [2.0, 2.0, 2.0]]), box)
    nl = build_neighbor_list(st, TABLE.r_cut, skin=0.3)
    with pytest.raises(InputError, match="coincident"):
        compute(st, nl, TABLE, make_variant("ScalarOpt"))


def test_dt_validation():
    st = two_distant_atoms()
    with pytest.raises(ConfigurationError, match="dt"):
        velocity_verlet_step(st, 0.0, ForceField(TABLE))
    with pytest.raises(ConfigurationError, match="dt"):
        RunConfig(dt=-0.5)
    for dt in (np.nan, np.inf):
        with pytest.raises(ConfigurationError, match="dt"):
            velocity_verlet_step(st, dt, ForceField(TABLE))
        with pytest.raises(ConfigurationError, match="dt"):
            RunConfig(dt=dt)
    with pytest.raises(ConfigurationError, match="steps"):
        RunConfig(steps=-1)
    with pytest.raises(ConfigurationError, match="dump_path"):
        RunConfig(dump_every=5)
    with pytest.raises(ConfigurationError, match="dump_every"):
        RunConfig(dump_path="dump.xyz")


# ---------------------------------------------------------------------
# conservation
# ---------------------------------------------------------------------

def test_nve_conservation_short():
    st = gen_nanotube(4, 6)
    seed_velocities(st, 300.0, rng=2)
    cfg = RunConfig(dt=0.5, steps=300,
                    variant=make_variant("VecI", "native"))
    summary = run_nve(st, TABLE, cfg)
    etot = summary["total"]
    drift = np.max(np.abs(etot - etot[0])) / abs(summary["potential"][0])
    assert drift < 1e-4
    n = st.natoms
    assert summary["force_sum_max"].max() < 1e-9 * n
    assert np.max(np.abs(total_momentum(st))) < 1e-9 * n
    assert summary["rebuilds"] >= 1
    wc = summary["wall_clock"]
    assert wc["total"] >= wc["neighbor"] + wc["forces"] - 1e-9


def test_trajectory_equivalence_reference_vs_strict_veci():
    st_ref = gen_nanotube(3, 2)
    seed_velocities(st_ref, 300.0, rng=3)
    st_vec = st_ref.copy()
    cfg_ref = RunConfig(dt=0.5, steps=100, variant=make_variant("Reference"))
    cfg_vec = RunConfig(dt=0.5, steps=100,
                        variant=make_variant("VecI", "emulated", 4,
                                             strict=True))
    run_nve(st_ref, TABLE, cfg_ref)
    run_nve(st_vec, TABLE, cfg_vec)
    assert np.max(np.abs(st_ref.positions - st_vec.positions)) < 1e-6


# ---------------------------------------------------------------------
# stretch driver
# ---------------------------------------------------------------------

def test_stretch_requires_spec_and_grips():
    st = gen_nanotube(3, 2)
    with pytest.raises(ConfigurationError, match="stretch"):
        run_stretch(st, TABLE, RunConfig(steps=1))
    flat = SimulationState(np.array([[2., 2., 2.], [4., 2., 2.]]),
                           SimulationBox([10, 10, 10]))
    with pytest.raises(ConfigurationError, match="extent"):
        select_grips(flat, StretchSpec(axis=2, speed=0.01))
    with pytest.raises(ConfigurationError, match="grip_fraction"):
        StretchSpec(speed=0.01, grip_fraction=0.6)
    with pytest.raises(ConfigurationError, match="axis"):
        StretchSpec(axis=3)
    # the grips of a periodic axis would meet across the boundary
    cfg = RunConfig(steps=1, stretch=StretchSpec(axis=0, speed=0.05))
    with pytest.raises(ConfigurationError, match="periodic x axis"):
        run_stretch(gen_diamond(2), TABLE, cfg)


@pytest.mark.parametrize("speed", [np.inf, -np.inf, np.nan])
def test_stretch_spec_rejects_non_finite_speed(speed):
    with pytest.raises(ConfigurationError, match="pull speed"):
        StretchSpec(axis=2, speed=speed)


def test_stretch_speed_zero_is_plain_nve():
    st_a = gen_nanotube(3, 2)
    seed_velocities(st_a, 100.0, rng=5)
    st_b = st_a.copy()
    cfg_a = RunConfig(dt=0.5, steps=40,
                      variant=make_variant("VecI", "native"),
                      stretch=StretchSpec(axis=2, speed=0.0))
    cfg_b = RunConfig(dt=0.5, steps=40,
                      variant=make_variant("VecI", "native"))
    sa = run_stretch(st_a, TABLE, cfg_a)
    sb = run_nve(st_b, TABLE, cfg_b)
    assert sa["kind"] == "nve"
    assert np.array_equal(sa["potential"], sb["potential"])
    assert st_a.positions.tobytes() == st_b.positions.tobytes()


def test_frozen_atoms_get_no_kick():
    st = gen_nanotube(3, 2, bond_length=1.46)
    seed_velocities(st, 300.0, rng=6)
    frozen = np.zeros(st.natoms, dtype=bool)
    frozen[:5] = True
    ff = ForceField(TABLE)
    res = ff(st)
    half = 0.5 * 0.5 * ACCEL
    m = st.atom_masses[:, None]
    expect = st.velocities + half * res.forces / m
    v0 = st.velocities.copy()
    velocity_verlet_step(st, 0.5, ff, res, frozen=frozen)
    expect += half * st.forces / m
    assert np.abs(st.forces[frozen]).max() > 0.1
    assert st.velocities[frozen].tobytes() == v0[frozen].tobytes()
    assert (st.velocities[~frozen].tobytes()
            == expect[~frozen].tobytes())


def test_run_stretch_is_run_nve_with_the_same_config():
    def run(driver):
        st = gen_nanotube(3, 4)
        seed_velocities(st, 300.0, rng=4)
        cfg = RunConfig(dt=0.5, steps=30,
                        variant=make_variant("VecI", "native"),
                        stretch=StretchSpec(axis=2, speed=0.05))
        return st, driver(st, TABLE, cfg)

    st_a, sa = run(run_stretch)
    st_b, sb = run(run_nve)
    assert sa["kind"] == sb["kind"] == "stretch"
    assert sa["grip_atoms"] == sb["grip_atoms"]
    for key in ("potential", "kinetic", "total", "force_sum_max", "strain"):
        assert sa[key].tobytes() == sb[key].tobytes(), key
    for name in ("positions", "velocities", "forces"):
        assert (getattr(st_a, name).tobytes()
                == getattr(st_b, name).tobytes()), name
    wc = sa["wall_clock"]
    assert wc["total"] >= wc["neighbor"] + wc["forces"] - 1e-9


def test_stretch_elastic_loading():
    # start near the tube's own equilibrium bond so loading is elastic
    st = gen_nanotube(4, 8, bond_length=1.46)
    cfg = RunConfig(dt=0.5, steps=120,
                    variant=make_variant("VecI", "native"),
                    stretch=StretchSpec(axis=2, speed=0.004,
                                        grip_fraction=0.1))
    summary = run_stretch(st, TABLE, cfg)
    assert summary["grip_atoms"] == (16, 16)
    ep = summary["potential"]
    # grips launch elastic waves, so the trace oscillates; check the sign
    # of the net change, not per-step monotonicity
    assert ep[-10:].mean() > ep[:10].mean() + 0.1
    assert ep[-1] > ep[0]
    assert 0.005 < summary["strain"][-1] < 0.02
    # grip velocities stay frozen at +-speed/2 along the axis
    lo, hi = select_grips(st, cfg.stretch)
    # note: grips moved, reselect on the run's own masks via velocity
    vz = st.velocities[:, 2]
    assert (vz == -0.002).sum() >= 16
    assert (vz == +0.002).sum() >= 16
    wc = summary["wall_clock"]
    assert set(wc) == {"total", "neighbor", "forces"}


def test_stretch_variants_agree_over_first_100_steps():
    def trace(variant):
        st = gen_nanotube(3, 3, bond_length=1.46)
        cfg = RunConfig(dt=0.5, steps=100, variant=variant,
                        stretch=StretchSpec(axis=2, speed=0.004,
                                            grip_fraction=0.12))
        return run_stretch(st, TABLE, cfg)["potential"]

    base = trace(make_variant("Reference"))
    scale = np.abs(base).max()
    for variant in (make_variant("ScalarOpt"),
                    make_variant("VecJ", "emulated", 8),
                    make_variant("VecI", "native")):
        dev = np.max(np.abs(trace(variant) - base))
        assert dev < 1e-8 * scale


def test_force_field_frees_the_old_list_before_a_rebuild(monkeypatch):
    """The old list, with its topology and kernel record, is dropped before
    the new list is built, so it does not add to the build's memory peak."""
    ff = ForceField(TABLE)
    st = gen_nanotube(5, 4)
    ff(st)
    held = []
    build = system.build_neighbor_list

    def spying(*args, **kwargs):
        held.append(ff.nl)
        return build(*args, **kwargs)

    monkeypatch.setattr(system, "build_neighbor_list", spying)
    st.positions[0] += [0.2, 0.0, 0.0]  # beyond skin/2: a rebuild
    ff(st)
    assert held == [None] and ff.rebuilds == 2
