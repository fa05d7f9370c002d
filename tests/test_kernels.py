"""Kernel equivalence, instrumentation counters and error handling.

The ground truth is tests/oracle.py (extended-precision triple loop +
finite differences), written before the kernels and sharing no code with
them.
"""

import functools
import json
import os
import platform
import resource
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from helpers import (Box, Frame, carbon_table, free_frame,
                     random_cluster_positions, two_species_table)
from oracle import oracle_energy, oracle_forces
from tersoffmd.errors import ConfigurationError, InputError
from tersoffmd import kernels
import tersoffmd
from tersoffmd.kernels import (KERNEL_TAGS, LANE_TAGS, KernelVariant, compute,
                               make_variant)
from tersoffmd.neighbor import build_neighbor_list, pack_adjacency
from tersoffmd.simd import DEFAULT_WIDTHS, EMULATED_WIDTHS, Backend
from tersoffmd.system import ForceField, gen_diamond, gen_nanotube
from tersoffmd.verify import TOL_ENERGY, TOL_FORCE

# frozen in test_potential.py from the 50-digit evaluation
DIMER_E = -10.235536457692383
DIMER_F0X = -4.295997777189043

ALL_VARIANTS = [
    make_variant("Reference"),
    make_variant("ScalarOpt"),
    make_variant("VecJ", "emulated", 4),
    make_variant("VecI", "emulated", 4),
    make_variant("VecI", "native"),
    make_variant("VecI", "native", 1024),  # native off its preset width
    make_variant("VecI", "native", 2048),  # earlier preset widths
    make_variant("VecI", "native", 4096),
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
    """Strict lanes are libm per lane, so strict W=1 and the strict native
    widths all reproduce ScalarOpt bit for bit."""
    fr, nl, table = cluster(7, 8, mixed)
    base = compute(fr, nl, table, make_variant("ScalarOpt"))
    for backend, width in (("emulated", 1), ("native", 64), ("native", None)):
        res = compute(fr, nl, table, make_variant(tag, backend, width,
                                                  strict=True))
        assert res.forces.tobytes() == base.forces.tobytes()
        assert np.float64(res.potential_energy).tobytes() == \
            np.float64(base.potential_energy).tobytes()


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


def jittered(state, seed=3):
    """state displaced by a seeded uniform +-0.03 A jitter."""
    rng = np.random.default_rng(seed)
    state.positions += rng.uniform(-0.03, 0.03, state.positions.shape)
    return state


# every lane width the byte-identity test runs, as (tag, backend, width)
IDENTITY_WIDTHS = (
    [("VecI", "emulated", w) for w in EMULATED_WIDTHS]
    + [("VecI", "native", w) for w in (1024, 2048, 4096, 8192)]
    + [("VecJ", "emulated", w) for w in (1, 8, 16)]
    + [("VecJ", "native", w) for w in (64, 4096)]
    # odd width: the last batch of a row or a chunk is short
    + [("VecI", "emulated", 3), ("VecJ", "emulated", 3)])


@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("make_state", [lambda: gen_nanotube(5, 10),
                                        lambda: gen_diamond(2)],
                         ids=["tube200", "diamond64"])
def test_outputs_byte_identical_at_every_width(make_state, precision):
    """Criterion 04 at the production widths and in both schedules: each
    of the lane kernel's three force accumulators (the i, j and k roles)
    adds its updates in global pair or triple order, and the pair
    energies add in pair order, so forces and the energy do not move by
    a bit."""
    state = jittered(make_state())
    table = carbon_table()
    nl = build_neighbor_list(state, table.r_cut, skin=0.3)
    outputs = {}
    for tag, backend, width in IDENTITY_WIDTHS:
        res = compute(state, nl, table,
                      make_variant(tag, backend, width, precision))
        outputs[(tag, backend, width)] = (
            res.forces.tobytes(), np.float64(res.potential_energy).tobytes())
    first = outputs[IDENTITY_WIDTHS[0]]
    assert [k for k, out in outputs.items() if out != first] == []


def parameter_gathers(monkeypatch, table):
    """Count, in the returned list, the lanes of every gather from the
    table's parameter rows: the per-lane parameter path."""
    gather = Backend.gather
    lanes = []

    def gathering(self, records, idx):
        if any(records is m for m in table.views(self.precision)):
            lanes.append(idx.shape[0])
        return gather(self, records, idx)

    monkeypatch.setattr(Backend, "gather", gathering)
    return lanes


# numpy's dispatch levels, lowest last: "all" disables nothing; a named
# level disables every dispatched feature numpy lists after it
DISPATCH_LEVELS = ("all", "X86_V3", "X86_V2")

# one child per level: the outputs of a jittered 200-atom tube as
# name -> [forces hex, energy hex], and the features numpy found there
_DISPATCH_CHILD = """
import json
import numpy as np
from tersoffmd.kernels import compute, make_variant
from tersoffmd.neighbor import build_neighbor_list
from tersoffmd.paramfile import builtin_params
from tersoffmd.system import gen_nanotube
state = gen_nanotube(5, 10)
rng = np.random.default_rng(3)
state.positions += rng.uniform(-0.03, 0.03, state.positions.shape)
table = builtin_params("C")
nl = build_neighbor_list(state, table.r_cut, skin=0.3)
variants = {"ScalarOpt": make_variant("ScalarOpt"),
            "strict W=1": make_variant("VecI", "emulated", 1, strict=True),
            "strict preset": make_variant("VecI", "native", strict=True),
            "W=1": make_variant("VecI", "emulated", 1),
            "W=8": make_variant("VecI", "emulated", 8),
            "preset": make_variant("VecI", "native")}
runs = {}
for name, variant in variants.items():
    res = compute(state, nl, table, variant)
    runs[name] = [res.forces.tobytes().hex(),
                  np.float64(res.potential_energy).tobytes().hex()]
simd = np.show_config(mode="dicts")["SIMD Extensions"]
print(json.dumps({"found": simd.get("found", []), "runs": runs}))
"""


@functools.lru_cache(maxsize=None)
def _dispatch_child(disabled):
    """The child's outputs as name -> (forces bytes, energy bytes), run
    with NPY_DISABLE_CPU_FEATURES set to the disabled features in its own
    environment only."""
    src = os.path.dirname(os.path.dirname(tersoffmd.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
    out = subprocess.run([sys.executable, "-c", _DISPATCH_CHILD], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert not set(disabled) & set(report["found"]), report["found"]
    return {name: tuple(map(bytes.fromhex, run))
            for name, run in report["runs"].items()}


@pytest.mark.parametrize("level", DISPATCH_LEVELS)
def test_outputs_at_each_numpy_dispatch_level(level):
    """The architecture axis: at each numpy SIMD dispatch level this CPU
    has, strict lanes at W=1 and at the native preset give ScalarOpt's
    bytes, the same at every level; non-strict lanes give one set of
    bytes at W = 1, 8 and the preset, and agree across levels within the
    cross-variant tolerances."""
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    found = simd.get("found", [])
    if level == "all":
        disabled = ()
    elif level in simd.get("baseline", []):
        disabled = tuple(found)
    elif level in found:
        disabled = tuple(found[found.index(level) + 1:])
    else:
        pytest.skip(f"this CPU lacks numpy dispatch level {level}")
    runs = _dispatch_child(disabled)
    ref = _dispatch_child(())
    assert runs["strict W=1"] == runs["strict preset"] == runs["ScalarOpt"] \
        == ref["ScalarOpt"]
    assert runs["W=1"] == runs["W=8"] == runs["preset"]
    forces, energy = map(np.frombuffer, runs["preset"])
    ref_forces, ref_energy = map(np.frombuffer, ref["preset"])
    assert np.max(np.abs(forces - ref_forces)) <= TOL_FORCE
    assert abs(energy[0] - ref_energy[0]) <= TOL_ENERGY * abs(ref_energy[0])


def test_mixed_species_outputs_byte_identical_at_every_width(monkeypatch):
    """The per-lane parameter gather of a two-species system keeps the
    claim: non-strict lanes give one set of bytes at every width in both
    schedules, and strict lanes equal ScalarOpt bit for bit."""
    state, nl, table = cluster(11, 40, mixed=True)
    per_lane = parameter_gathers(monkeypatch, table)
    outputs = set()
    for tag in LANE_TAGS:
        for backend, width in (("emulated", 1), ("emulated", 3),
                               ("emulated", 16), ("native", 64),
                               ("native", None)):
            res = compute(state, nl, table, make_variant(tag, backend, width))
            outputs.add(_output_bytes(res)[:2])
    assert per_lane  # the per-lane gather ran
    assert len(outputs) == 1
    base = _output_bytes(compute(state, nl, table,
                                 make_variant("ScalarOpt")))[:2]
    for variant in (make_variant("VecI", "native", 256, strict=True),
                    make_variant("VecJ", "emulated", 5, strict=True)):
        assert _output_bytes(compute(state, nl, table, variant))[:2] == base


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
        assert nat.potential_energy == emu.potential_energy
        # trimming native batches moves no counter: lane_total still
        # counts W per batch
        assert set(nat.stats) == {"zeta_visits", "gathers", "lane_active",
                                  "lane_total"}
        assert nat.stats == emu.stats


@pytest.mark.parametrize("backend,width",
                         [("native", None), ("native", 64), ("emulated", 8),
                          ("scalar", None)])
def test_native_batches_carry_only_active_lanes(backend, width, monkeypatch):
    """Batches and triple chunks hold only their active lanes on every
    backend, not only on native: every gather, load and lane scatter sees
    at most W lanes, some fewer, the pair batches' lanes (their loads of
    the pair geometry) sum to lane_active, and lane_total is W per pair
    batch."""
    state = gen_nanotube(5, 10)
    table = carbon_table()
    nl = build_neighbor_list(state, table.r_cut, skin=0.3)
    gather, load = Backend.gather, Backend.load
    scatter_add = Backend.scatter_add
    lanes = []  # lanes of every gather, load and lane scatter
    pair_lanes = []  # lanes of each pair batch: its geometry load

    def gathering(self, records, idx):
        lanes.append(idx.shape[0])
        return gather(self, records, idx)

    def loading(self, records, start, stop):
        lanes.append(stop - start)
        if records.shape[1:] == (4,):  # the pairs' (dx, dy, dz, r)
            pair_lanes.append(stop - start)
        return load(self, records, start, stop)

    def scattering(self, dest, idx, vals):
        if dest.shape != (3, state.natoms):  # a force block: > W k updates
            lanes.append(idx.shape[0])
        return scatter_add(self, dest, idx, vals)

    monkeypatch.setattr(Backend, "gather", gathering)
    monkeypatch.setattr(Backend, "load", loading)
    monkeypatch.setattr(Backend, "scatter_add", scattering)
    variant = make_variant("VecI", backend, width)
    res = compute(state, nl, table, variant)
    W = variant.backend.width
    assert lanes and max(lanes) <= W
    if W > 1:
        assert min(lanes) < W  # a short batch is not padded out to W
    assert sum(pair_lanes) == res.stats["lane_active"] \
        == pack_adjacency(state, nl).npairs
    assert res.stats["lane_total"] == W * len(pair_lanes)


def _output_bytes(res):
    return (res.forces.tobytes(), np.float64(res.potential_energy).tobytes(),
            res.stats)


LANE_RECORD_VARIANTS = [make_variant("VecI"),
                        make_variant("VecI", "native", 2048),
                        make_variant("VecI", "native", 4096),
                        make_variant("VecI", "emulated", 4),
                        make_variant("VecJ", "emulated", 4)]


@pytest.mark.parametrize("variant", LANE_RECORD_VARIANTS,
                         ids=[v.describe() for v in LANE_RECORD_VARIANTS])
def test_index_record_follows_topology_and_species(variant):
    """The lane kernel's index record lives on the list's topology and
    depends on it alone: a reused topology, one derived again after a
    pair left the cutoff, a new species array and one edited in place all
    give the bytes of a fresh neighbor list, and a species change keeps
    the record."""
    state, nl, table = cluster(11, 40, mixed=True)
    rng = np.random.default_rng(6)

    def check():
        got = compute(state, nl, table, variant)
        fresh = build_neighbor_list(state, table.r_cut, skin=0.3)
        assert _output_bytes(got) == _output_bytes(
            compute(state, fresh, table, variant))

    check()
    topo, record = nl.topology, nl.topology.records
    state.positions += rng.uniform(-1e-4, 1e-4, state.positions.shape)
    check()
    assert nl.topology is topo and topo.records is record  # reused
    # stretch the longest pair across the cutoff, inside the skin
    adj = pack_adjacency(state, nl)
    far = int(np.argmax(adj.geom[:, 3]))
    j = int(adj.j[far])
    step = (table.r_cut + 0.01 - adj.geom[far, 3]) * adj.geom[far, :3] \
        / adj.geom[far, 3]
    assert np.linalg.norm(step) < 0.5 * nl.skin
    state.positions[j] += step
    check()
    assert nl.topology.records is not record
    topo, record = nl.topology, nl.topology.records
    state.species = 1 - state.species  # a new array
    check()
    assert nl.topology is topo and topo.records is record
    state.species[:5] = 1 - state.species[:5]  # the same array, edited
    check()
    assert nl.topology is topo and topo.records is record


def _record_by_loops(adj):
    """The index record from plain loops over the CSR rows, in
    ScalarOpt's order: pair by pair, k ascending, k != j."""
    offs, jl = adj.offsets.tolist(), adj.j.tolist()
    trip, tfirst = [], [0]
    for i in range(adj.natoms):
        for p in range(offs[i], offs[i + 1]):
            for kk in range(offs[i], offs[i + 1]):
                if jl[kk] != jl[p]:
                    trip.append([p, kk])
            tfirst.append(len(trip))
    return trip, tfirst


@pytest.mark.parametrize("mixed", [False, True], ids=["tube800", "mixed40"])
def test_index_record_matches_a_loop_over_the_rows(mixed):
    """The one-pass vectorised record equals a Python loop over the CSR
    rows: the triples and tfirst. The tube has more than 2,048 pairs and
    a topology that drops skin-list pairs beyond r_cut."""
    if mixed:
        state, nl, table = cluster(11, 40, mixed=True)
    else:
        state, table = jittered(gen_nanotube(5, 40)), carbon_table()
        nl = build_neighbor_list(state, table.r_cut, skin=0.3)
    compute(state, nl, table, make_variant())
    adj = pack_adjacency(state, nl)
    assert adj.topology is nl.topology
    if not mixed:
        assert adj.npairs > 2048 and nl.topology.kept is not None
    trip, tfirst = nl.topology.records
    assert {a.dtype for a in (trip, tfirst)} == {np.dtype(np.int32)}
    assert (trip.tolist(), tfirst.tolist()) == _record_by_loops(adj)


def test_index_record_memory_on_the_10k_tube():
    """One record build of the 10k-atom tube peaks at most 4 MB, under
    the neighbor build's own 7e6 bound (test_neighbor.py), and then holds
    exactly its int32 columns, tfirst and the (pair, k-pair) triples: no
    species, pair or triple types and no copy of the topology's i or j."""
    state = jittered(gen_nanotube(5, 500))
    table = carbon_table()
    nl = build_neighbor_list(state, table.r_cut, skin=0.3)
    adj = pack_adjacency(state, nl)
    kernels._records(adj)
    adj.topology.records = None
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trip, tfirst = kernels._records(adj)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ntrip = trip.shape[0]
    assert ntrip == int(tfirst[-1]) > 0
    record_bytes = 4 * ((adj.npairs + 1) + 2 * ntrip)
    assert peak - before <= 4e6
    assert 0 <= (held - before) - record_bytes < 2048, held - before


def ones_cluster(seed=12, n=40):
    """A cluster of species 1 only on the two-species table: one
    parameter row for every pair and triple, m = 1 and lam3 != 0."""
    state, _, table = cluster(seed, n, mixed=True)
    state.species = np.ones(n, dtype=np.int64)
    return state, build_neighbor_list(state, table.r_cut, skin=0.3), table


def test_one_species_parameter_rows_same_bits(monkeypatch):
    """With one species the lane kernel broadcasts one (pair, triple)
    parameter row over the lanes instead of gathering it per lane: strict
    W=1 still equals ScalarOpt bit for bit, and every width gives the
    same bytes."""
    state, nl, table = ones_cluster()
    per_lane = parameter_gathers(monkeypatch, table)
    base = compute(state, nl, table, make_variant("ScalarOpt"))
    for tag in ("VecJ", "VecI"):
        res = compute(state, nl, table,
                      make_variant(tag, "emulated", 1, strict=True))
        assert _output_bytes(res)[:2] == _output_bytes(base)[:2]
    assert per_lane == []  # the per-type path ran
    for precision in ("double", "single"):
        widths = ([("VecI", "emulated", w) for w in EMULATED_WIDTHS]
                  + [("VecJ", "emulated", w) for w in EMULATED_WIDTHS]
                  + [("VecI", "native", w) for w in (1024, 4096)])
        outputs = {_output_bytes(compute(
            state, nl, table, make_variant(*w, precision=precision)))[:2]
            for w in widths}
        assert len(outputs) == 1


@pytest.mark.parametrize("variant", LANE_RECORD_VARIANTS,
                         ids=[v.describe() for v in LANE_RECORD_VARIANTS])
def test_second_species_takes_the_per_lane_parameters_again(variant,
                                                            monkeypatch):
    """Each call picks its parameter rows from its species: one species
    broadcasts one row of each, and one atom of another species puts the
    per-lane parameter gathers back, with the bytes of a fresh neighbor
    list."""
    state, nl, table = ones_cluster()
    per_lane = parameter_gathers(monkeypatch, table)
    one = compute(state, nl, table, variant)
    assert per_lane == []
    state.species[7] = 0
    mixed = compute(state, nl, table, variant)
    assert per_lane
    assert mixed.stats["gathers"] > one.stats["gathers"]
    fresh = build_neighbor_list(state, table.r_cut, skin=0.3)
    assert _output_bytes(mixed) == _output_bytes(
        compute(state, fresh, table, variant))
    assert _output_bytes(mixed)[:2] != _output_bytes(one)[:2]


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
    """No overflow, invalid or divide-by-zero anywhere in a call, with
    short last batches and chunks and a lone atom's empty row."""
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


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap thresholds are glibc's")
def test_evaluations_reuse_the_freed_heap():
    """Importing the package fixes glibc's heap thresholds, so each
    evaluation reuses the heap the last one freed: with the sliding
    defaults a 1728-atom diamond evaluation could fault hundreds of pages
    back in."""
    state = jittered(gen_diamond(6))
    table = carbon_table()
    nl = build_neighbor_list(state, table.r_cut, skin=0.3)
    compute(state, nl, table, make_variant())
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        compute(state, nl, table, make_variant())
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 20 * 20, faults


def test_batch_temporaries_die_with_their_batch(monkeypatch):
    """Each pair batch frees its temporaries before the next one starts:
    the traced memory at the pair pass reads the same in every full
    batch. A batch that still held the previous batch's arrays would
    read at least one lane array (8 W bytes) more from the second batch
    on."""
    state = jittered(gen_nanotube(5, 30))  # 1,780 pairs: 3 full batches
    table = carbon_table()
    nl = build_neighbor_list(state, table.r_cut, skin=0.3)
    W = 512
    variant = make_variant("VecI", "emulated", W)
    compute(state, nl, table, variant)  # build the record first
    readings = []
    pair_parts = kernels.pair_parts_lanes

    def reading(bk, r, *args):
        if r.shape[0] == W:
            readings.append(tracemalloc.get_traced_memory()[0])
        return pair_parts(bk, r, *args)

    monkeypatch.setattr(kernels, "pair_parts_lanes", reading)
    tracemalloc.start()
    try:
        compute(state, nl, table, variant)
    finally:
        tracemalloc.stop()
    assert len(readings) == pack_adjacency(state, nl).npairs // W == 3
    assert max(readings) - min(readings) < 8 * W, readings


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
    # Per pair batch, 1 load: the geometry; its i and j are slices of the
    # topology's. Per chunk of up to W triples, 1 load and 2 gathers: the
    # (pair, k-pair, triple type) record and the geometry of both pairs.
    # One species: the parameter rows broadcast and are never gathered.
    # The k = j slot makes no triple, so row 1 gives the only two, (1,0,2)
    # and (1,2,0).
    # VecJ: rows of 1, 2 and 1 pairs with 0, 2 and 0 triples.
    assert vj.stats["gathers"] == 1 + (1 + 3) + 1
    # VecI: one batch of the 4 pairs and their 2 triples
    assert vi.stats["gathers"] == 1 + 3
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


def test_default_backends_and_vec_j_on_native():
    """A backend name only presets the width: VecJ defaults to emulated
    and runs on native too."""
    assert make_variant("Reference").backend.name == "scalar"
    assert make_variant("ScalarOpt").backend.name == "scalar"
    vec_j = make_variant("VecJ").backend
    assert (vec_j.name, vec_j.width) == ("emulated", 8)
    vec_i = make_variant("VecI").backend
    assert (vec_i.name, vec_i.width) == ("native", DEFAULT_WIDTHS["native"])
    w = DEFAULT_WIDTHS["native"]
    assert make_variant("VecJ", "native").describe() == \
        f"VecJ[native,W={w},double]"
    assert KernelVariant("VecJ", Backend("native", 16, strict=True)) \
        .describe() == "VecJ[native,W=16,double,strict]"


def test_make_variant_without_tag_is_the_production_kernel():
    w = DEFAULT_WIDTHS["native"]
    assert make_variant().describe() == f"VecI[native,W={w},double]"
    assert make_variant(precision="single").describe() == \
        f"VecI[native,W={w},single]"
    assert KERNEL_TAGS == ("Reference", "ScalarOpt", "VecJ", "VecI")
    assert LANE_TAGS == ("VecJ", "VecI")


@pytest.mark.parametrize("tag", KERNEL_TAGS)
def test_compute_packs_the_adjacency_once_per_call(tag, monkeypatch):
    """One prologue for every kernel: the traced benchmark counts these
    calls and reads the neighbor list from the second argument."""
    fr, nl, table = cluster(4, 12)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return pack_adjacency(*args, **kwargs)

    monkeypatch.setattr(kernels, "pack_adjacency", counting)
    for _ in range(2):
        compute(fr, nl, table, make_variant(tag))
    assert len(calls) == 2
    assert all(args[1] is nl for args in calls)


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
