"""Release acceptance checks.

One test per numbered claim the package makes about itself: kernel
equivalence, oracle agreement, width independence, conservation, work
counters, lane utilization, performance, and parameter-file handling.
Run with -v for one pass/fail line per criterion; each test also prints
its measured worst case next to the tolerance it was held to.
"""

import time

import numpy as np
import pytest

from helpers import (carbon_table, free_frame, random_cluster_positions,
                     two_species_table)
from oracle import oracle_energy, oracle_forces
from tersoffmd.bench import run_benchmark
from tersoffmd.kernels import compute, make_variant
from tersoffmd.neighbor import build_neighbor_list
from tersoffmd.paramfile import (ParamFileError, parse_params,
                                 serialize_params)
from tersoffmd.simd import EMULATED_WIDTHS
from tersoffmd.system import (RunConfig, gen_nanotube, run_nve,
                              seed_velocities, total_momentum)

TABLE = carbon_table()


def report(criterion, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}"
    print(line)
    assert ok, line


def cluster_state(seed, n, mixed=False):
    rng = np.random.default_rng(seed)
    fr = free_frame(random_cluster_positions(rng, n))
    fr.species = (rng.integers(0, 2, n) if mixed
                  else np.zeros(n, dtype=np.int64))
    return fr


def brute_row_lengths(fr, r_cut):
    d = fr.positions[:, None, :] - fr.positions[None, :, :]
    r = np.sqrt((d ** 2).sum(-1))
    np.fill_diagonal(r, np.inf)
    return (r < r_cut).sum(1)


@pytest.fixture(scope="module")
def cnt200():
    state = gen_nanotube(5, 10)
    assert state.natoms == 200
    return state


# ---------------------------------------------------------------------
# 1. all four kernels agree on randomized systems and the nanotube
# ---------------------------------------------------------------------

def test_01_cross_variant_equivalence(cnt200):
    t_start = time.perf_counter()
    rng = np.random.default_rng(2026)
    sizes = ([int(x) for x in rng.integers(5, 33, 40)]
             + [int(x) for x in rng.integers(33, 121, 6)]
             + [150, 300, 420, 500])
    assert len(sizes) == 50 and min(sizes) >= 5 and max(sizes) == 500
    systems = [cluster_state(1000 + k, n) for k, n in enumerate(sizes)]
    systems.append(cnt200)

    worst = {}
    for precision, e_tol, f_tol in (("double", 1e-10, 1e-8),
                                    ("single", 1e-4, 1e-3)):
        variants = [
            make_variant("Reference", precision=precision),
            make_variant("ScalarOpt", precision=precision),
            make_variant("VecJ", "emulated", 8, precision),
            make_variant("VecI", "native", precision=precision),
        ]
        worst_e = worst_f = 0.0
        for fr in systems:
            nl = build_neighbor_list(fr, TABLE.r_cut, 0.3)
            ref = compute(fr, nl, TABLE, variants[0])
            scale = max(abs(ref.potential_energy), 1e-30)
            for var in variants[1:]:
                res = compute(fr, nl, TABLE, var)
                worst_e = max(worst_e, abs(res.potential_energy
                                           - ref.potential_energy) / scale)
                worst_f = max(worst_f,
                              float(np.abs(res.forces - ref.forces).max()))
        assert worst_e <= e_tol and worst_f <= f_tol, \
            (precision, worst_e, worst_f)
        worst[precision] = (worst_e, worst_f)
    elapsed = time.perf_counter() - t_start
    report("01 cross-variant equivalence",
           elapsed < 60.0,
           f"51 systems x 4 kernels; double E {worst['double'][0]:.2e}"
           f"<=1e-10 rel, F {worst['double'][1]:.2e}<=1e-8; single E "
           f"{worst['single'][0]:.2e}<=1e-4, F {worst['single'][1]:.2e}"
           f"<=1e-3; {elapsed:.1f}s<60s")


# ---------------------------------------------------------------------
# 2. analytic forces against finite differences (step 1e-5 A)
# ---------------------------------------------------------------------

def test_02_force_gradient_oracle():
    t_start = time.perf_counter()
    variants = [
        make_variant("Reference"),
        make_variant("ScalarOpt"),
        make_variant("VecJ", "emulated", 4),
        make_variant("VecI", "native"),
    ]
    worst_rel, significant = 0.0, 0
    for k in range(20):
        mixed = k % 4 == 3
        fr = cluster_state(3000 + k, 5 + k % 6, mixed)
        table = two_species_table() if mixed else TABLE
        fd = oracle_forces(fr.positions, fr.species, table, h=1e-5)
        nl = build_neighbor_list(fr, table.r_cut, 0.3)
        for var in variants:
            forces = compute(fr, nl, table, var).forces
            sig = np.abs(forces) > 1e-2
            significant += int(sig.sum())
            rel = np.abs(forces[sig] - fd[sig]) / np.abs(forces[sig])
            if rel.size:
                worst_rel = max(worst_rel, float(rel.max()))
    elapsed = time.perf_counter() - t_start
    assert significant > 400
    report("02 gradient oracle (fd step 1e-5)",
           worst_rel <= 1e-6 and elapsed < 60.0,
           f"20 clusters, {significant} significant components, worst "
           f"{worst_rel:.2e}<=1e-6 rel; {elapsed:.1f}s<60s")


# ---------------------------------------------------------------------
# 3. brute-force extended-precision energy, exhaustive small clusters
# ---------------------------------------------------------------------

def test_03_brute_force_energy_oracle():
    variants = [
        make_variant("Reference"),
        make_variant("ScalarOpt"),
        make_variant("VecJ", "emulated", 4),
        make_variant("VecI", "emulated", 4),
    ]
    worst = 0.0
    for seed in range(100):
        n = 2 + seed % 7  # 2..8 atoms
        mixed = seed % 5 == 4
        fr = cluster_state(seed, n, mixed)
        table = two_species_table() if mixed else TABLE
        expected = float(oracle_energy(fr.positions, fr.species, table))
        scale = max(abs(expected), 1e-30)
        nl = build_neighbor_list(fr, table.r_cut, 0.3)
        for var in variants:
            e = compute(fr, nl, table, var).potential_energy
            worst = max(worst, abs(e - expected) / scale)
    report("03 brute-force oracle", worst <= 1e-12,
           f"100 seeds x 4 kernels, clusters <=8 atoms, worst "
           f"{worst:.2e}<=1e-12 rel energy")


# ---------------------------------------------------------------------
# 4. lane width never changes the physics
# ---------------------------------------------------------------------

def test_04_width_independence(cnt200):
    nl = build_neighbor_list(cnt200, TABLE.r_cut, 0.3)
    worst = 0.0
    for tag in ("VecJ", "VecI"):
        energies = [compute(cnt200, nl, TABLE,
                            make_variant(tag, "emulated", w)).potential_energy
                    for w in EMULATED_WIDTHS]
        worst = max(worst, (max(energies) - min(energies))
                    / abs(energies[0]))
    assert worst <= 1e-12

    scalar = compute(cnt200, nl, TABLE, make_variant("ScalarOpt"))
    bitwise = True
    for tag in ("VecJ", "VecI"):
        res = compute(cnt200, nl, TABLE,
                      make_variant(tag, "emulated", 1, strict=True))
        bitwise &= (res.forces.tobytes() == scalar.forces.tobytes()
                    and res.potential_energy == scalar.potential_energy)
    report("04 width independence",
           worst <= 1e-12 and bitwise,
           f"W in {EMULATED_WIDTHS}: energy spread {worst:.2e}<=1e-12 rel; "
           f"strict W=1 bit-identical to ScalarOpt: {bitwise}")


# ---------------------------------------------------------------------
# 5. NVE conservation on the nanotube
# ---------------------------------------------------------------------

def test_05_nve_conservation(cnt200):
    state = cnt200.copy()
    seed_velocities(state, 300.0, rng=11)
    p0 = total_momentum(state)
    cfg = RunConfig(dt=0.5, steps=1000,
                    variant=make_variant("VecI", "native"))
    summary = run_nve(state, TABLE, cfg)
    n = state.natoms
    total = summary["total"]
    drift = float(np.abs(total - total[0]).max() / abs(total[0]))
    fmax = float(np.max(summary["force_sum_max"]))
    pdrift = float(np.abs(total_momentum(state) - p0).max())
    ok = drift <= 1e-4 and fmax <= 1e-9 * n and pdrift <= 1e-9 * n
    report("05 NVE conservation", ok,
           f"1000 steps dt=0.5: drift {drift:.2e}<=1e-4 rel, "
           f"max force sum {fmax:.2e}<={1e-9 * n:.0e} (every step), "
           f"momentum drift {pdrift:.2e}<={1e-9 * n:.0e}")


# ---------------------------------------------------------------------
# 6. work counters: two-pass Reference does exactly twice the visits
# ---------------------------------------------------------------------

def test_06_work_counters(cnt200):
    chain = free_frame(np.array([[0.0, 0.0, 0.0], [1.4, 0.0, 0.0],
                                 [2.8, 0.0, 0.0]]))
    chain.species = np.zeros(3, dtype=np.int64)
    blob = cluster_state(77, 30)
    lines = []
    ok = True
    for fr, label in ((chain, "3-atom chain"), (blob, "30-atom cluster"),
                      (cnt200, "200-atom tube")):
        nsq = int((brute_row_lengths(fr, TABLE.r_cut) ** 2).sum())
        nl = build_neighbor_list(fr, TABLE.r_cut, 0.3)
        counted = [make_variant("Reference"), make_variant("ScalarOpt"),
                   make_variant("VecJ", "emulated", 4),
                   make_variant("VecI", "emulated", 4)]
        visits = {v.tag: compute(fr, nl, TABLE, v).stats["zeta_visits"]
                  for v in counted}
        ok &= (visits["Reference"] == 2 * nsq
               and visits["ScalarOpt"] == nsq
               and visits["VecJ"] == nsq and visits["VecI"] == nsq
               and visits["Reference"] == 2 * visits["ScalarOpt"])
        lines.append(f"{label}: ref {visits['Reference']}=2x{nsq}, "
                     f"others {nsq}")
    report("06 work counters", ok, "; ".join(lines))


# ---------------------------------------------------------------------
# 7. J-mode lane occupancy on the tube matches its coordination
# ---------------------------------------------------------------------

def test_07_lane_utilization_mode_j(cnt200):
    nl = build_neighbor_list(cnt200, TABLE.r_cut, 0.3)
    res = compute(cnt200, nl, TABLE, make_variant("VecJ", "emulated", 8))
    util = res.lane_utilization
    report("07 mode-J lane utilization", 0.33 <= util <= 0.45,
           f"CNT at W=8: {util:.4f} in [0.33, 0.45]")


# ---------------------------------------------------------------------
# 8. measured speedups at 10k atoms, report in all three formats
# ---------------------------------------------------------------------

def test_08_kernel_performance():
    t_start = time.perf_counter()
    state = gen_nanotube(5, 500)
    assert state.natoms == 10000
    variants = [make_variant("Reference"), make_variant("ScalarOpt"),
                make_variant("VecI", "native")]
    rep = run_benchmark(state, TABLE, variants, steps=20, warmup=1,
                        repeats=3)
    ref_row, scal_row, vec_row = rep.rows
    csv = rep.render("csv")
    import json as _json
    jrows = _json.loads(rep.render("json"))["rows"]
    tbl = rep.render("table")
    formats_ok = (csv.splitlines()[0] == "variant,backend,width,precision,"
                  "atoms,steps,time_s,speedup_ref,speedup_scalar,"
                  "efficiency,lane_util"
                  and len(csv.splitlines()) == 4 and len(jrows) == 3
                  and "VecI" in tbl)
    elapsed = time.perf_counter() - t_start
    ok = (scal_row.speedup_ref >= 1.2 and vec_row.speedup_scalar > 1.0
          and formats_ok and elapsed < 300.0)
    report("08 kernel performance (10k-atom tube, 20 steps)", ok,
           f"ScalarOpt {scal_row.speedup_ref:.2f}x>=1.2x Reference; "
           f"VecI native {vec_row.speedup_scalar:.2f}x>1x ScalarOpt; "
           f"3 formats rendered; {elapsed:.0f}s<300s")


# ---------------------------------------------------------------------
# 9. published carbon file parses, round-trips, rejects corruption
# ---------------------------------------------------------------------

def test_09_parameter_file_round_trip_and_rejection():
    import importlib.resources as res
    text = (res.files("tersoffmd.data") / "C.tersoff").read_text()
    table = parse_params(text, source="C.tersoff")
    assert table.nspecies == 1 and abs(table.r_cut - 2.1) < 1e-12

    # round trip: serialize -> parse -> serialize is a fixed point
    once = serialize_params(table)
    again = serialize_params(parse_params(once))
    assert once == again

    entry = text.splitlines()[8]          # the single C-C-C line (line 9)
    toks = entry.split()
    mutations = [
        ("16 tokens", " ".join(toks[:-1]), ":9:"),
        ("18 tokens", entry + " 1.0", ":9:"),
        ("non-numeric c", entry.replace("38049.0", "abc"), ":9:"),
        ("non-numeric lambda1", entry.replace("3.4879", "3.48x79"), ":9:"),
        ("dropped A", " ".join(toks[:-1]) + " ", ":9:"),
        ("m out of range", entry.replace("3.0  1.0", "2.0  1.0"), ":9:"),
        ("m fractional", entry.replace("3.0  1.0", "2.5  1.0"), ":9:"),
        ("duplicate triple", entry + "\n" + entry, ":10:"),
        ("entry deleted", "# nothing left", "no parameter entries"),
        ("species mismatch", entry.replace("C C C", "Si C C"), "missing"),
    ]
    rejected = 0
    for label, mutated_entry, needle in mutations:
        mutated = "\n".join(text.splitlines()[:8] + [mutated_entry])
        with pytest.raises(ParamFileError) as err:
            parse_params(mutated, source="mut")
        assert needle in str(err.value), (label, str(err.value))
        rejected += 1
    report("09 parameter parsing", rejected == 10,
           f"carbon file parses, round-trips; {rejected}/10 corrupted "
           f"mutations rejected with line-accurate errors")
