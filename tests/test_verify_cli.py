"""Verification suites, benchmark reports, and the command-line surface."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from tersoffmd import cli, system, verify
from tersoffmd.bench import CSV_FIELDS, run_benchmark
from tersoffmd.kernels import LANE_TAGS, compute, make_variant
from tersoffmd.neighbor import build_neighbor_list
from tersoffmd.paramfile import builtin_params, parse_params, serialize_params
from tersoffmd.errors import ConfigurationError, InputError
from tersoffmd.potential import ParamTable
from tersoffmd.simd import DEFAULT_WIDTHS, EMULATED_WIDTHS
from tersoffmd.system import (ELEMENT_MASSES, ForceField, RunConfig,
                              SimulationBox, SimulationState, gen_diamond,
                              gen_nanotube, read_xyz, run_nve, state_from_xyz,
                              write_xyz)
from tersoffmd.verify import (check_gradients, check_width_independence,
                              run_verification)

from helpers import (carbon_table, random_cluster_positions,
                     two_species_table)


@pytest.fixture(scope="module")
def table():
    return carbon_table()


@pytest.fixture(scope="module")
def tube():
    return gen_nanotube(4, 3)


def broken_beta_text():
    """Carbon table with the sign of beta flipped: corrupt physics that
    still parses (negative base under a fractional power)."""
    txt = serialize_params(builtin_params("C"))
    lines = txt.splitlines()
    toks = lines[1].split()
    toks[10] = repr(-float(toks[10]))
    lines[1] = " ".join(toks)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------

class TestVerify:
    def test_pristine_tube_passes(self, tube, table):
        report = run_verification(tube, table, conservation_steps=50)
        assert report["passed"]
        assert report["natoms"] == tube.natoms
        names = [c["name"] for c in report["checks"]]
        assert names == [
            "gradient_fd", "cross_variant_energy", "cross_variant_forces",
            "width_independence_vecj", "width_independence_veci",
            "strict_w1_bitwise_vecj", "strict_w1_bitwise_veci",
            "nve_energy_drift", "nve_force_sum", "nve_momentum",
        ]
        for c in report["checks"]:
            assert c["passed"], c
        # the report must be JSON-clean as a whole
        json.dumps(report)

    def test_zero_tolerance_fails(self, tube, table):
        report = run_verification(tube, table, tol_scale=0.0,
                                  conservation_steps=20)
        assert not report["passed"]
        failed = [c for c in report["checks"] if not c["passed"]]
        assert len(failed) >= 5

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_sign_corrupted_params_fail_gradients(self, tube):
        bad = parse_params(broken_beta_text())
        report = run_verification(tube, bad, conservation_steps=20)
        assert not report["passed"]
        grad = next(c for c in report["checks"] if "gradient" in c["name"])
        assert not grad["passed"]
        assert grad["worst"]  # names the offender (here: the exception)

    def test_margin_fields(self, tube, table):
        report = run_verification(tube, table, conservation_steps=20)
        for c in report["checks"]:
            if c["name"].startswith("strict"):
                # exact check: measured 0 against tolerance 0
                assert c["measured"] == 0.0 and c["margin"] is None
            else:
                assert c["margin"] is None or c["margin"] > 1.0

    def test_width_check_runs_each_lane_width_once(self, table,
                                                   monkeypatch):
        """One ScalarOpt run, then each lane schedule once per width; the
        W=1 run is strict and feeds both the spread and the bitwise row."""
        runs = []

        def recording(state, nl, params, variant, threads=1):
            runs.append((variant.tag, variant.backend.width,
                         variant.backend.strict))
            return compute(state, nl, params, variant, threads)

        monkeypatch.setattr(verify, "compute", recording)
        checks = check_width_independence(gen_nanotube(5, 10), table)
        assert all(c.passed for c in checks), checks
        assert len(runs) == 1 + len(LANE_TAGS) * len(EMULATED_WIDTHS) == 11
        assert [r for r in runs if r[0] not in LANE_TAGS] == [
            ("ScalarOpt", 1, True)]
        assert sorted(r for r in runs if r[0] in LANE_TAGS) == sorted(
            (tag, w, w == 1) for tag in LANE_TAGS for w in EMULATED_WIDTHS)

    def test_strict_rows_fail_on_a_one_ulp_force_change(self, tube, table,
                                                        monkeypatch):
        def nudged(state, nl, params, variant, threads=1):
            res = compute(state, nl, params, variant, threads)
            if variant.tag in LANE_TAGS and variant.backend.strict:
                res.forces[0, 0] = np.nextafter(res.forces[0, 0], np.inf)
            return res

        monkeypatch.setattr(verify, "compute", nudged)
        rows = {c.name: c for c in check_width_independence(tube, table)}
        for tag in LANE_TAGS:
            strict = rows[f"strict_w1_bitwise_{tag.lower()}"]
            assert not strict.passed and strict.measured > 0, strict
            assert rows[f"width_independence_{tag.lower()}"].passed


# ---------------------------------------------------------------------
# the threads=1 argument benchmark/workloads.py passes
# ---------------------------------------------------------------------

def harness_entry_points(tube, table):
    nl = build_neighbor_list(tube, table.r_cut, 0.3)
    return {
        "compute": lambda n: compute(tube, nl, table,
                                     make_variant("ScalarOpt"), n),
        "ForceField": lambda n: ForceField(table, threads=n)(tube),
        "RunConfig": lambda n: RunConfig(steps=1, threads=n),
        "run_verification": lambda n: run_verification(
            tube, table, conservation_steps=2, threads=n),
    }


@pytest.mark.parametrize("entry", ["compute", "ForceField", "RunConfig",
                                   "run_verification"])
def test_harness_threads_argument(entry, tube, table):
    call = harness_entry_points(tube, table)[entry]
    call(1)
    for threads in (0, 2):
        with pytest.raises(ConfigurationError, match="threads"):
            call(threads)


def test_gradient_check_jitters_only_a_state_without_forces(
        tube, table, monkeypatch):
    """The tube has significant components: one probe pass on the state
    itself, so its row is what it was before the fallback existed. The
    ideal diamond has none: a second pass probes a seeded +-0.03 A
    jittered copy, and a zero tolerance still fails it."""
    probed = []

    def recording(state, *args):
        probed.append(state)
        return probe(state, *args)

    probe = verify._probe_gradients
    monkeypatch.setattr(verify, "_probe_gradients", recording)
    row = check_gradients(tube, table, seed=1)[0]
    assert probed == [tube] and row.passed
    assert "jittered" not in row.worst
    assert row.measured == probe(tube, table, make_variant(), 4, 0.3, 1)[0]
    probed.clear()
    diamond = gen_diamond(2)
    row = check_gradients(diamond, table, seed=1)[0]
    assert probed[0] is diamond and len(probed) == 2 and row.passed
    shift = np.abs(probed[1].positions - diamond.positions)
    assert 0.0 < shift.max() <= verify.JITTER
    again = check_gradients(diamond, table, seed=1)[0]
    assert (again.measured, again.worst) == (row.measured, row.worst)
    assert not check_gradients(diamond, table, tol_scale=0.0)[0].passed


# ---------------------------------------------------------------------
# defaults: VecI on native lanes
# ---------------------------------------------------------------------

PRODUCTION = f"VecI[native,W={DEFAULT_WIDTHS['native']},double]"


def test_defaults_are_vec_i_native(tube, table, monkeypatch, capsys):
    assert ForceField(table).variant.describe() == PRODUCTION
    used = []

    def recording(state, nl, params, variant, threads=1):
        used.append(variant.describe())
        return compute(state, nl, params, variant, threads)

    monkeypatch.setattr(system, "compute", recording)
    run_nve(tube.copy(), table, RunConfig(steps=1))
    assert used == [PRODUCTION] * 2
    used.clear()
    monkeypatch.setattr(verify, "compute", recording)
    check_gradients(tube, table, probes=1)
    assert used and set(used) == {PRODUCTION}
    code, out, _ = run_cli(capsys, "run", "--structure",
                           "nanotube:n=4,cells=3", "--steps", "0")
    assert code == 0
    assert json.loads(out)["variant"] == PRODUCTION


# ---------------------------------------------------------------------
# benchmark harness
# ---------------------------------------------------------------------

def small_report(state, table, **kw):
    variants = [
        make_variant("Reference"),
        make_variant("ScalarOpt"),
        make_variant("VecJ", "emulated", 8),
        make_variant("VecI", "native"),
    ]
    return run_benchmark(state, table, variants, steps=2, warmup=1,
                         repeats=2, **kw)


class TestBench:
    def test_rows_and_speedups(self, tube, table):
        rep = small_report(tube, table)
        assert [r.variant for r in rep.rows] == \
            ["Reference", "ScalarOpt", "VecJ", "VecI"]
        ref, scal, vecj, veci = rep.rows
        assert ref.speedup_ref == 1.0
        assert scal.speedup_scalar == 1.0
        assert ref.efficiency is None and scal.lane_util is None
        for row in rep.rows:
            assert row.time_s > 0.0
            assert row.atoms == tube.natoms and row.steps == 2
        assert vecj.efficiency == pytest.approx(vecj.speedup_scalar / 8)
        assert veci.efficiency == \
            pytest.approx(veci.speedup_scalar / veci.width)
        assert 0.0 < vecj.lane_util <= 1.0

    def test_csv_header_exact(self, tube, table):
        rep = small_report(tube, table)
        first = rep.render("csv").splitlines()[0]
        assert first == ("variant,backend,width,precision,atoms,steps,"
                         "time_s,speedup_ref,speedup_scalar,efficiency,"
                         "lane_util")

    def test_formats_carry_identical_values(self, tube, table):
        rep = small_report(tube, table)
        csv_lines = rep.render("csv").splitlines()
        jrows = json.loads(rep.render("json"))["rows"]
        table_lines = [ln for ln in rep.render("table").splitlines()
                       if not ln.startswith("#")][2:]
        assert len(csv_lines) - 1 == len(jrows) == len(table_lines)
        for cells, jrow, tline in zip(
                (ln.split(",") for ln in csv_lines[1:]), jrows, table_lines):
            for field, cell in zip(CSV_FIELDS, cells):
                jval = jrow[field]
                if cell == "":
                    assert jval is None
                elif isinstance(jval, str):
                    assert jval == cell
                elif isinstance(jval, int):
                    assert int(cell) == jval
                else:
                    assert float(cell) == jval
                # the very same rendered token appears in the table row
                if cell:
                    assert cell in tline.split()

    def test_meta_medians_and_energy(self, tube, table):
        rep = small_report(tube, table)
        for row in rep.rows:
            key = next(k for k in rep.meta["median_s"]
                       if k.startswith(row.variant))
            assert rep.meta["median_s"][key] >= row.time_s * 0.999
        # physics is deterministic even though timing is not
        rep2 = small_report(tube, table)
        assert rep.meta["energy"] == rep2.meta["energy"]

    def test_partial_variant_list_leaves_speedups_empty(self, tube, table):
        rep = run_benchmark(tube, table, [make_variant("VecI", "native")],
                            steps=1, warmup=0, repeats=1)
        row = rep.rows[0]
        assert row.speedup_ref is None and row.speedup_scalar is None
        assert row.efficiency is None
        line = rep.render("csv").splitlines()[1]
        assert line.endswith(",,,") or ",,," in line

    def test_repeated_variant_rejected(self, tube, table):
        """Each row is one variant's own measurement: a variant listed
        twice would print a row that is not one."""
        twice = [make_variant("VecI", "native"), make_variant("ScalarOpt"),
                 make_variant("VecI", "native")]
        with pytest.raises(ValueError, match=r"variant VecI\[native,W=8192,"
                                             r"double\] requested twice"):
            run_benchmark(tube, table, twice, steps=1, warmup=0, repeats=1)
        # the same kernel in another precision is another variant
        rep = run_benchmark(tube, table, [
            make_variant("ScalarOpt"),
            make_variant("ScalarOpt", precision="single")],
            steps=1, warmup=0, repeats=1)
        assert [r.precision for r in rep.rows] == ["double", "single"]
        assert len(rep.meta["energy"]) == 2

    def test_bad_counts_rejected(self, tube, table):
        """ConfigurationError, naming the count, for any count that is not
        an integer in range: a float would fail inside range() and a bool
        would pass as 0 or 1."""
        for name, value in [("steps", 0), ("repeats", 0), ("warmup", -1),
                            ("steps", 2.5), ("warmup", 1.5),
                            ("repeats", True)]:
            with pytest.raises(ConfigurationError,
                               match=re.escape(f"{name} must be an integer")
                               + f".*got {re.escape(repr(value))}$"):
                run_benchmark(tube, table, [make_variant("ScalarOpt")],
                              **{name: value})


# ---------------------------------------------------------------------
# command-line surface
# ---------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCli:
    def test_gen_positional(self, tmp_path, capsys):
        path = tmp_path / "tube.xyz"
        code, out, _ = run_cli(capsys, "gen", "nanotube", "4", "3",
                               "-o", str(path))
        assert code == 0 and str(path) in out
        state = state_from_xyz(path)
        assert state.natoms == 48

    def test_gen_spec_syntax(self, tmp_path, capsys):
        path = tmp_path / "d.xyz"
        code, out, _ = run_cli(capsys, "gen", "diamond:cells=2",
                               "-o", str(path))
        assert code == 0
        assert state_from_xyz(path).natoms == 64

    def test_gen_option_overrides(self, tmp_path, capsys):
        path = tmp_path / "t.xyz"
        code, _, _ = run_cli(capsys, "gen", "nanotube:n=3,cells=2,"
                             "bond_length=1.46", "-o", str(path))
        assert code == 0
        state = state_from_xyz(path)
        d = np.linalg.norm(state.positions[0] - state.positions[1:], axis=1)
        assert abs(d.min() - 1.46) < 1e-6

    @pytest.mark.parametrize("spec,dims,message", [
        ("nanotube:n=5,cells=2,n=6", (), "nanotube key 'n' given twice"),
        ("nanotube:n=6", ("5",), "nanotube key 'n' given twice"),
        ("diamond:cells=2", ("3",), "diamond key 'cells' given twice"),
        ("nanotube:n=abc", (),
         "nanotube key 'n' must be of type int, got 'abc'"),
        ("nanotube", ("5", "x"),
         "nanotube key 'cells' must be of type int, got 'x'"),
        ("diamond:lattice_constant=wide", (),
         "diamond key 'lattice_constant' must be of type float, got 'wide'"),
    ], ids=["key-twice", "key-and-position", "diamond-twice", "bad-int",
            "bad-positional", "bad-float"])
    def test_gen_spec_errors_name_the_key(self, spec, dims, message,
                                          tmp_path, capsys):
        path = tmp_path / "out.xyz"
        code, out, err = run_cli(capsys, "gen", spec, *dims, "-o", str(path))
        assert code == 2 and out == "" and not path.exists()
        assert err == f"error: {message}\n"

    def test_bench_repeated_variant_exits_two(self, capsys):
        code, out, err = run_cli(
            capsys, "bench", "--structure", "nanotube:n=3,cells=2",
            "--variant", "vec-i,scalar,vec-i", "--steps", "1",
            "--repeats", "1")
        assert code == 2 and out == ""
        assert err == ("error: variant VecI[native,W=8192,double] "
                       "requested twice\n")

    def test_run_zero_steps_reports_initial_energy(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "run", "--structure",
                               "nanotube:n=4,cells=3", "--steps", "0")
        assert code == 0
        summary = json.loads(out)
        tube = gen_nanotube(4, 3)
        table = builtin_params("C")
        nl = build_neighbor_list(tube, table.r_cut, 0.3)
        direct = compute(tube, nl, table, make_variant("ScalarOpt"))
        assert summary["initial"]["potential"] == \
            pytest.approx(direct.potential_energy, rel=1e-14)
        assert summary["steps"] == 0
        assert summary["initial"] == summary["final"]

    def test_run_variants_agree_on_initial_energy(self, capsys):
        energies = {}
        for name in ("reference", "scalar", "vec-j", "vec-i"):
            code, out, _ = run_cli(capsys, "run", "--structure",
                                   "nanotube:n=4,cells=3", "--steps", "0",
                                   "--variant", name)
            assert code == 0
            energies[name] = json.loads(out)["initial"]["potential"]
        vals = list(energies.values())
        scale = abs(vals[0])
        assert max(vals) - min(vals) <= 1e-10 * scale

    def test_run_nve_with_temperature(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--structure",
                               "nanotube:n=3,cells=3", "--steps", "20",
                               "--temperature", "300", "--seed", "7",
                               "--variant", "vec-i")
        assert code == 0
        summary = json.loads(out)
        assert summary["kind"] == "nve"
        assert summary["initial"]["kinetic"] > 0.0
        assert summary["drift_rel"] < 1e-4
        assert len(summary["series"]["total"]) == 21

    def test_run_stretch_with_dumps(self, tmp_path, capsys):
        dump = tmp_path / "frames.xyz"
        code, out, _ = run_cli(
            capsys, "run", "--structure", "nanotube:n=3,cells=6",
            "--steps", "30", "--pull-speed", "0.004",
            "--grip-fraction", "0.1", "--pull-axis", "z",
            "--dump-every", "10", "--dump-path", str(dump),
            "--variant", "vec-i")
        assert code == 0
        summary = json.loads(out)
        assert summary["kind"] == "stretch"
        assert summary["grip_atoms"] == [12, 12]
        strain = summary["series"]["strain"]
        assert len(strain) == 31 and strain[-1] > 0.0
        text = dump.read_text().splitlines()
        assert text.count("72") == 4  # frames at steps 0, 10, 20, 30

    def test_run_pull_along_a_periodic_axis_exits_two(self, capsys):
        """The grips of a periodic axis meet across the boundary: a pull
        would report a compression, so it is refused before any step."""
        code, out, err = run_cli(capsys, "run", "--structure",
                                 "diamond:cells=3", "--pull-speed", "0.05",
                                 "--steps", "40")
        assert code == 2 and out == ""
        assert "periodic z axis" in err, err

    def test_bench_cli_formats(self, capsys):
        base = ("bench", "--structure", "nanotube:n=3,cells=2", "--steps",
                "1", "--repeats", "1", "--warmup", "0",
                "--variant", "reference,scalar,vec-i")
        code, out, _ = run_cli(capsys, *base, "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("variant,backend")
        assert len(lines) == 4
        code, out, _ = run_cli(capsys, *base, "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["variant"] for r in rows] == \
            ["Reference", "ScalarOpt", "VecI"]

    @pytest.mark.parametrize("lane_opts,lanes", [
        (("--width", "16"), ("native", 16)),
        (("--backend", "emulated"), ("emulated", 8))],
        ids=["width", "backend"])
    def test_bench_lane_options_reach_lane_kernels_only(self, lane_opts,
                                                        lanes, capsys):
        code, out, err = run_cli(
            capsys, "bench", "--structure", "nanotube:n=3,cells=2",
            "--steps", "1", "--repeats", "1", "--warmup", "0",
            "--variant", "reference,scalar,vec-i", "--format", "json",
            *lane_opts)
        assert code == 0, err
        rows = json.loads(out)["rows"]
        assert [(r["backend"], r["width"]) for r in rows] == \
            [("scalar", 1), ("scalar", 1), lanes]

    def test_bench_native_default_list_is_every_kernel(self, capsys):
        code, out, err = run_cli(
            capsys, "bench", "--structure", "nanotube:n=3,cells=2",
            "--backend", "native", "--steps", "1", "--repeats", "1",
            "--warmup", "0", "--format", "json")
        assert code == 0, err
        rows = json.loads(out)["rows"]
        w = DEFAULT_WIDTHS["native"]
        assert [(r["variant"], r["backend"], r["width"]) for r in rows] == \
            [("Reference", "scalar", 1), ("ScalarOpt", "scalar", 1),
             ("VecJ", "native", w), ("VecI", "native", w)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_verify_cli_passes_and_fails(self, tmp_path, capsys):
        base = ("verify", "--structure", "nanotube:n=4,cells=3",
                "--steps", "30")
        code, out, _ = run_cli(capsys, *base)
        assert code == 0
        assert json.loads(out)["passed"]
        code, out, _ = run_cli(capsys, *base, "--tol-scale", "0")
        assert code == 1
        assert not json.loads(out)["passed"]
        bad = tmp_path / "bad.tersoff"
        bad.write_text(broken_beta_text())
        code, out, _ = run_cli(capsys, *base, "--params", str(bad))
        assert code == 1

    def test_verify_table_format(self, capsys):
        """One PASS/FAIL line per check in report order, then an overall
        line naming the variant, the atom count and tol_scale. A zero
        tol_scale fails every tolerance row; the exact bitwise rows still
        pass."""
        base = ("verify", "--structure", "nanotube:n=3,cells=2",
                "--steps", "5")
        code, out, _ = run_cli(capsys, *base)
        assert code == 0
        checks = json.loads(out)["checks"]
        for scale, want_code in (("1", 0), ("0", 1)):
            code, out, _ = run_cli(capsys, *base, "--format", "table",
                                   "--tol-scale", scale)
            assert code == want_code
            lines = out.splitlines()
            assert len(lines) == len(checks) + 1
            for line, c in zip(lines, checks):
                verdict, name = line.split()[:2]
                assert name == c["name"]
                exact = c["tolerance"] == 0.0
                assert verdict == ("PASS" if scale == "1" or exact
                                   else "FAIL"), line
            assert lines[-1] == (
                f"{'PASS' if scale == '1' else 'FAIL'}  overall "
                f"(VecI[native,W={DEFAULT_WIDTHS['native']},double], "
                f"24 atoms, tol_scale {scale})")
        assert {c["name"] for c in checks if c["tolerance"] == 0.0} == {
            "strict_w1_bitwise_vecj", "strict_w1_bitwise_veci"}

    @pytest.mark.parametrize("cells", [2, 3])
    def test_verify_cli_passes_on_the_ideal_diamond(self, cells, capsys):
        """Every force of the ideal lattice is below the gradient check's
        floor: the check probes a jittered copy and says so."""
        code, out, _ = run_cli(capsys, "verify", "--structure",
                               f"diamond:cells={cells}", "--steps", "10")
        assert code == 0, out
        grad = json.loads(out)["checks"][0]
        assert grad["name"] == "gradient_fd" and grad["passed"]
        assert "jittered by +-0.03 A with seed 0" in grad["worst"]

    def test_error_exits_are_code_two(self, tmp_path, capsys):
        cases = [
            ("run", "--structure", "no_such_file.xyz", "--steps", "1"),
            ("gen", "pyramid", "3"),
            ("gen", "nanotube:n=2,cells=1"),
            ("gen", "nanotube:shape=twisted"),
            ("run", "--structure", "nanotube:n=3,cells=2",
             "--variant", "warp"),
            ("bench", "--structure", "nanotube:n=3,cells=2",
             "--variant", "scalar,warp", "--steps", "1", "--repeats", "1"),
            ("bench", "--structure", "nanotube:n=3,cells=2",
             "--variant", "scalar", "--steps", "1", "--repeats", "0"),
        ]
        bad_box = tmp_path / "bad_box.xyz"
        write_xyz(bad_box, gen_nanotube(3, 2),
                  comment="box 10 10 periodic 111")
        cases.append(("run", "--structure", str(bad_box), "--steps", "0"))
        unparseable = tmp_path / "broken.tersoff"
        unparseable.write_text("C C C 3 1.0\n")
        cases.append(("run", "--structure", "nanotube:n=3,cells=2",
                      "--params", str(unparseable), "--steps", "0"))
        for margin in ("-1", "nan", "inf"):
            cases.append(("run", "--structure",
                          f"nanotube:n=3,cells=2,margin={margin}",
                          "--steps", "0"))
        for argv in cases:
            code, _, err = run_cli(capsys, *argv)
            assert code == 2, argv
        # zero atoms, with and without a box comment: an error naming the
        # file, not numpy's or an MD run of nothing
        empty = tmp_path / "empty.xyz"
        empty_box = tmp_path / "empty_box.xyz"
        empty.write_text("0\n\n")
        empty_box.write_text("0\nbox 10 10 10 periodic 000 time 0\n")
        for path in (empty, empty_box):
            for command in ("run", "verify"):
                code, _, err = run_cli(capsys, command, "--structure",
                                       str(path), "--steps", "1")
                assert code == 2 and f"{path}: no atoms" in err, err

    def test_unindexable_cell_grid_exits_two(self, tmp_path, capsys):
        """Atoms 1e20 A apart need more cells along x than a 64-bit index
        holds: exit 2 naming that, not an OverflowError traceback."""
        far = tmp_path / "far.xyz"
        far.write_text("2\n\nC 0 0 0\nC 1e20 0 0\n")
        code, _, err = run_cli(capsys, "run", "--structure", str(far),
                               "--steps", "0")
        assert code == 2 and "64-bit cell index" in err, err

    @pytest.mark.parametrize("spec,name", [
        ("nanotube:n=3,cells=2,bond_length=nan", "bond_length"),
        ("diamond:cells=2,lattice_constant=inf", "lattice_constant")])
    def test_non_finite_generator_length_names_it(self, spec, name, capsys):
        """The error names the parameter given, not the box edges or the
        positions it would have made."""
        code, out, err = run_cli(capsys, "run", "--structure", spec,
                                 "--steps", "0")
        assert code == 2 and out == ""
        assert f"{name} must be finite and positive" in err, err

    @pytest.mark.parametrize("command", ["run", "bench", "verify"])
    @pytest.mark.parametrize("field,value", [(3, "inf"), (3, "nan"),
                                             (15, "nan"), (8, "inf")])
    def test_non_finite_params_exit_two(self, command, field, value,
                                        tmp_path, capsys):
        """m, lambda1 and h: inf or nan is a file error, not a traceback
        or a NaN energy."""
        lines = serialize_params(builtin_params("C")).splitlines()
        toks = lines[1].split()
        toks[field] = value
        lines[1] = " ".join(toks)
        bad = tmp_path / "nonfinite.tersoff"
        bad.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, command, "--structure",
                               "nanotube:n=3,cells=2", "--steps", "1",
                               "--params", str(bad))
        assert code == 2
        assert "nonfinite.tersoff:2:" in err

    def test_verify_has_no_csv_format(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--format", "csv")
        assert code == 2

    @pytest.mark.parametrize("command", ["run", "bench", "verify"])
    def test_no_threads_option(self, command, capsys):
        code, _, err = run_cli(capsys, command, "--structure",
                               "nanotube:n=3,cells=2", "--steps", "1",
                               "--threads", "2")
        assert code == 2 and "--threads" in err

    @pytest.mark.parametrize("flag,value", [
        ("--temperature", "-300"), ("--temperature", "nan"),
        ("--temperature", "inf"), ("--dt", "nan"), ("--dt", "inf"),
        ("--seed", "-1")])
    def test_run_rejects_bad_temperature_and_dt(self, flag, value, capsys):
        code, out, err = run_cli(capsys, "run", "--structure",
                                 "nanotube:n=3,cells=2", "--steps", "2",
                                 flag, value)
        assert code == 2 and out == ""
        assert flag.lstrip("-") in err, err

    @pytest.mark.parametrize("flag,value,word", [
        ("--pull-speed", "inf", "pull speed"),
        ("--pull-speed", "nan", "pull speed"),
        ("--skin", "nan", "skin"), ("--skin", "inf", "skin")])
    def test_run_rejects_non_finite_pull_speed_and_skin(self, flag, value,
                                                         word, capsys):
        code, out, err = run_cli(capsys, "run", "--structure",
                                 "nanotube:n=3,cells=4", "--steps", "3",
                                 flag, value)
        assert code == 2 and out == ""
        assert word in err, err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_verify_rejects_bad_tol_scale(self, value, capsys):
        code, out, err = run_cli(capsys, "verify", "--structure",
                                 "nanotube:n=3,cells=2", "--steps", "2",
                                 "--tol-scale", value)
        assert code == 2 and out == ""
        assert "tol_scale" in err, err

    @pytest.mark.parametrize("flag,value,word", [
        ("--steps", "-5", "steps"), ("--dt", "-1", "dt"),
        ("--dt", "nan", "dt"), ("--skin", "-1", "skin"),
        ("--skin", "nan", "skin"), ("--seed", "-1", "seed"),
        # the last --structure wins: a periodic edge under 2 x 2.4 A
        ("--structure", "diamond:cells=1", "twice the build cutoff")])
    def test_verify_rejects_bad_steps_dt_and_skin(self, flag, value, word,
                                                  capsys, monkeypatch):
        """Exit 2 before any suite runs, as `run` does on the same values,
        not exit 1 with the error inside every FAIL row."""
        ran = []
        monkeypatch.setattr(verify, "_guard",
                            lambda name, fn: ran.append(name) or [])
        code, out, err = run_cli(capsys, "verify", "--structure",
                                 "nanotube:n=3,cells=2", flag, value)
        assert code == 2 and out == "" and ran == []
        assert word in err, err

    @pytest.mark.parametrize("command", ["run", "bench", "verify"])
    def test_vec_j_on_native_runs(self, command, capsys):
        code, out, err = run_cli(capsys, command, "--structure",
                                 "nanotube:n=3,cells=2", "--steps", "1",
                                 "--variant", "vec-j", "--backend", "native")
        assert code == 0, err
        assert "VecJ" in out and "native" in out, out

    def test_verify_report_names_the_variant(self, capsys):
        """A saved report tells vec-j on native from the default."""
        described = []
        for argv in ((), ("--variant", "vec-j", "--backend", "native")):
            code, out, err = run_cli(capsys, "verify", "--structure",
                                     "nanotube:n=3,cells=2", "--steps", "1",
                                     *argv)
            assert code == 0, err
            described.append(json.loads(out)["variant"])
        assert described == [make_variant().describe(),
                              make_variant("VecJ", "native").describe()]
        assert described[0] != described[1]

    @pytest.mark.parametrize("argv", [
        ("bench",), ("run", "--variant", "vec-i"),
        ("verify", "--variant", "vec-j")], ids=["bench", "run", "verify"])
    def test_lane_backend_error_names_backend_and_width(self, argv, capsys):
        code, out, err = run_cli(capsys, *argv, "--structure",
                                 "nanotube:n=3,cells=2", "--steps", "1",
                                 "--backend", "scalar", "--width", "4")
        assert code == 2 and out == ""
        assert "--backend scalar --width 4: scalar backend is width 1" \
            in err, err

    @pytest.mark.parametrize("argv,flag", [
        (("run", "--variant", "reference", "--width", "8"), "--width"),
        (("run", "--variant", "scalar", "--backend", "native",
          "--width", "64"), "--backend and --width"),
        (("verify", "--variant", "reference", "--width", "8"), "--width"),
        (("verify", "--variant", "scalar", "--backend", "native",
          "--width", "64"), "--backend and --width"),
        (("bench", "--variant", "reference,scalar", "--width", "16"),
         "--width"),
        (("bench", "--seed", "1"), "--seed"),
        (("run", "--pull-axis", "x"), "--pull-axis"),
        (("run", "--grip-fraction", "0.3"), "--grip-fraction"),
        (("run", "--dump-path", "dump.xyz"), "dump_path")],
        ids=["run-width", "run-backend", "verify-width", "verify-backend",
             "bench-width", "bench-seed", "pull-axis", "grip-fraction",
             "dump-path"])
    def test_options_with_no_effect_exit_two(self, argv, flag, tmp_path,
                                             capsys, monkeypatch):
        """An option that would be ignored is an input error naming it."""
        ran = []
        monkeypatch.setattr(verify, "_guard",
                            lambda name, fn: ran.append(name) or [])
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv, "--structure",
                                 "nanotube:n=3,cells=2", "--steps", "1")
        assert code == 2 and out == "" and ran == []
        assert flag in err, err
        assert not (tmp_path / "dump.xyz").exists()

    def test_xyz_species_follow_the_parameter_table(self, tmp_path, capsys):
        # table order (Si, C) differs from the XYZ's alphabetical (C, Si)
        table = ParamTable(("Si", "C"), two_species_table().entries)
        params = tmp_path / "sic.tersoff"
        params.write_text(serialize_params(table))
        pos = random_cluster_positions(np.random.default_rng(11), 12)
        pos += 6.0 - pos.min(axis=0)
        masses = [ELEMENT_MASSES["Si"], ELEMENT_MASSES["C"]]
        state = SimulationState(pos, SimulationBox(pos.max(axis=0) + 6.0),
                                species=[0] * 6 + [1] * 6, masses=masses,
                                symbols=("Si", "C"))
        path = tmp_path / "sic.xyz"
        write_xyz(path, state)
        state.positions = read_xyz(path)[0][1]
        code, out, _ = run_cli(capsys, "run", "--structure", str(path),
                               "--params", str(params), "--steps", "0")
        assert code == 0
        nl = build_neighbor_list(state, table.r_cut, 0.3)
        direct = compute(state, nl, table, make_variant("ScalarOpt"))
        assert json.loads(out)["initial"]["potential"] == \
            pytest.approx(direct.potential_energy, rel=1e-14)

    def test_unmapped_xyz_species_exit_two(self, tmp_path, capsys):
        diamond = gen_diamond(2)
        silicon = tmp_path / "si.xyz"
        write_xyz(silicon, diamond)
        silicon.write_text(silicon.read_text().replace("C ", "Si "))
        unknown = tmp_path / "xx.xyz"
        unknown.write_text(silicon.read_text().replace("Si ", "Xx "))
        with pytest.raises(InputError, match="Xx"):
            state_from_xyz(unknown)
        for path, name in ((silicon, "Si"), (unknown, "Xx")):
            for command in ("run", "bench", "verify"):
                code, _, err = run_cli(capsys, command, "--structure",
                                       str(path), "--steps", "0")
                assert code == 2, (command, name)
                assert name in err

    @pytest.mark.parametrize("text,line,what", [
        ("2\nc\nC 0 0 0\nC 2.4 abc 1.0\n", 4, "'abc'"),
        ("-1\nc\n", 1, "atom-count"),
        ("2\nc\nC 0 0 0\nC 1.4 0\n", 4, "fewer than 4 fields"),
        ("2\nc\nC 0 0 0\nC nan 0 0\n", 4, "non-finite coordinate"),
        ("2\nc\nC 0 inf 0\nC 1.4 0 0\n", 3, "non-finite coordinate"),
        ("1\nc\nC 0 0 0\n\n2\nc\nC 0 0 0\nC 1.4 0 0\n", 4, "blank line"),
    ], ids=["bad-float", "negative-count", "short-row", "nan", "inf",
            "blank-before-frame"])
    def test_malformed_xyz_names_file_and_line(self, text, line, what,
                                               tmp_path, capsys):
        path = tmp_path / "bad.xyz"
        path.write_text(text)
        code, _, err = run_cli(capsys, "run", "--structure", str(path),
                               "--steps", "0")
        assert code == 2
        assert f"{path}:{line}:" in err and what in err

    def test_closed_stdout_exits_141_quietly(self):
        """A reader that closed the pipe is not bad input: no message,
        and the status of a process ended by SIGPIPE."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            out = subprocess.run(
                [sys.executable, "-m", "tersoffmd.cli", "run",
                 "--structure", "nanotube:n=3,cells=2", "--steps", "0"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                timeout=120)
        finally:
            os.close(write_end)
        assert out.returncode == 141 and out.stderr == ""

    def test_console_script_entry(self, tmp_path):
        out = subprocess.run(
            [sys.executable, "-m", "tersoffmd.cli", "gen",
             "nanotube:n=3,cells=2", "-o", str(tmp_path / "t.xyz")],
            capture_output=True, text=True, timeout=120)
        assert out.returncode == 0
        assert (tmp_path / "t.xyz").exists()
