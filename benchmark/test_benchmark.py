"""Self-tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q benchmark/test_benchmark.py

They check that the correctness gate is live (scaling every tolerance to
0 must fail the run), that tracing restores the program it wrapped, that
BENCHMARK.json names exactly what the benchmark reports, and that the
benchmark refuses to run without the program's source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from run import end_to_end  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmark" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, result


@pytest.mark.parametrize("name", ["nve_diamond1728", "stretch_tube2k_dump",
                                  "verify_tube200"])
def test_zero_tolerance_fails_the_run(name):
    code, result = _run("--workload", name, "--seed", "3", "--seconds", "1",
                        "--trace", "0", "--tol-scale", "0")
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0


def test_default_tolerance_passes():
    code, result = _run("--workload", "nve_diamond1728", "--seed", "3",
                        "--seconds", "1", "--trace", "0")
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result = _run("--workload", "nve_diamond1728", "--seed", "3",
                        "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0 and result is None


def test_tracer_restores_what_it_wrapped():
    tracer = tracing.Tracer()
    names = [(owner, attr) for owner, attr, _, _ in tracer._targets()]
    before = [tracing.original(o, a) for o, a in names]
    with tracer.installed():
        assert all(tracing.original(o, a) is not f
                   for (o, a), f in zip(names, before))
    assert all(tracing.original(o, a) is f
               for (o, a), f in zip(names, before))


def test_traced_window_reports_every_declared_layer_metric():
    wl = workloads.WORKLOADS["nve_diamond1728"]
    tracer = tracing.Tracer()
    m = wl.run(3, work=3, tracer=tracer, setup_reps=1, clock=False)
    assert m.failed == 0
    values = tracing.layer_metrics(tracer, m.window_s, 0.0)
    for spec in SPEC["per_layer"]:
        assert spec["name"] in values
        assert spec["unit"] == tracing.unit_of(spec["name"])
    assert values["neighbor.builds"] == 1
    assert values["kernels.calls"] == 4  # set-up plus three steps
    assert 0.0 <= values["trace.unaccounted_frac"] < 0.05


def test_end_to_end_names_match_the_declaration():
    m = workloads.Measurement(atoms=10)
    m.probe()
    t = m.probe.starts[0]
    m.setups = [(t, t + 1.0, 1.0)]
    m.steps = [(t, t + 0.1, 0.1), (t, t + 0.2, 0.2)]
    m.verdicts = [(t, t + 2.0, 2.0)]
    assert set(end_to_end(m)) == {e["name"] for e in SPEC["end_to_end"]}
