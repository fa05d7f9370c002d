"""The narrative demos run to completion, on the package's public names.

speedup_scan.py is left out: it times kernels on a 5,000-atom tube and
takes about a minute.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tersoffmd

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["bond_scan", "kernel_agreement",
                                  "nve_energy", "stretch_tube"])
def test_demo_runs(name, tmp_path):
    src = os.path.dirname(os.path.dirname(tersoffmd.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")],
                         cwd=tmp_path, env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr


def test_every_public_name_resolves():
    """`from tersoffmd import *`, which the demos' imports rely on, binds
    every name in __all__."""
    namespace = {}
    exec("from tersoffmd import *", namespace)
    assert [n for n in tersoffmd.__all__ if n not in namespace] == []
