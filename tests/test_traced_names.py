"""The names the traced benchmark mode patches must exist.

benchmark/tracing.py wraps functions and methods of the program by name;
a rename in kernels, simd, neighbor or system would make the traced run
fail, so every target must resolve the way the tracer looks it up.
"""

import importlib.util
from pathlib import Path

import tersoffmd.system

_PATH = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("tracing", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing()
    targets = [(owner, attr) for owner, attr, _, _
               in tracing.Tracer()._targets()]
    targets.append((tersoffmd.system, "write_xyz"))  # the dump wrapper
    for owner, attr in targets:
        assert callable(tracing.original(owner, attr)), (owner, attr)
