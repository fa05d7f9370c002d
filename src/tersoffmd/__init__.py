"""Tersoff bond-order molecular dynamics on width-oblivious SIMD lanes."""

__version__ = "0.1.0"

from .bench import BenchReport, BenchRow, run_benchmark
from .errors import ConfigurationError, InputError
from .kernels import (KERNEL_TAGS, ForceEnergyResult, KernelVariant,
                      compute, make_variant)
from .neighbor import (NeighborList, PackedAdjacency, build_neighbor_list,
                       needs_rebuild, pack_adjacency)
from .paramfile import (ParamFileError, builtin_params, load_params,
                        parse_params, serialize_params)
from .simd import EMULATED_WIDTHS, Backend, Lanes, Mask, make_backend
from .system import (ACCEL, KB_EV, ForceField, RunConfig, SimulationBox,
                     SimulationState, StretchSpec, gen_diamond, gen_nanotube,
                     kinetic_energy, read_xyz, run_nve, run_stretch,
                     seed_velocities, state_from_xyz, total_momentum,
                     velocity_verlet_step, write_xyz)
from .verify import (CheckResult, check_conservation, check_cross_variant,
                     check_gradients, check_width_independence,
                     run_verification)

__all__ = [
    "ACCEL", "KB_EV", "EMULATED_WIDTHS", "KERNEL_TAGS",
    "Backend", "Lanes", "Mask", "make_backend",
    "ConfigurationError", "InputError", "ParamFileError",
    "ForceEnergyResult", "KernelVariant", "make_variant", "compute",
    "NeighborList", "PackedAdjacency", "build_neighbor_list",
    "needs_rebuild", "pack_adjacency",
    "builtin_params", "load_params", "parse_params", "serialize_params",
    "SimulationBox", "SimulationState", "ForceField", "RunConfig",
    "StretchSpec", "gen_diamond", "gen_nanotube", "kinetic_energy",
    "read_xyz", "write_xyz", "state_from_xyz", "seed_velocities",
    "total_momentum", "velocity_verlet_step", "run_nve", "run_stretch",
    "BenchReport", "BenchRow", "run_benchmark",
    "CheckResult", "run_verification", "check_gradients",
    "check_cross_variant", "check_width_independence",
    "check_conservation",
]
