"""Command-line surface: gen, run, bench, verify.

Exit codes: 0 success, 1 verification failure, 2 input or
configuration error, 141 stdout closed by its reader (as for SIGPIPE).

Structures come either from an XYZ file or from a generator spec of the
form ``kind:key=value,...`` (e.g. ``nanotube:n=5,cells=10`` or
``diamond:cells=3``); ``gen`` also accepts bare positional numbers
(``gen nanotube 5 10``).
"""

import argparse
import json
import os
import sys

import numpy as np

from .bench import run_benchmark
from .errors import ConfigurationError, InputError
from .kernels import LANE_TAGS, make_variant
from .paramfile import ParamFileError, builtin_params, load_params
from .simd import DEFAULT_WIDTHS
from .system import (RunConfig, StretchSpec, check_int, gen_diamond,
                     gen_nanotube, run_nve, seed_velocities, state_from_xyz,
                     write_xyz)
from .verify import run_verification

_VARIANT_NAMES = {"reference": "Reference", "scalar": "ScalarOpt",
                  "vec-j": "VecJ", "vec-i": "VecI"}
_AXES = {"x": 0, "y": 1, "z": 2}

# generator keyword order doubles as the positional-argument order
_GEN_KINDS = {
    "nanotube": (("n", int), ("cells", int), ("bond_length", float),
                 ("margin", float)),
    "diamond": (("cells", int), ("lattice_constant", float)),
}
_GEN_DEFAULTS = {"nanotube": {"n": 5, "cells": 10}, "diamond": {"cells": 3}}


def parse_genspec(spec, dims=()):
    """Build a structure from ``kind:key=value,...`` plus positional dims;
    each key is given at most once, by position or by name."""
    kind, _, tail = spec.partition(":")
    if kind not in _GEN_KINDS:
        raise ConfigurationError(
            f"unknown structure kind {kind!r}; choose from "
            f"{sorted(_GEN_KINDS)} or pass an XYZ path")
    keys = dict(_GEN_KINDS[kind])  # name -> type, in positional order
    if len(dims) > len(keys):
        raise ConfigurationError(
            f"{kind} takes at most {len(keys)} positional values")
    given = list(zip(keys, dims))
    for item in tail.split(",") if tail else ():
        name, eq, value = item.partition("=")
        if not eq or name not in keys:
            raise ConfigurationError(
                f"bad generator option {item!r}; known keys for {kind}: "
                f"{', '.join(keys)}")
        given.append((name, value))
    opts = {}
    for name, raw in given:
        if name in opts:
            raise ConfigurationError(f"{kind} key {name!r} given twice")
        try:
            opts[name] = keys[name](raw)
        except ValueError:
            raise ConfigurationError(
                f"{kind} key {name!r} must be of type "
                f"{keys[name].__name__}, got {raw!r}") from None
    opts = {**_GEN_DEFAULTS[kind], **opts}
    # keys not given fall to the generator's own defaults
    if kind == "nanotube":
        return gen_nanotube(opts.pop("n"), opts.pop("cells"), **opts)
    return gen_diamond(opts.pop("cells"), **opts)


def _load_structure(value, params):
    """The structure, its species numbered in the parameter table's order."""
    if value is None:
        raise ConfigurationError("no structure given; pass --structure "
                                 "PATH or a generator spec like "
                                 "nanotube:n=5,cells=10")
    if ":" in value or value in _GEN_KINDS:
        state = parse_genspec(value)
    else:
        try:
            state = state_from_xyz(value)
        except FileNotFoundError:
            raise InputError(
                f"structure file {value!r} not found (generator specs look "
                f"like nanotube:n=5,cells=10)") from None
    try:
        index = np.array([params.species_index(s) for s in state.symbols],
                         dtype=np.int64)
    except KeyError as exc:
        raise InputError(exc.args[0]) from None
    masses = np.ones(params.nspecies)  # types with no atoms: never read
    masses[index] = state.masses
    state.species = index[state.species]
    state.masses = masses
    state.symbols = params.species
    return state


def _load_params(args):
    if args.params is None:
        return builtin_params("C")
    return load_params(args.params)


def _given(args, *flags):
    """The flags among these that were set on the command line."""
    return [f for f in flags if getattr(args, f[2:].replace("-", "_"))
            is not None]


def _variants(args, names):
    """One kernel variant per name; None is the production kernel.

    --backend and --width choose lanes, so they reach the lane kernels
    only, and setting either with no lane kernel named is an error.
    """
    unknown = [n for n in names if n is not None and n not in _VARIANT_NAMES]
    if unknown:
        raise ConfigurationError(f"unknown variant {unknown[0]!r}; choose "
                                 f"from {', '.join(_VARIANT_NAMES)}")
    tags = [make_variant().tag if name is None else _VARIANT_NAMES[name]
            for name in names]
    lanes = [tag in LANE_TAGS for tag in tags]
    given = _given(args, "--backend", "--width")
    if given and not any(lanes):
        raise ConfigurationError(f"{' and '.join(given)} given, but no lane "
                                 f"kernel is selected ({', '.join(tags)})")
    try:
        return [make_variant(tag, args.backend if lane else None,
                             args.width if lane else None, args.precision)
                for tag, lane in zip(tags, lanes)]
    except ValueError as exc:  # the lanes' Backend would not build
        flags = " ".join(f"{f} {getattr(args, f[2:])}" for f in given)
        raise ConfigurationError(f"{flags}: {exc}") from None


# ---------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------

def cmd_gen(args):
    state = parse_genspec(args.spec, args.dims)
    kind = args.spec.partition(":")[0]
    path = args.output or f"{kind}.xyz"
    write_xyz(path, state)
    print(f"wrote {path}: {state.natoms} atoms, box "
          f"{'x'.join(f'{v:g}' for v in state.box.lengths)} A")
    return 0


def cmd_run(args):
    params = _load_params(args)
    state = _load_structure(args.structure, params)
    check_int("seed", args.seed, 0)
    if args.temperature != 0.0:  # seed_velocities rejects < 0 and non-finite
        seed_velocities(state, args.temperature, args.seed)
    variant, = _variants(args, [args.variant])
    grip = {k: v for k, v in (("axis", _AXES.get(args.pull_axis)),
                              ("grip_fraction", args.grip_fraction))
            if v is not None}  # StretchSpec's defaults fill the rest
    stretch = None
    if args.pull_speed is not None:
        stretch = StretchSpec(speed=args.pull_speed, **grip)
    elif grip:
        raise ConfigurationError(
            f"{' and '.join(_given(args, '--pull-axis', '--grip-fraction'))}"
            f" need --pull-speed")
    cfg = RunConfig(dt=args.dt, steps=100 if args.steps is None else args.steps,
                    variant=variant, skin=args.skin,
                    dump_every=args.dump_every, dump_path=args.dump_path,
                    stretch=stretch)
    summary = run_nve(state, params, cfg)

    total = np.asarray(summary["total"])
    scale = max(abs(float(total[0])), 1e-30)
    out = {
        "kind": summary["kind"],
        "variant": variant.describe(),
        "atoms": state.natoms,
        "steps": summary["steps"],
        "dt": summary["dt"],
        "initial": {k: float(np.asarray(summary[k])[0])
                    for k in ("potential", "kinetic", "total")},
        "final": {k: float(np.asarray(summary[k])[-1])
                  for k in ("potential", "kinetic", "total")},
        "drift_rel": float(np.abs(total - total[0]).max() / scale),
        "force_sum_max": float(np.max(summary["force_sum_max"])),
        "rebuilds": summary["rebuilds"],
        "wall_clock": summary["wall_clock"],
        "series": {k: summary[k] for k in ("potential", "kinetic", "total")},
    }
    for key in ("pull_speed", "grip_atoms"):
        if key in summary:
            out[key] = summary[key]
    if "strain" in summary:
        out["series"]["strain"] = summary["strain"]
    # numpy arrays and scalars; np.float64 is a float already
    print(json.dumps(out, indent=2, default=lambda obj: obj.tolist()))
    return 0


def cmd_bench(args):
    params = _load_params(args)
    state = _load_structure(args.structure, params)
    if args.variant is None:
        names = list(_VARIANT_NAMES)
    else:
        names = [name.strip() for name in args.variant.split(",")]
    report = run_benchmark(
        state, params, _variants(args, names),
        steps=20 if args.steps is None else args.steps,
        warmup=args.warmup, repeats=args.repeats, skin=args.skin)
    print(report.render(args.format))
    return 0


def cmd_verify(args):
    params = _load_params(args)
    state = _load_structure(args.structure, params)
    variant, = _variants(args, [args.variant])
    report = run_verification(
        state, params, variant=variant, tol_scale=args.tol_scale,
        conservation_steps=200 if args.steps is None else args.steps,
        dt=args.dt, skin=args.skin, seed=args.seed)
    if args.format == "table":
        for c in report["checks"]:
            state_txt = "PASS" if c["passed"] else "FAIL"
            meas = "-" if c["measured"] is None else f"{c['measured']:.3e}"
            tol = "-" if c["tolerance"] is None else f"{c['tolerance']:.3e}"
            print(f"{state_txt}  {c['name']:<28} measured {meas:>10} "
                  f"tolerance {tol:>10}  {c['worst']}")
        print(f"{'PASS' if report['passed'] else 'FAIL'}  overall "
              f"({report['variant']}, {report['natoms']} atoms, "
              f"tol_scale {report['tol_scale']:g})")
    else:
        print(json.dumps(report, indent=2))
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------

def _add_common(p, bench=False):
    p.add_argument("--params", metavar="PATH", default=None,
                   help="parameter file (default: bundled carbon table)")
    if bench:
        p.add_argument("--variant", default=None,
                       help="comma-separated list of kernels to time "
                            "(default: every kernel)")
    else:
        p.add_argument("--variant", choices=sorted(_VARIANT_NAMES),
                       help="kernel to run (default: the production kernel)")
        p.add_argument("--seed", type=int, default=0, metavar="N",
                       help="RNG seed (velocities, probe selection)")
    p.add_argument("--backend", choices=tuple(DEFAULT_WIDTHS), default=None,
                   help="lane backend of vec-j and vec-i, which presets "
                        "the width (default: native for vec-i, emulated "
                        "for vec-j)")
    p.add_argument("--width", type=int, default=None, metavar="N",
                   help="lane count of vec-j and vec-i")
    p.add_argument("--precision", choices=("single", "double"),
                   default="double")
    p.add_argument("--skin", type=float, default=0.3, metavar="A",
                   help="neighbor-list skin radius")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tersoffmd",
        description="Tersoff bond-order MD: structure generation, NVE and "
                    "stretch runs, kernel benchmarks, invariant checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a structure and write XYZ")
    p.add_argument("spec", help="nanotube[:n=..,cells=..] or "
                                "diamond[:cells=..]")
    p.add_argument("dims", nargs="*",
                   help="positional generator values, e.g. gen nanotube 5 10")
    p.add_argument("-o", "--output", default=None, metavar="PATH",
                   help="output XYZ path (default: <kind>.xyz)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("run", help="NVE or stretch run with JSON summary")
    p.add_argument("--structure", metavar="PATH|SPEC", required=True)
    _add_common(p)
    p.add_argument("--steps", type=int, default=None, metavar="N",
                   help="timesteps (default 100; 0 = single evaluation)")
    p.add_argument("--dt", type=float, default=0.5, metavar="FS")
    p.add_argument("--temperature", type=float, default=0.0, metavar="K",
                   help="seed Maxwell velocities at this temperature")
    p.add_argument("--dump-every", type=int, default=0, metavar="N",
                   help="write an XYZ frame every N steps")
    p.add_argument("--dump-path", default=None, metavar="PATH")
    p.add_argument("--pull-speed", type=float, default=None, metavar="A_FS",
                   help="grip separation speed; enables the stretch driver")
    p.add_argument("--pull-axis", choices=sorted(_AXES),
                   help=f"stretch axis (default {'xyz'[StretchSpec.axis]})")
    p.add_argument("--grip-fraction", type=float, metavar="F",
                   help=f"grip slab depth per end (default "
                        f"{StretchSpec.grip_fraction:g})")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="time force kernels, report speedups")
    p.add_argument("--structure", metavar="PATH|SPEC", required=True)
    _add_common(p, bench=True)
    p.add_argument("--steps", type=int, default=None, metavar="N",
                   help="timed force evaluations per repeat (default 20)")
    p.add_argument("--warmup", type=int, default=1, metavar="N",
                   help="untimed evaluations per kernel (default 1); the "
                        "first on the list pays the one-off topology and "
                        "triple build")
    p.add_argument("--repeats", type=int, default=5, metavar="N")
    p.add_argument("--format", choices=("table", "csv", "json"),
                   default="table")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("--structure", metavar="PATH|SPEC",
                   default="nanotube:n=5,cells=10")
    _add_common(p)
    p.add_argument("--steps", type=int, default=None, metavar="N",
                   help="conservation-check NVE steps (default 200)")
    p.add_argument("--dt", type=float, default=0.5, metavar="FS")
    p.add_argument("--tol-scale", type=float, default=1.0,
                   help="multiply every tolerance; 0 must fail")
    p.add_argument("--format", choices=("table", "json"),
                   default="json")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits on bad flags/choices (code 2) and on --help (0);
        # fold that into the return-code contract so callers never see
        # the exception
        return exc.code
    try:
        return args.func(args)
    except BrokenPipeError:  # as on SIGPIPE; devnull takes the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ConfigurationError, InputError, ParamFileError, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
