"""Structures, simulation state, and the MD driver.

run_nve is the one driver loop. A stretch runs through it: the grip atoms
go to velocity_verlet_step in the `frozen` mask, which gives them no kick.

Unit system: lengths in Angstrom, time in fs, mass in amu, energy in eV.
Accelerations pick up the ACCEL conversion so that
a [A/fs^2] = ACCEL * F [eV/A] / m [amu].
"""

import math
import time as _time
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import ConfigurationError, InputError
from .kernels import check_threads, compute, make_variant
from .neighbor import build_neighbor_list, check_skin, needs_rebuild

# CODATA 2018: elementary charge (J/eV) and atomic mass unit (kg)
_EV_J = 1.602176634e-19
_AMU_KG = 1.66053906660e-27
ACCEL = _EV_J / _AMU_KG * 1e-10  # (eV/A)/amu -> A/fs^2, = 9.648533e-3
KB_EV = 8.617333262e-5           # Boltzmann constant, eV/K

ELEMENT_MASSES = {"C": 12.011, "Si": 28.0855, "Ge": 72.63}


class SimulationBox:
    """Orthorhombic box: edge lengths plus per-axis periodic flags."""

    __slots__ = ("lengths", "periodic")

    def __init__(self, lengths, periodic=(False, False, False)):
        self.lengths = np.asarray(lengths, dtype=np.float64).reshape(3)
        if not np.all(self.lengths > 0):
            raise ConfigurationError(
                f"box edge lengths must be positive, got {self.lengths}")
        for axis, length in zip("xyz", self.lengths):
            if not np.isfinite(length):
                raise ConfigurationError(
                    f"box edge {axis} must be finite, got {length}")
        self.periodic = tuple(bool(p) for p in periodic)
        if len(periodic) != 3:
            raise ConfigurationError("periodic needs one flag per axis")

    def wrap(self, positions):
        """Wrap periodic coordinates into [0, L) in place."""
        for ax in range(3):
            if self.periodic[ax]:
                positions[:, ax] %= self.lengths[ax]
        return positions

    def __repr__(self):
        return f"SimulationBox({self.lengths.tolist()}, {self.periodic})"


@dataclass
class SimulationState:
    """Everything the integrator advances.

    masses is indexed by species type (amu per type); atom_masses expands
    it per atom. symbols names each type for XYZ output.
    """

    positions: np.ndarray
    box: SimulationBox
    species: np.ndarray = None
    masses: np.ndarray = None
    symbols: tuple = ("C",)
    velocities: np.ndarray = None
    forces: np.ndarray = None
    time: float = 0.0

    def __post_init__(self):
        self.positions = np.array(self.positions, dtype=np.float64)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ConfigurationError(
                f"positions must be (n, 3), got {self.positions.shape}")
        if not np.isfinite(self.positions).all():
            raise InputError("non-finite coordinates in positions")
        n = self.positions.shape[0]
        if self.species is None:
            self.species = np.zeros(n, dtype=np.int64)
        self.species = np.asarray(self.species, dtype=np.int64)
        if self.species.shape != (n,):
            raise ConfigurationError(
                f"species must be ({n},), got {self.species.shape}")
        if n and self.species.min() < 0:
            raise ConfigurationError("negative species index")
        if self.masses is None:
            self.masses = np.full(int(self.species.max(initial=0)) + 1,
                                  ELEMENT_MASSES["C"])
        self.masses = np.asarray(self.masses, dtype=np.float64)
        if n and int(self.species.max()) >= self.masses.shape[0]:
            raise ConfigurationError(
                f"species index {int(self.species.max())} has no mass "
                f"(masses holds {self.masses.shape[0]} types)")
        if not np.all(self.masses > 0):
            raise ConfigurationError("masses must be positive")
        if self.velocities is None:
            self.velocities = np.zeros_like(self.positions)
        self.velocities = np.array(self.velocities, dtype=np.float64)
        if self.velocities.shape != self.positions.shape:
            raise ConfigurationError("velocities shape mismatch")
        if self.forces is None:
            self.forces = np.zeros_like(self.positions)
        self.forces = np.array(self.forces, dtype=np.float64)

    @property
    def natoms(self):
        return self.positions.shape[0]

    @property
    def atom_masses(self):
        return self.masses[self.species]

    def copy(self):
        return SimulationState(
            positions=self.positions.copy(),
            box=SimulationBox(self.box.lengths.copy(), self.box.periodic),
            species=self.species.copy(), masses=self.masses.copy(),
            symbols=self.symbols, velocities=self.velocities.copy(),
            forces=self.forces.copy(), time=self.time)


# ---------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------

def kinetic_energy(state):
    """Kinetic energy in eV."""
    if state.natoms == 0:
        return 0.0
    mv2 = (state.atom_masses * (state.velocities ** 2).sum(axis=1)).sum()
    return 0.5 * float(mv2) / ACCEL


def total_momentum(state):
    """Total momentum vector in amu*A/fs."""
    return (state.atom_masses[:, None] * state.velocities).sum(axis=0)


def check_int(name, value, low, high=None):
    """ConfigurationError naming the argument unless value is an int or a
    numpy integer, not a bool, in low..high (no upper bound for None)."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low or (high is not None and value > high)):
        bound = f">= {low}" if high is None else f"in {low}..{high}"
        raise ConfigurationError(
            f"{name} must be an integer {bound}, got {value!r}")


def seed_velocities(state, temperature, rng=0):
    """Maxwell-Boltzmann velocities at `temperature` K, zero net momentum."""
    if not (math.isfinite(temperature) and temperature >= 0.0):
        raise ConfigurationError(
            f"temperature must be finite and >= 0 K, got {temperature!r}")
    rng = np.random.default_rng(rng)
    m = state.atom_masses
    sigma = np.sqrt(KB_EV * temperature * ACCEL / m)
    state.velocities = rng.normal(size=(state.natoms, 3)) * sigma[:, None]
    drift = total_momentum(state) / m.sum()
    state.velocities -= drift
    return state


# ---------------------------------------------------------------------
# structure generators
# ---------------------------------------------------------------------

def gen_nanotube(n_chirality, length_cells, bond_length=1.421, margin=6.0):
    """Armchair (n,n) carbon nanotube, open ends, free box.

    The tube is built directly on the cylinder so that every bond type
    comes out at exactly bond_length: the radius makes the in-ring chord
    exact and the ring spacing h makes the diagonal chord exact. Rolling
    flat graphene and bending it would distort bonds by ~0.7%.
    """
    check_int("n_chirality", n_chirality, 3)
    check_int("length_cells", length_cells, 1)
    n, cells = int(n_chirality), int(length_cells)
    if not (math.isfinite(bond_length) and bond_length > 0):
        raise ConfigurationError(
            f"bond_length must be finite and positive, got {bond_length!r}")
    if not (math.isfinite(margin) and margin >= 0):
        raise ConfigurationError(
            f"margin must be finite and >= 0, got {margin!r}")
    alpha = 2.0 * math.pi / (3.0 * n)
    radius = bond_length / (2.0 * math.sin(alpha / 2.0))
    diag = 2.0 * radius * math.sin(alpha / 4.0)  # in-plane part of diagonal
    h = math.sqrt(bond_length ** 2 - diag ** 2)  # ring spacing
    base = np.arange(n) * (3.0 * alpha)
    even = np.concatenate([base, base + alpha])
    odd = np.concatenate([base + 1.5 * alpha, base + 2.5 * alpha])
    frames = []
    for ring in range(2 * cells):
        theta = even if ring % 2 == 0 else odd
        z = np.full(theta.shape, ring * h)
        frames.append(np.column_stack([radius * np.cos(theta),
                                       radius * np.sin(theta), z]))
    pos = np.concatenate(frames)
    height = (2 * cells - 1) * h
    side = 2.0 * radius + 2.0 * margin
    pos[:, 0] += side / 2.0
    pos[:, 1] += side / 2.0
    pos[:, 2] += margin
    box = SimulationBox([side, side, height + 2.0 * margin])
    return SimulationState(pos, box, symbols=("C",),
                           masses=np.array([ELEMENT_MASSES["C"]]))


_DIAMOND_BASIS = np.array([
    [0.00, 0.00, 0.00], [0.00, 0.50, 0.50],
    [0.50, 0.00, 0.50], [0.50, 0.50, 0.00],
    [0.25, 0.25, 0.25], [0.25, 0.75, 0.75],
    [0.75, 0.25, 0.75], [0.75, 0.75, 0.25],
])


def gen_diamond(cells_per_axis, lattice_constant=3.566):
    """Periodic diamond lattice, 8 atoms per conventional cell."""
    check_int("cells_per_axis", cells_per_axis, 1)
    cells = int(cells_per_axis)
    if not (math.isfinite(lattice_constant) and lattice_constant > 0):
        raise ConfigurationError(f"lattice_constant must be finite and "
                                 f"positive, got {lattice_constant!r}")
    origins = np.stack(np.meshgrid(*[np.arange(cells)] * 3,
                                   indexing="ij"), -1).reshape(-1, 3)
    frac = (origins[:, None, :] + _DIAMOND_BASIS[None, :, :]).reshape(-1, 3)
    pos = frac * lattice_constant
    L = cells * lattice_constant
    box = SimulationBox([L, L, L], periodic=(True, True, True))
    return SimulationState(pos, box, symbols=("C",),
                           masses=np.array([ELEMENT_MASSES["C"]]))


# ---------------------------------------------------------------------
# XYZ I/O
# ---------------------------------------------------------------------

def _box_comment(state):
    L = state.box.lengths
    p = "".join("1" if f else "0" for f in state.box.periodic)
    return (f"box {L[0]:.10g} {L[1]:.10g} {L[2]:.10g} "
            f"periodic {p} time {state.time:.10g}")


def _parse_box_comment(comment, path):
    """The box a write_xyz comment records; None if it names no box."""
    toks = comment.split()
    if "box" not in toks:
        return None
    i = toks.index("box")
    try:
        lengths = [float(t) for t in toks[i + 1:i + 4]]
        flags = toks[toks.index("periodic") + 1]
    except (ValueError, IndexError):
        lengths, flags = [], ""
    if (len(lengths) != 3 or not all(map(math.isfinite, lengths))
            or len(flags) != 3 or set(flags) - {"0", "1"}):
        raise InputError(f"{path}: malformed box comment {comment!r}")
    return SimulationBox(lengths, tuple(ch == "1" for ch in flags))


def write_xyz(path, state, comment=None, append=False):
    """One XYZ frame: count line, comment line, `element x y z` rows."""
    if comment is None:
        comment = _box_comment(state)
    # one % over the flattened (symbol, x, y, z) rows
    cells = np.empty((state.natoms, 4), dtype=object)
    cells[:, 0] = np.array(state.symbols, dtype=object)[state.species]
    cells[:, 1:] = state.positions
    rows = ("%s %.10f %.10f %.10f\n" * state.natoms) % tuple(cells.flat)
    with open(path, "a" if append else "w") as f:
        f.write(f"{state.natoms}\n{comment}\n{rows}")


def read_xyz(path):
    """All frames in the file as (symbols, positions, comment) tuples; a
    malformed count line or atom row, a nan/inf coordinate, or a blank
    line with more than whitespace after it raises InputError naming
    path:line."""
    frames = []
    with open(path) as f:
        lines = enumerate(f, start=1)
        for first, head in lines:
            if not head.strip():
                more = next((at for at, line in lines if line.strip()), None)
                if more is not None:
                    raise InputError(
                        f"{path}:{first}: blank line before more XYZ data "
                        f"at line {more}")
                break
            if not head.strip().isdecimal():
                raise InputError(
                    f"{path}:{first}: bad XYZ atom-count line {head!r}")
            n = int(head)
            comment = next(lines, (0, ""))[1].rstrip("\n")
            symbols = []
            pos = np.empty((n, 3))
            for i in range(n):
                parts = next(lines, (0, ""))[1].split()
                try:
                    if len(parts) < 4:
                        raise ValueError("fewer than 4 fields")
                    pos[i] = [float(v) for v in parts[1:4]]
                    if not np.isfinite(pos[i]).all():
                        raise ValueError("non-finite coordinate")
                except ValueError as exc:
                    raise InputError(f"{path}:{first + 2 + i}: bad XYZ atom "
                                     f"row: {exc}") from None
                symbols.append(parts[0])
            frames.append((symbols, pos, comment))
    return frames


def state_from_xyz(path):
    """Rebuild a state from the last frame of an XYZ file by write_xyz."""
    frames = read_xyz(path)
    if not frames:
        raise InputError(f"no frames in {path}")
    symbols, pos, comment = frames[-1]
    if not symbols:
        raise InputError(f"{path}: no atoms in the last frame")
    box = _parse_box_comment(comment, path)
    if box is None:
        span = pos.max(axis=0) - pos.min(axis=0)
        box = SimulationBox(span + 12.0)
        pos = pos - pos.min(axis=0) + 6.0
    kinds = sorted(set(symbols))
    unknown = [k for k in kinds if k not in ELEMENT_MASSES]
    if unknown:
        raise InputError(f"{path}: no mass for element(s) {unknown}")
    species = np.array([kinds.index(s) for s in symbols], dtype=np.int64)
    masses = np.array([ELEMENT_MASSES[k] for k in kinds])
    return SimulationState(pos, box, species=species, masses=masses,
                           symbols=tuple(kinds))


# ---------------------------------------------------------------------
# force provider with neighbor-list upkeep
# ---------------------------------------------------------------------

class ForceField:
    """Callable force provider owning the neighbor list.

    Rebuilds through needs_rebuild before each evaluation and keeps
    per-phase wall-clock so drivers can report where time went.
    """

    def __init__(self, params, variant=None, skin=0.3, threads=1):
        check_threads(threads)
        self.params = params
        self.variant = variant or make_variant()
        self.skin = skin
        self.nl = None
        self.rebuilds = 0
        self.neighbor_s = 0.0
        self.force_s = 0.0

    def __call__(self, state):
        t0 = _time.perf_counter()
        if self.nl is None or needs_rebuild(state, self.nl):
            # free the old list, its topology and its triples before the
            # build's memory peak
            self.nl = None
            self.nl = build_neighbor_list(state, self.params.r_cut,
                                          self.skin)
            self.rebuilds += 1
        t1 = _time.perf_counter()
        self.neighbor_s += t1 - t0
        res = compute(state, self.nl, self.params, self.variant)
        self.force_s += _time.perf_counter() - t1
        if not np.isfinite(res.forces).all():
            bad = int(np.argwhere(~np.isfinite(res.forces))[0][0])
            raise InputError(
                f"non-finite force on atom {bad} at t={state.time:g} fs")
        return res


# ---------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------

def _check_dt(dt):
    if not (math.isfinite(dt) and dt > 0):
        raise ConfigurationError(
            f"dt must be positive and finite, got {dt!r}")


def velocity_verlet_step(state, dt, forces_fn, result=None, frozen=None):
    """One NVE velocity-Verlet step, in place.

    forces_fn(state) -> ForceEnergyResult. Pass the previous step's
    result to avoid recomputing F(t); the new result (forces current for
    the returned state) is returned. Atoms in the boolean mask `frozen`
    get a zero kick, so their velocities stay exactly as set.
    """
    _check_dt(dt)
    if result is None:
        result = forces_fn(state)
    m = state.atom_masses[:, None]
    if frozen is not None:
        m = np.where(frozen[:, None], np.inf, m)  # F / inf = 0: no kick
    half = 0.5 * dt * ACCEL
    state.velocities += half * result.forces / m
    state.positions += dt * state.velocities
    state.box.wrap(state.positions)
    new = forces_fn(state)
    if not np.isfinite(np.asarray(new.forces)).all():
        raise InputError(f"non-finite forces at t={state.time:g} fs; "
                         f"aborting the step")
    state.velocities += half * new.forces / m
    state.forces = new.forces
    state.time += dt
    return new


@dataclass(frozen=True)
class StretchSpec:
    """Frozen-grip constant-velocity pull along one axis."""

    axis: int = 2
    speed: float = 0.0        # total separation rate, A/fs
    grip_fraction: float = 0.08

    def __post_init__(self):
        check_int("axis", self.axis, 0, 2)
        if not math.isfinite(self.speed):
            raise ConfigurationError(
                f"pull speed must be finite, got {self.speed!r}")
        if not 0.0 < self.grip_fraction < 0.5:
            raise ConfigurationError(
                f"grip_fraction must be in (0, 0.5), got "
                f"{self.grip_fraction:g}")


@dataclass
class RunConfig:
    dt: float = 0.5
    steps: int = 100
    variant: object = None          # KernelVariant; default make_variant()
    skin: float = 0.3
    threads: InitVar[int] = 1
    dump_every: int = 0
    dump_path: str = None
    stretch: StretchSpec = None

    def __post_init__(self, threads):
        check_threads(threads)
        _check_dt(self.dt)
        check_skin(self.skin)
        check_int("steps", self.steps, 0)
        check_int("dump_every", self.dump_every, 0)
        if self.dump_every and not self.dump_path:
            raise ConfigurationError("dump_every set but no dump_path")
        if self.dump_path and not self.dump_every:
            raise ConfigurationError("dump_path set but dump_every is 0")


def _maybe_dump(state, cfg, step):
    if cfg.dump_every and step % cfg.dump_every == 0:
        write_xyz(cfg.dump_path, state, append=step > 0)


def run_nve(state, params, cfg):
    """The MD driver; returns the per-step energy record.

    With a moving cfg.stretch the grip slabs keep a fixed velocity of
    +-speed/2 along the axis (frozen out of every kick) while the
    interior runs NVE, and the record gains the strain series. The pull
    axis must not be periodic: its grips would meet across the boundary.
    """
    spec = cfg.stretch
    pull = spec is not None and spec.speed != 0.0
    frozen = None
    if pull:
        if state.box.periodic[spec.axis]:
            raise ConfigurationError(
                f"cannot pull along the periodic {'xyz'[spec.axis]} axis: "
                f"the grips would meet across the boundary")
        lo, hi = select_grips(state, spec)
        frozen = lo | hi
        state.velocities[frozen] = 0.0
        state.velocities[lo, spec.axis] = -0.5 * spec.speed
        state.velocities[hi, spec.axis] = +0.5 * spec.speed
    ff = ForceField(params, cfg.variant, cfg.skin)
    t_start = _time.perf_counter()
    res = ff(state)
    epot = [res.potential_energy]
    ekin = [kinetic_energy(state)]
    fsum = [float(np.max(np.abs(res.forces.sum(axis=0))))]
    if pull:
        coords = state.positions[:, spec.axis]
        length0 = float(coords.max() - coords.min())
        strain = [0.0]
    _maybe_dump(state, cfg, 0)
    for step in range(1, cfg.steps + 1):
        res = velocity_verlet_step(state, cfg.dt, ff, res, frozen)
        epot.append(res.potential_energy)
        ekin.append(kinetic_energy(state))
        fsum.append(float(np.max(np.abs(res.forces.sum(axis=0)))))
        if pull:
            coords = state.positions[:, spec.axis]
            strain.append(float(coords.max() - coords.min()) / length0 - 1.0)
        _maybe_dump(state, cfg, step)
    total = _time.perf_counter() - t_start
    epot = np.array(epot)
    ekin = np.array(ekin)
    summary = {
        "kind": "nve",
        "steps": cfg.steps,
        "dt": cfg.dt,
        "potential": epot,
        "kinetic": ekin,
        "total": epot + ekin,
        "force_sum_max": np.array(fsum),
        "rebuilds": ff.rebuilds,
        "wall_clock": {
            "total": total,
            "neighbor": ff.neighbor_s,
            "forces": ff.force_s,
        },
    }
    if pull:
        summary.update(kind="stretch", pull_speed=spec.speed,
                       grip_atoms=(int(lo.sum()), int(hi.sum())),
                       strain=np.array(strain))
    return summary


def select_grips(state, spec):
    """Boolean masks (low side, high side) of the grip slabs."""
    coords = state.positions[:, spec.axis]
    lo_edge = coords.min()
    extent = coords.max() - lo_edge
    if extent <= 0:
        raise ConfigurationError("degenerate extent along the pull axis")
    lo = coords <= lo_edge + spec.grip_fraction * extent
    hi = coords >= lo_edge + (1.0 - spec.grip_fraction) * extent
    if not lo.any() or not hi.any():
        raise ConfigurationError("empty grip selection")
    return lo, hi


def run_stretch(state, params, cfg):
    """Constant-velocity stretch: run_nve with cfg.stretch required.

    Speed 0 degenerates to plain NVE.
    """
    if cfg.stretch is None:
        raise ConfigurationError("run_stretch needs cfg.stretch")
    return run_nve(state, params, cfg)
