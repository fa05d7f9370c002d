"""The four interchangeable energy/force kernels.

* Reference: the two-pass textbook loop. Pass A walks k to accumulate
  zeta and applies the pair terms; pass B walks k again, recomputing the
  zeta gradients and applying the -delta_zeta weighted triples. Each
  neighbor slot of i is visited twice per (i,j): 2 sum(n_i^2) visits.
* ScalarOpt: one k walk per (i,j). Values and gradient sums are
  accumulated on the fly, per-k gradients cached, the second walk only
  multiplies by delta_zeta: sum(n_i^2) visits.
* VecJ and VecI: two batch schedules of one lane kernel. VecJ fills a
  batch with one atom's neighbor row (one i per batch); VecI fills it
  with consecutive (i,j) pairs across atoms. In both, the k iteration
  advances a private cursor per lane, so lanes may share i or k and
  every force update goes through the ordered scatter. A row holds a
  few neighbors, so VecJ runs on the scalar and emulated backends only.

All optimized variants share the scalar forms' expression trees operation
for operation and accumulate per (i,j) at the same granularity: zeta, the
gradient sums over k, and the per-k F_k updates. On a strict double
emulated backend at width 1, both schedules reproduce ScalarOpt bit for
bit (forces are flushed with +0.0 on output so a masked-lane zero cannot
differ in sign). Energies and forces accumulate in float64 in both
precision modes; "single" converts distances, parameters and all
intermediate potential math to float32.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError
from .neighbor import pack_adjacency
from .potential import _pair_parts, _zeta_parts, _zeta_value, \
    pair_parts_lanes, zeta_parts_lanes
from .simd import Backend, make_backend

KERNEL_TAGS = ("Reference", "ScalarOpt", "VecJ", "VecI")


@dataclass(frozen=True)
class KernelVariant:
    """Kernel selector: tag plus the execution backend.

    Reference/ScalarOpt take only the precision from the backend; VecJ
    and VecI run on its lanes.
    """

    tag: str
    backend: Backend

    def __post_init__(self):
        if self.tag not in KERNEL_TAGS:
            raise ConfigurationError(f"unknown kernel tag {self.tag!r}")
        if self.tag == "VecJ" and self.backend.name == "native":
            # rows hold a few neighbors, so 1024 lanes would run nearly empty
            raise ConfigurationError(
                "VecJ runs on the scalar or emulated backend, not native")

    @property
    def precision(self):
        return self.backend.precision

    def describe(self):
        b = self.backend
        if self.tag in ("Reference", "ScalarOpt"):
            return f"{self.tag}[{b.precision}]"
        strict = ",strict" if b.strict else ""
        return f"{self.tag}[{b.name},W={b.width},{b.precision}{strict}]"


_DEFAULT_BACKENDS = {"Reference": "scalar", "ScalarOpt": "scalar",
                     "VecJ": "emulated", "VecI": "native"}


def make_variant(tag, backend=None, width=None, precision="double",
                 strict=False):
    """Kernel variant; backend defaults per tag (VecI runs native)."""
    if isinstance(backend, Backend):
        return KernelVariant(tag, backend)
    if backend is None:
        backend = _DEFAULT_BACKENDS.get(tag, "scalar")
    return KernelVariant(tag, make_backend(backend, width, precision, strict))


@dataclass
class ForceEnergyResult:
    forces: np.ndarray
    potential_energy: float
    per_atom_energy: np.ndarray
    stats: dict

    @property
    def lane_utilization(self):
        total = self.stats.get("lane_total", 0)
        if total == 0:
            return None
        return self.stats["lane_active"] / total


def _checked_species(state, params):
    species = np.asarray(state.species, dtype=np.int64)
    n = np.asarray(state.positions).shape[0]
    if species.shape != (n,):
        raise ConfigurationError(
            f"species shape {species.shape} does not match {n} atoms")
    if species.size and (species.min() < 0
                         or species.max() >= params.nspecies):
        bad = int(species[(species < 0)
                          | (species >= params.nspecies)][0])
        raise ConfigurationError(
            f"species index {bad} outside the {params.nspecies}-species "
            f"parameter table")
    return species


def _validate(state, params):
    pos = np.asarray(state.positions, dtype=np.float64)
    if not np.isfinite(pos).all():
        bad = int(np.argwhere(~np.isfinite(pos))[0][0])
        raise InputError(f"non-finite position for atom {bad}")
    return _checked_species(state, params)


def _result(fx, fy, fz, e_at, energy, visits, gathers=0, active=0,
            total=0):
    forces = np.stack([fx, fy, fz], axis=1) + 0.0  # flush -0.0
    stats = {"zeta_visits": visits, "gathers": gathers,
             "lane_active": active, "lane_total": total}
    return ForceEnergyResult(forces, energy, e_at + 0.0, stats)


def check_threads(threads):
    """Reject any thread count but 1: every kernel runs one plain pass.

    benchmark/workloads.py still passes threads=1 to compute, ForceField,
    RunConfig and run_verification; this check and those four parameters
    go once the harness drops the argument (ROADMAP item 6).
    """
    if threads != 1:
        raise ConfigurationError(
            f"threads must be 1 (the kernels run on one thread), "
            f"got {threads!r}")


def _scalar_views(adj, species, params, precision):
    views = params.views(precision)
    ints = (adj.j.tolist(), species.tolist(), adj.offsets.tolist())
    if precision == "double":
        arrays = ints + tuple(adj.geom.T.tolist())
        return arrays, views["pair_scalar"], views["trip_scalar"], math
    arrays = ints + tuple(adj.geom.T.astype(np.float32))
    return arrays, views["pair_scalar"], views["trip_scalar"], np


# ======================================================================
# Reference: literal two-pass loop
# ======================================================================

def compute_reference(state, nl, params, precision="double"):
    species = _validate(state, params)
    adj = pack_adjacency(state, nl, params.r_cut)
    (jl, sl, offs, dxa, dya, dza, ra), pair_sc, trip_sc, xm = \
        _scalar_views(adj, species, params, precision)
    S = params.nspecies
    n = adj.natoms

    fx = np.zeros(n)
    fy = np.zeros(n)
    fz = np.zeros(n)
    e_at = np.zeros(n)
    energy = 0.0
    visits = 0
    for i in range(n):
        b0 = offs[i]
        b1 = offs[i + 1]
        base_i = sl[i] * S
        for jj in range(b0, b1):
            j = jl[jj]
            trip_base = (base_i + sl[j]) * S
            dxj = dxa[jj]
            dyj = dya[jj]
            dzj = dza[jj]
            r_ij = ra[jj]
            # pass A: zeta, then the pair terms
            zeta = r_ij * 0.0  # typed zero
            for kk in range(b0, b1):
                visits += 1
                k = jl[kk]
                if k == j:
                    continue
                tp = trip_sc[trip_base + sl[k]]
                zeta = zeta + _zeta_value(
                    dxj, dyj, dzj, r_ij,
                    dxa[kk], dya[kk], dza[kk], ra[kk], *tp, xm)
            v, dv_dr, dz = _pair_parts(
                r_ij, zeta, *pair_sc[base_i + sl[j]], xm)
            energy += float(v)
            e_at[i] += float(v)
            fxv = dv_dr * (dxj / r_ij)
            fyv = dv_dr * (dyj / r_ij)
            fzv = dv_dr * (dzj / r_ij)
            fx[i] += float(fxv)
            fy[i] += float(fyv)
            fz[i] += float(fzv)
            fx[j] -= float(fxv)
            fy[j] -= float(fyv)
            fz[j] -= float(fzv)
            # pass B: recompute the triples, apply -dz * gradients
            for kk in range(b0, b1):
                visits += 1
                k = jl[kk]
                if k == j:
                    continue
                tp = trip_sc[trip_base + sl[k]]
                _, gjx, gjy, gjz, gkx, gky, gkz = _zeta_parts(
                    dxj, dyj, dzj, r_ij,
                    dxa[kk], dya[kk], dza[kk], ra[kk], *tp, xm)
                fx[i] -= float(dz * -(gjx + gkx))
                fy[i] -= float(dz * -(gjy + gky))
                fz[i] -= float(dz * -(gjz + gkz))
                fx[j] -= float(dz * gjx)
                fy[j] -= float(dz * gjy)
                fz[j] -= float(dz * gjz)
                fx[k] -= float(dz * gkx)
                fy[k] -= float(dz * gky)
                fz[k] -= float(dz * gkz)
    return _result(fx, fy, fz, e_at, energy, visits)


# ======================================================================
# ScalarOpt: single k walk with a zeta cache
# ======================================================================

def compute_scalar_opt(state, nl, params, precision="double"):
    species = _validate(state, params)
    adj = pack_adjacency(state, nl, params.r_cut)
    (jl, sl, offs, dxa, dya, dza, ra), pair_sc, trip_sc, xm = \
        _scalar_views(adj, species, params, precision)
    S = params.nspecies
    n = adj.natoms

    fx = np.zeros(n)
    fy = np.zeros(n)
    fz = np.zeros(n)
    e_at = np.zeros(n)
    energy = 0.0
    visits = 0
    for i in range(n):
        b0 = offs[i]
        b1 = offs[i + 1]
        base_i = sl[i] * S
        for jj in range(b0, b1):
            j = jl[jj]
            trip_base = (base_i + sl[j]) * S
            dxj = dxa[jj]
            dyj = dya[jj]
            dzj = dza[jj]
            r_ij = ra[jj]
            zeta = r_ij * 0.0
            gix = giy = giz = gjxs = gjys = gjzs = r_ij * 0.0
            cache = []
            for kk in range(b0, b1):
                visits += 1
                k = jl[kk]
                if k == j:
                    continue
                tp = trip_sc[trip_base + sl[k]]
                val, gjx, gjy, gjz, gkx, gky, gkz = _zeta_parts(
                    dxj, dyj, dzj, r_ij,
                    dxa[kk], dya[kk], dza[kk], ra[kk], *tp, xm)
                zeta = zeta + val
                gix += -(gjx + gkx)
                giy += -(gjy + gky)
                giz += -(gjz + gkz)
                gjxs += gjx
                gjys += gjy
                gjzs += gjz
                cache.append((k, gkx, gky, gkz))
            v, dv_dr, dz = _pair_parts(
                r_ij, zeta, *pair_sc[base_i + sl[j]], xm)
            energy += float(v)
            e_at[i] += float(v)
            fxv = dv_dr * (dxj / r_ij)
            fyv = dv_dr * (dyj / r_ij)
            fzv = dv_dr * (dzj / r_ij)
            fx[i] += float(fxv - dz * gix)
            fy[i] += float(fyv - dz * giy)
            fz[i] += float(fzv - dz * giz)
            fx[j] += float(-fxv - dz * gjxs)
            fy[j] += float(-fyv - dz * gjys)
            fz[j] += float(-fzv - dz * gjzs)
            for k, gkx, gky, gkz in cache:
                fx[k] -= float(dz * gkx)
                fy[k] -= float(dz * gky)
                fz[k] -= float(dz * gkz)
    return _result(fx, fy, fz, e_at, energy, visits)


# ======================================================================
# the lane kernel: VecJ and VecI
# ======================================================================

def _gather_trip(bk, trip_mat, idx, mask):
    R, D, gamma, c, d, h, lam3, m = bk.gather_fields(trip_mat, idx, mask,
                                                     fill=1.0)
    return R, D, gamma, c, d, h, lam3, (m == 3.0)


def compute_lanes(state, nl, params, variant):
    """VecJ and VecI: one body, the tag picks the batch schedule."""
    species = _validate(state, params)
    adj = pack_adjacency(state, nl, params.r_cut)
    bk = variant.backend
    views = params.views(bk.precision)
    pair_mat = views["pair_matrix"]
    trip_mat = views["trip_matrix"]
    S = params.nspecies
    n = adj.natoms
    W = bk.width
    gathers0 = bk.gather_count
    geom = adj.geom.astype(bk.real_dtype)
    # per pair: i, j, pair type, then the bounds of row i (the k walk)
    pairs = np.stack([adj.i, adj.j, species[adj.i] * S + species[adj.j],
                      adj.offsets[adj.i], adj.offsets[adj.i + 1]], axis=1)

    fx = np.zeros(n)
    fy = np.zeros(n)
    fz = np.zeros(n)
    e_at = np.zeros(n)
    energy = 0.0
    visits = 0
    active = 0
    total = 0
    schedule = adj.batches_j if variant.tag == "VecJ" else adj.batches_i
    for slot, mask in schedule(W):
        active += int(np.count_nonzero(mask))
        total += W
        i_idx, j_idx, pair_idx, cur, end = bk.gather_fields(
            pairs, slot, mask, fill=-1)
        dxj, dyj, dzj, r_ij = bk.gather_fields(geom, slot, mask, fill=1.0)
        # one array each: += on a shared buffer would alias the sums
        zeta, gix, giy, giz, gjxs, gjys, gjzs = (bk.zeros()
                                                 for _ in range(7))
        cache = []
        while True:
            alive = mask & (cur < end)
            if not alive.any():
                break
            visits += int(np.count_nonzero(alive))
            kk = np.where(alive, cur, 0)
            k_idx = bk.gather(adj.j, kk, alive, fill=-1)
            sk = bk.gather(species, k_idx, alive, fill=0)
            trip_idx = pair_idx * S + sk
            act = alive & (k_idx != j_idx)
            tR, tD, tg, tc, td, th, tl3, m_is3 = _gather_trip(
                bk, trip_mat, trip_idx, alive)
            dxk, dyk, dzk, rik = bk.gather_fields(geom, kk, alive, fill=1.0)
            val, gjx, gjy, gjz, gkx, gky, gkz = zeta_parts_lanes(
                bk, dxj, dyj, dzj, r_ij, dxk, dyk, dzk, rik,
                tR, tD, tg, tc, td, th, tl3, m_is3)
            zeta = zeta + np.where(act, val, 0.0)
            gix = gix + np.where(act, -(gjx + gkx), 0.0)
            giy = giy + np.where(act, -(gjy + gky), 0.0)
            giz = giz + np.where(act, -(gjz + gkz), 0.0)
            gjxs = gjxs + np.where(act, gjx, 0.0)
            gjys = gjys + np.where(act, gjy, 0.0)
            gjzs = gjzs + np.where(act, gjz, 0.0)
            cache.append((k_idx, act, np.where(act, gkx, 0.0),
                          np.where(act, gky, 0.0),
                          np.where(act, gkz, 0.0)))
            cur = np.where(alive, cur + 1, cur)
        pR, pD, pA, pl1, pB, pl2, pbe, pet = bk.gather_fields(
            pair_mat, pair_idx, mask, fill=1.0)
        v, dv_dr, dz = pair_parts_lanes(
            bk, r_ij, zeta, pR, pD, pA, pl1, pB, pl2, pbe, pet)
        energy += bk.reduce_sum(np.where(mask, v, 0.0))
        bk.scatter_add(e_at, i_idx, np.where(mask, v, 0.0), mask)
        fxv = dv_dr * (dxj / r_ij)
        fyv = dv_dr * (dyj / r_ij)
        fzv = dv_dr * (dzj / r_ij)
        bk.scatter_add(fx, i_idx, fxv - dz * gix, mask)
        bk.scatter_add(fy, i_idx, fyv - dz * giy, mask)
        bk.scatter_add(fz, i_idx, fzv - dz * giz, mask)
        bk.scatter_add(fx, j_idx, -fxv - dz * gjxs, mask)
        bk.scatter_add(fy, j_idx, -fyv - dz * gjys, mask)
        bk.scatter_add(fz, j_idx, -fzv - dz * gjzs, mask)
        for k_idx, act, gkx, gky, gkz in cache:
            bk.scatter_add(fx, k_idx, -(dz * gkx), act)
            bk.scatter_add(fy, k_idx, -(dz * gky), act)
            bk.scatter_add(fz, k_idx, -(dz * gkz), act)
    return _result(fx, fy, fz, e_at, energy, visits,
                   bk.gather_count - gathers0, active, total)


# ======================================================================
# dispatch
# ======================================================================

def compute(state, nl, params, variant, threads=1):
    check_threads(threads)
    tag = variant.tag
    if tag == "Reference":
        return compute_reference(state, nl, params, variant.precision)
    if tag == "ScalarOpt":
        return compute_scalar_opt(state, nl, params, variant.precision)
    return compute_lanes(state, nl, params, variant)
