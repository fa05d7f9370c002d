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
  with consecutive (i,j) pairs across atoms. In both, step s of the k
  walk visits slot s of each lane's own row i, so lanes may share i or k
  and every force update goes through the ordered scatter. A row holds a
  few neighbors, so VecJ runs on the scalar and emulated backends only.

All optimized variants share the scalar forms' expression trees operation
for operation and accumulate per (i,j) at the same granularity: zeta, the
gradient sums over k, and the per-k F_k updates. The scalar kernels work
per component and accumulate in Python lists; the lane kernel keeps every
3-vector (displacements, gradients, gradient sums, pair forces) as one
(3, W) block and scatters into one (3, n) force block, row by row in lane
order. On a strict double emulated backend at width 1, both schedules
reproduce ScalarOpt bit for bit (forces are flushed with +0.0 on output so
a masked-lane zero cannot differ in sign). Energies and forces accumulate
in float64 in both precision modes; "single" converts distances,
parameters and all intermediate potential math to float32.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError
from .neighbor import pack_adjacency
from .potential import _pair_parts, _zeta_parts, pair_parts_lanes, \
    zeta_parts_lanes
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


def _validate(state, params):
    """The state's species as int64, after checking the positions are
    finite and every species is in the parameter table."""
    pos = np.asarray(state.positions, dtype=np.float64)
    if not np.isfinite(pos).all():
        bad = int(np.argwhere(~np.isfinite(pos))[0][0])
        raise InputError(f"non-finite position for atom {bad}")
    species = np.asarray(state.species, dtype=np.int64)
    n = pos.shape[0]
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


def _result(F, e_at, energy, visits, gathers=0, active=0, total=0):
    """F is the (3, n) force block; e_at the per-atom energies."""
    forces = np.ascontiguousarray(np.transpose(F)) + 0.0  # flush -0.0
    stats = {"zeta_visits": visits, "gathers": gathers,
             "lane_active": active, "lane_total": total}
    return ForceEnergyResult(forces, energy, np.asarray(e_at) + 0.0, stats)


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
    """Columns and parameter rows for the scalar kernels: Python floats
    with math in double, float32 scalars with numpy in single."""
    pair_mat, trip_mat = params.views(precision)
    ints = (adj.j.tolist(), species.tolist(), adj.offsets.tolist())
    if precision == "double":
        return (ints + tuple(adj.geom.T.tolist()), pair_mat.tolist(),
                trip_mat.tolist(), math)
    return (ints + tuple(adj.geom.T.astype(np.float32)),
            list(map(tuple, pair_mat)), list(map(tuple, trip_mat)), np)


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

    fx, fy, fz, e_at = ([0.0] * n for _ in range(4))
    energy = 0.0
    visits = 0
    for i in range(n):
        b0 = offs[i]
        b1 = offs[i + 1]
        base_i = sl[i] * S
        for jj in range(b0, b1):
            j = jl[jj]
            trip_base = (base_i + sl[j]) * S
            dxj, dyj, dzj, r_ij = dxa[jj], dya[jj], dza[jj], ra[jj]
            # pass A: zeta, then the pair terms
            zeta = r_ij * 0.0  # typed zero
            for kk in range(b0, b1):
                visits += 1
                k = jl[kk]
                if k == j:
                    continue
                tp = trip_sc[trip_base + sl[k]]
                zeta = zeta + _zeta_parts(
                    dxj, dyj, dzj, r_ij,
                    dxa[kk], dya[kk], dza[kk], ra[kk], *tp, xm)[0]
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
    return _result(np.array([fx, fy, fz]), e_at, energy, visits)


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

    fx, fy, fz, e_at = ([0.0] * n for _ in range(4))
    energy = 0.0
    visits = 0
    for i in range(n):
        b0 = offs[i]
        b1 = offs[i + 1]
        base_i = sl[i] * S
        for jj in range(b0, b1):
            j = jl[jj]
            trip_base = (base_i + sl[j]) * S
            dxj, dyj, dzj, r_ij = dxa[jj], dya[jj], dza[jj], ra[jj]
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
    return _result(np.array([fx, fy, fz]), e_at, energy, visits)


# ======================================================================
# the lane kernel: VecJ and VecI
# ======================================================================

def compute_lanes(state, nl, params, variant):
    """VecJ and VecI: one body, the tag picks the batch schedule."""
    species = _validate(state, params)
    adj = pack_adjacency(state, nl, params.r_cut)
    bk = variant.backend
    pair_mat, trip_mat = params.views(bk.precision)
    S = params.nspecies
    n = adj.natoms
    W = bk.width
    gathers0 = bk.gather_count
    geom = adj.geom.astype(bk.real_dtype)
    # per pair: i, j, pair type, then the bounds of row i (the k walk)
    pairs = np.stack([adj.i, adj.j, species[adj.i] * S + species[adj.j],
                      adj.offsets[adj.i], adj.offsets[adj.i + 1]], axis=1)

    F = np.zeros((3, n))
    e_at = np.zeros(n)
    energy = 0.0
    visits = 0
    active = 0
    total = 0
    schedule = adj.batches_j if variant.tag == "VecJ" else adj.batches_i
    for slot, mask in schedule(W):
        active += int(np.count_nonzero(mask))
        total += W
        i_idx, j_idx, pair_idx, cur, end = bk.gather(pairs, slot, mask,
                                                     fill=-1)
        gj_rec = bk.gather(geom, slot, mask, fill=1.0)
        dj, r_ij = gj_rec[:3], gj_rec[3]
        zeta, gi, gjs = bk.zeros(), bk.zeros(3), bk.zeros(3)
        cache = []
        # padding lanes have cur = end = -1 and take no steps
        for step in range(int((end - cur).max())):
            kk = cur + step
            alive = mask & (kk < end)
            visits += int(np.count_nonzero(alive))
            k_idx = bk.gather(adj.j, kk, alive, fill=-1)
            sk = bk.gather(species, k_idx, alive, fill=0)
            act = alive & (k_idx != j_idx)
            trip = bk.gather(trip_mat, pair_idx * S + sk, alive, fill=1.0)
            gk_rec = bk.gather(geom, kk, alive, fill=1.0)
            val, gj, gk = zeta_parts_lanes(
                bk, dj, r_ij, gk_rec[:3], gk_rec[3], *trip[:7],
                trip[7] == 3.0)
            zeta = zeta + np.where(act, val, 0.0)
            gi = gi + np.where(act, -(gj + gk), 0.0)
            gjs = gjs + np.where(act, gj, 0.0)
            cache.append((k_idx, act, np.where(act, gk, 0.0)))
        v, dv_dr, dz = pair_parts_lanes(
            bk, r_ij, zeta,
            *bk.gather(pair_mat, pair_idx, mask, fill=1.0))
        energy += bk.reduce_sum(np.where(mask, v, 0.0))
        bk.scatter_add(e_at, i_idx, np.where(mask, v, 0.0), mask)
        fv = dv_dr * (dj / r_ij)
        bk.scatter_add(F, i_idx, fv - dz * gi, mask)
        bk.scatter_add(F, j_idx, -fv - dz * gjs, mask)
        for k_idx, act, gk in cache:
            bk.scatter_add(F, k_idx, -(dz * gk), act)
    return _result(F, e_at, energy, visits, bk.gather_count - gathers0,
                   active, total)


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
