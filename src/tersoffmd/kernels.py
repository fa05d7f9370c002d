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
  with consecutive (i,j) pairs across atoms. Each pair batch lists its
  triples in ScalarOpt's order (pair by pair, k ascending, k != j), runs
  the zeta term over them W triples at a time, sums zeta and the
  gradient sums per pair lane with the ordered scatter, then runs one
  pair pass. Either schedule runs on any backend; a batch holds only its
  lanes, so a VecJ row of a few neighbors costs a few lanes at any width.

`_KERNELS` gives each tag its kernel and default backend; the tags, the
lane tags and the production kernel (``make_variant()``) come from it.
`compute` validates and packs once per call; `_batches` is the schedule.

Topology per rebuild, geometry per step: the lane kernel's index record
(`_records`), the triples as plain int32 arrays, depends on the topology
alone; it is built in one pass once per neighbor-list topology and kept
on it. Every batch of either schedule slices it and the topology's own
i and j, and a step computes only the pair geometry (`pack_adjacency`)
and the math.

Gather only what is scattered: a batch's triple records and its pairs'
geometry are contiguous runs, read with `Backend.load`; the geometry of
a triple's two pairs is gathered per lane. When every atom has one
species, every pair and every triple take the same parameter row, and
the two rows broadcast across the lanes as (F, 1) blocks; with more
species, each call forms its pair and triple types from the species
array and gathers each lane's row.

All optimized variants share the scalar forms' expression trees operation
for operation and accumulate per (i,j) at the same granularity: zeta, the
gradient sums over k, and the per-k F_k updates. ScalarOpt and the lane
kernel keep one force accumulator per role and return (F_i + F_j) + F_k:
F_i takes fv - dz*gi and F_j -fv - dz*gjs per pair, in global pair order;
F_k takes -(dz*gk) per triple, in global triple order. The scalar kernels
work per component in Python lists; the lane kernel holds every 3-vector
as one (3, W) block and makes one plain scatter per role and batch, row
by row in lane order. So no batch boundary, width or schedule changes
the order in which an accumulator, or the energy, adds its terms:
non-strict forces and energies are byte-identical at every width in both
schedules, and strict double lanes reproduce ScalarOpt bit for bit
(forces are flushed with +0.0 on output, so a zero has one sign on every
kernel).
Energies and forces accumulate in float64 in both precision modes;
"single" converts distances, parameters and all intermediate potential
math to float32.
"""

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError
from .neighbor import pack_adjacency
from .potential import _pair_parts, _zeta_parts, pair_parts_lanes, \
    zeta_parts_lanes
from .simd import Backend


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

    @property
    def precision(self):
        return self.backend.precision

    def describe(self):
        b = self.backend
        if self.tag not in LANE_TAGS:
            return f"{self.tag}[{b.precision}]"
        strict = ",strict" if b.strict else ""
        return f"{self.tag}[{b.name},W={b.width},{b.precision}{strict}]"


def make_variant(tag=None, backend=None, width=None, precision="double",
                 strict=False):
    """Kernel variant; no tag is VecI, and backend names default per tag."""
    tag = "VecI" if tag is None else tag
    if backend is None:
        backend = _KERNELS[tag][1] if tag in _KERNELS else "scalar"
    return KernelVariant(tag, Backend(backend, width, precision, strict))


@dataclass
class ForceEnergyResult:
    forces: np.ndarray
    potential_energy: float
    stats: dict

    @property
    def lane_utilization(self):
        """Active lanes over W per batch: the fill of W-wide batches on
        every backend, though each batch runs only its active lanes.
        None for the scalar kernels."""
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


def _result(F, energy, visits, gathers=0, active=0, total=0):
    """F is the (3, n) force block."""
    # + 0.0 turns -0.0 into +0.0: one sign of zero is then a property of
    # the output, not of how each kernel starts and orders its sums
    forces = np.ascontiguousarray(np.transpose(F)) + 0.0
    stats = {"zeta_visits": visits, "gathers": gathers,
             "lane_active": active, "lane_total": total}
    return ForceEnergyResult(forces, energy, stats)


def check_threads(threads):
    """Reject any thread count but 1: every kernel runs one plain pass.
    benchmark/workloads.py still passes threads=1 (ROADMAP item 6)."""
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

def compute_reference(adj, species, params, variant):
    (jl, sl, offs, dxa, dya, dza, ra), pair_sc, trip_sc, xm = \
        _scalar_views(adj, species, params, variant.precision)
    S = params.nspecies
    n = adj.natoms

    fx, fy, fz = ([0.0] * n for _ in range(3))
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
    return _result(np.array([fx, fy, fz]), energy, visits)


# ======================================================================
# ScalarOpt: single k walk with a zeta cache
# ======================================================================

def compute_scalar_opt(adj, species, params, variant):
    (jl, sl, offs, dxa, dya, dza, ra), pair_sc, trip_sc, xm = \
        _scalar_views(adj, species, params, variant.precision)
    S = params.nspecies
    n = adj.natoms

    (fxi, fyi, fzi), (fxj, fyj, fzj), (fxk, fyk, fzk) = (
        [[0.0] * n for _ in range(3)] for _ in range(3))
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
            fxv = dv_dr * (dxj / r_ij)
            fyv = dv_dr * (dyj / r_ij)
            fzv = dv_dr * (dzj / r_ij)
            fxi[i] += float(fxv - dz * gix)
            fyi[i] += float(fyv - dz * giy)
            fzi[i] += float(fzv - dz * giz)
            fxj[j] += float(-fxv - dz * gjxs)
            fyj[j] += float(-fyv - dz * gjys)
            fzj[j] += float(-fzv - dz * gjzs)
            for k, gkx, gky, gkz in cache:
                fxk[k] -= float(dz * gkx)
                fyk[k] -= float(dz * gky)
                fzk[k] -= float(dz * gkz)
    F = np.array([fxi, fyi, fzi]) + np.array([fxj, fyj, fzj])
    return _result(F + np.array([fxk, fyk, fzk]), energy, visits)


# ======================================================================
# the lane kernel: VecJ and VecI
# ======================================================================

def _batches(bounds, width):
    """(start, stop) runs of at most W packed-pair slots, none straddling a
    bound: adj.offsets gives one atom's row per batch (none for an empty
    row), [0, npairs] consecutive pairs across atoms. Only the last batch
    before a bound can be short; it is not padded out to W."""
    bounds = np.asarray(bounds).tolist()
    for begin, end in zip(bounds[:-1], bounds[1:]):
        for s in range(begin, end, width):
            yield s, min(s + width, end)


def _records(adj):
    """The topology's index record, plain int32 arrays built in one
    vectorised pass on first use and kept on the topology:

    * trip (ntrip, 2): the triples in ScalarOpt's order, pair by pair, k
      ascending, k != j: (pair, k-pair), pair p running adj.i[p] ->
      adj.j[p]. Row i's slot for k = j is the pair itself;
    * tfirst (npairs + 1,): pair p's triples are trip[tfirst[p]:tfirst[p+1]].

    A batch of pairs a .. b-1 slices both, and adj.i and adj.j.
    """
    topo = adj.topology
    if topo.records is None:
        i32 = np.int32
        npairs = adj.npairs
        n_i = np.diff(adj.offsets).astype(i32).take(adj.i)
        tfirst = np.zeros(npairs + 1, dtype=i32)
        np.cumsum(n_i - 1, out=tfirst[1:])  # each pair's triples: n_i - 1
        # pair p's n_i slots run over row i, the k = j slot among them:
        # slot block p starts at tfirst[p] + p, row i at offsets[i]
        shift = adj.offsets.take(adj.i) - tfirst[:-1] - np.arange(npairs)
        pair = np.repeat(np.arange(npairs, dtype=i32), n_i)
        kk = np.arange(pair.shape[0], dtype=i32) + np.repeat(
            shift.astype(i32), n_i)
        other = kk != pair
        trip = np.empty((int(tfirst[-1]), 2), dtype=i32)
        trip[:, 0], trip[:, 1] = pair[other], kk[other]
        topo.records = (trip, tfirst)
    return topo.records


# Fixed glibc heap thresholds: arrays from 4 MiB up get mappings of their
# own, and the heap top goes back to the system only beyond 8 MiB. With
# the sliding defaults, whether each step's few MB of freed temporaries
# were returned and faulted in again hung on unrelated earlier allocations.
try:
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
    _mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD
except (OSError, AttributeError, TypeError):  # not glibc
    pass


def compute_lanes(adj, species, params, variant):
    """VecJ and VecI: one body, the tag picks the batch schedule.

    Each pair batch runs in a call of its own, so its temporaries are
    freed before the next batch allocates its own: the peak is one
    batch's working set, not two.
    """
    bk = variant.backend
    pair_mat, trip_mat = params.views(bk.precision)
    W = bk.width
    gathers0 = bk.gather_count
    geom = adj.geom.astype(bk.real_dtype, copy=False)
    trip, tfirst = _records(adj)
    S = params.nspecies
    one = species.size and (species == species[0]).all()
    if one:  # one species: one row of each, broadcast on the lanes
        s0 = int(species[0])
        pair_par = pair_mat[s0 * (S + 1)][:, None]
        trip_par = trip_mat[s0 * (S * S + S + 1)][:, None]
    else:  # this call's pair and triple types, gathered per lane
        ptype = species.take(adj.i) * S + species.take(adj.j)
        ttype = ptype.take(trip[:, 0]) * S + species.take(
            adj.j.take(trip[:, 1]))
    Fi, Fj, Fk = np.zeros((3, 3, adj.natoms))

    def chunk(a, c0, c1, sums):
        """Triples c0 .. c1-1 of the batch from pair a: add zeta and the
        gradient sums over k to the rows zeta | gi | gjs of sums, and
        return the triples' gk."""
        p, kk = bk.load(trip, c0, c1)
        tj = bk.gather(geom, p)
        tk = bk.gather(geom, kk)
        par = trip_par if one else bk.gather(trip_mat, ttype[c0:c1])
        val, gj, gk = zeta_parts_lanes(bk, tj[:3], tj[3], tk[:3], tk[3], *par)
        bk.scatter_add(sums, p - a,
                       np.concatenate([val[None], -(gj + gk), gj]))
        return gk

    def batch(a, b, energy):
        """Pairs a .. b-1: scatter their forces; the energy so far."""
        t0, t1 = int(tfirst[a]), int(tfirst[b])
        sums = np.zeros((7, b - a), dtype=bk.real_dtype)
        # every triple's gk in one block, filled W triples at a time
        gk = np.empty((3, t1 - t0), dtype=bk.real_dtype)
        for c0, c1 in _batches([t0, t1], W):
            gk[:, c0 - t0:c1 - t0] = chunk(a, c0, c1, sums)
        zeta, gi, gjs = sums[0], sums[1:4], sums[4:]
        gj_rec = bk.load(geom, a, b)
        dj, r_ij = gj_rec[:3], gj_rec[3]
        par = pair_par if one else bk.gather(pair_mat, ptype[a:b])
        v, dv_dr, dz = pair_parts_lanes(bk, r_ij, zeta, *par)
        fv = dv_dr * (dj / r_ij)
        bk.scatter_add(Fi, adj.i[a:b], fv - dz * gi)
        bk.scatter_add(Fj, adj.j[a:b], -fv - dz * gjs)
        if t1 > t0:
            # F_k -= dz gk as F_k += -(dz gk), in place: negation is exact
            gk *= -dz[trip[t0:t1, 0] - a]
            bk.scatter_add(Fk, adj.j.take(trip[t0:t1, 1]), gk)
        return bk.reduce_sum(v, energy)

    energy = 0.0
    nbatch = 0
    bounds = adj.offsets if variant.tag == "VecJ" else [0, adj.npairs]
    for a, b in _batches(bounds, W):
        energy = batch(a, b, energy)
        nbatch += 1
    # the batches cover every pair once; visits are sum(n_i), the triples
    # plus the k = j slots, and lane_total is W per batch, the fill of a
    # W-wide unit
    return _result((Fi + Fj) + Fk, energy, int(tfirst[-1]) + adj.npairs,
                   bk.gather_count - gathers0, adj.npairs, W * nbatch)


# ======================================================================
# dispatch
# ======================================================================

# tag -> (kernel function, default backend)
_KERNELS = {"Reference": (compute_reference, "scalar"),
            "ScalarOpt": (compute_scalar_opt, "scalar"),
            "VecJ": (compute_lanes, "emulated"),
            "VecI": (compute_lanes, "native")}
KERNEL_TAGS = tuple(_KERNELS)
LANE_TAGS = tuple(t for t, (fn, _) in _KERNELS.items() if fn is compute_lanes)


def compute(state, nl, params, variant, threads=1):
    check_threads(threads)
    species = _validate(state, params)
    adj = pack_adjacency(state, nl, params.r_cut)
    return _KERNELS[variant.tag][0](adj, species, params, variant)
