"""Cell-list neighbor machinery and the adjacency-packing step.

Three layers:

* ``build_cell_list`` / ``build_neighbor_list``: spatial binning at
  build_cutoff = r_C + skin, producing a full (symmetric) flat-CSR
  NeighborList whose rows are sorted ascending by neighbor index, with
  each entry's row index beside it. The pair search makes one array pass
  over the occupied cells per stencil shift (at most 27), looking each
  neighbor cell up among the occupied ones, and expands the cell pairs
  found into atom pairs in one CSR pass; its cost follows the occupied
  cells and the candidates, not the size of a sparse free-boundary grid.
* ``needs_rebuild``: the skin/2 displacement trigger. While it reports
  False, every pair inside r_C is guaranteed present in the list.
* ``pack_adjacency``: re-filter the (stale, padded with skin) list
  against the true cutoff at the *current* positions, as a directed CSR
  with one displacement-and-distance record per pair. The kernels index
  it directly; how its pairs are batched is theirs to decide.

The topology is per rebuild, the geometry per step. Each pack computes
the displacements, distances and keep mask r < r_cut over the whole skin
list, and reuses the list's last ``Topology`` while that mask is
unchanged, which holds on every step in which no pair crossed r_cut. A
topology is the filtered CSR and its triples, built together when it is
derived: every array that lives from one rebuild to the next.

Boxes are orthorhombic with per-axis periodic flags; displacements use the
minimum image on periodic axes. Anything with ``positions`` (N,3 float64),
``box.lengths`` and ``box.periodic`` can be packed.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InputError


def _wrap(disp, box):
    """Wrap float64 displacement vectors (..., 3) in place to the nearest
    periodic image."""
    for ax in range(3):
        if box.periodic[ax]:
            edge = box.lengths[ax]
            disp[..., ax] -= edge * np.round(disp[..., ax] / edge)
    return disp


def _norm2(d):
    """|d|^2 of (n, 3+) rows as a column sum: the bits of (d * d).sum(1)
    over the first three columns, without the (n, 3) square block."""
    return d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]


# candidates per distance-filter pass: keeps the displacement block small
_FILTER_CHUNK = 16384


class CellList:
    """Atoms binned into cells of at least cell_size along each axis.

    Periodic axes are divided into floor(edge / cell_size) cells with
    wraparound adjacency; free axes are covered from the position minimum.
    Any pair within cell_size is found inside the 27-cell neighborhood.
    """

    def __init__(self, state, cell_size):
        pos = np.asarray(state.positions, dtype=np.float64)
        box = state.box
        self.cell_size = float(cell_size)
        self.box = box
        n = pos.shape[0]
        ncells = np.empty(3, dtype=np.int64)
        origin = np.empty(3)
        width = np.empty(3)
        for ax in range(3):
            if box.periodic[ax]:
                edge = float(box.lengths[ax])
                if edge < cell_size:
                    raise ConfigurationError(
                        f"periodic edge {edge:g} A on axis {ax} is smaller "
                        f"than the cell size {cell_size:g} A")
                count = max(int(edge / cell_size), 1)
                origin[ax] = 0.0
                width[ax] = edge / count
            else:
                lo = float(pos[:, ax].min()) if n else 0.0
                hi = float(pos[:, ax].max()) if n else 0.0
                count = max(int((hi - lo) / cell_size) + 1, 1)
                origin[ax] = lo
                width[ax] = cell_size
            if count >= 2**63:  # int64 coordinates, +1 for a shift
                raise ConfigurationError(
                    f"axis {ax} needs {count:.3g} cells of {cell_size:g} A, "
                    f"more than a 64-bit cell index holds")
            ncells[ax] = count
        self.ncells = ncells
        self.origin = origin
        self.width = width

        coords = pos - origin
        for ax in range(3):
            if box.periodic[ax]:
                coords[:, ax] %= box.lengths[ax]
        cxyz = np.floor(coords / width).astype(np.int64)
        cxyz = np.clip(cxyz, 0, ncells - 1)  # atoms sitting on the max edge
        self.cell_coords = cxyz
        ids = (cxyz[:, 0] * ncells[1] + cxyz[:, 1]) * ncells[2] + cxyz[:, 2]
        # CSR of atoms grouped by cell, atom order preserved inside a cell
        self.order = np.argsort(ids, kind="stable")
        sorted_ids = ids[self.order]
        new_cell = np.empty(n, dtype=bool)
        new_cell[:1] = True
        np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=new_cell[1:])
        starts = np.flatnonzero(new_cell)
        self.occupied = sorted_ids[starts]
        self.starts = np.append(starts, n)

    def _axis_steps(self):
        """Per axis, one (share, valid) for each stencil offset d.

        share holds each occupied cell's neighbor coordinate times the
        stride of the axis, so the three shares of a shift add up to the
        neighbor cell's id, wrapping modulo 2^64 as the ids do. valid
        marks the cells whose neighbor lies on the grid of a free axis,
        or is None where all do. Offsets are deduplicated per axis (a
        periodic axis with two cells has offsets {0, 1}, with one cell
        {0}), so wraparound never visits a cell twice.
        """
        # each occupied cell's coordinates, read off its first atom: past
        # 2^63 cells the ids wrap, so they cannot be decoded from the id
        corner = self.cell_coords[self.order[self.starts[:-1]]]
        steps = []
        for ax in range(3):
            nc, c = int(self.ncells[ax]), corner[:, ax]
            if self.box.periodic[ax]:
                row = [((c + d) % nc, None)
                       for d in sorted({d % nc for d in (-1, 0, 1)})]
            else:
                row = [(c + d, ((c + d >= 0) & (c + d < nc)) if d else None)
                       for d in (-1, 0, 1) if abs(d) < nc]
            for stride in self.ncells[ax + 1:]:
                row = [(share * stride, valid) for share, valid in row]
            steps.append(row)
        return steps

    def candidate_pairs(self):
        """Each unordered candidate pair once, as (ci, cj) index arrays.

        Purely adjacency-based; callers apply the distance filter. One
        pass per stencil shift over the occupied cells finds each cell's
        neighbor cell among the occupied ones; a cell pair is kept from
        its lower id. Then one CSR pass expands every such cell pair
        into its atom pairs, and each cell into its pairs j > i.
        """
        occupied, starts, order = self.occupied, self.starts, self.order
        out_a, out_b = [], []
        for (q0, v0), (q1, v1), (q2, v2) in itertools.product(
                *self._axis_steps()):
            nid = q0 + q1
            nid += q2
            # the own shift keeps nothing (nid == cid): its pairs are the
            # in-cell runs below
            keep = nid > occupied
            for valid in (v0, v1, v2):
                if valid is not None:
                    keep &= valid
            a = np.flatnonzero(keep)
            nid = nid.take(a)
            b = np.searchsorted(occupied, nid)
            hit = occupied.take(b, mode="clip") == nid
            out_a.append(a[hit])
            out_b.append(b[hit])
        # each stage frees its arrays before the next one allocates: the
        # expansion below is the peak of a build
        a, b = np.concatenate(out_a), np.concatenate(out_b)
        del out_a, out_b
        # runs: the atom in slot s pairs with order[first[s]:][:length[s]];
        # first each atom with the atoms after it in its cell, then each
        # atom of cell a with all of cell b
        n = int(starts[-1])
        count = starts[a + 1] - starts[a]
        slot, first, length = np.empty((3, n + int(count.sum())),
                                       dtype=np.int64)
        slot[:n] = np.arange(n)
        first[:n] = slot[:n] + 1
        length[:n] = np.repeat(starts[1:], np.diff(starts)) - first[:n]
        slot[n:] = np.repeat(starts[a] - np.cumsum(count) + count, count)
        slot[n:] += np.arange(slot.shape[0] - n)
        first[n:] = np.repeat(starts[b], count)
        length[n:] = np.repeat(starts[b + 1] - starts[b], count)
        del a, b, count
        ci = np.repeat(order.take(slot), length)
        first -= np.cumsum(length) - length
        cj = np.repeat(first, length)
        del slot, first, length
        cj += np.arange(cj.shape[0])
        return ci, order.take(cj)

    def pairs_within(self, positions, cutoff):
        """Undirected pairs (i < j) with min-image distance < cutoff.

        The candidates are filtered _FILTER_CHUNK at a time, so only one
        chunk's displacements exist at once.
        """
        ci, cj = self.candidate_pairs()
        keep = np.empty(ci.shape[0], dtype=bool)
        for a in range(0, ci.shape[0], _FILTER_CHUNK):
            b = a + _FILTER_CHUNK
            d = positions.take(cj[a:b], axis=0) \
                - positions.take(ci[a:b], axis=0)
            np.less(_norm2(_wrap(d, self.box)), cutoff * cutoff,
                    out=keep[a:b])
        ci, cj = ci[keep], cj[keep]
        swap = ci > cj
        ci[swap], cj[swap] = cj[swap], ci[swap]
        return ci, cj


def build_cell_list(state, cell_size):
    return CellList(state, cell_size)


@dataclass(frozen=True, eq=False)
class NeighborList:
    """Full symmetric neighbor list in flat CSR form.

    Row i is neighbors[offsets[i]:offsets[i+1]], sorted ascending, and
    i[p] is the row of entry p; pairs were within build_cutoff = r_cut +
    skin of each other at build time (positions snapshotted in
    reference_positions). topology is the Topology, the filtered pairs
    and their triples, of the last pack_adjacency call on this list.
    """

    offsets: np.ndarray
    neighbors: np.ndarray
    i: np.ndarray
    build_cutoff: float
    r_cut: float
    skin: float
    reference_positions: np.ndarray
    topology: "Topology | None" = field(default=None, init=False,
                                        repr=False)

    @property
    def natoms(self):
        return self.offsets.shape[0] - 1


def check_skin(skin):
    if not (math.isfinite(skin) and skin >= 0):
        raise ConfigurationError(f"skin must be finite and >= 0, got {skin!r}")


def check_box(box, build_cutoff):
    """Reject a periodic edge shorter than twice the build cutoff: the
    minimum image needs L >= 2 r so a pair meets at most one image."""
    for ax in range(3):
        if box.periodic[ax] and box.lengths[ax] < 2.0 * build_cutoff:
            raise ConfigurationError(
                f"periodic edge {box.lengths[ax]:g} A along axis {ax} is "
                f"shorter than twice the build cutoff "
                f"{build_cutoff:g} A; replicate the cell")


def build_neighbor_list(state, r_cut, skin=0.3):
    if not (math.isfinite(r_cut) and r_cut > 0):
        raise ConfigurationError(
            f"r_cut must be finite and > 0, got {r_cut!r}")
    check_skin(skin)
    pos = np.asarray(state.positions, dtype=np.float64)
    n = pos.shape[0]
    build_cutoff = float(r_cut) + float(skin)
    check_box(state.box, build_cutoff)
    cl = build_cell_list(state, build_cutoff)
    ci, cj = cl.pairs_within(pos, build_cutoff)
    # both directions, as the unique keys i * n + j: sorted, they give
    # rows ascending in i and ascending in j inside. The keys are unique,
    # so any sort gives these bytes; the default one would map another
    # 0.3 MiB of numpy's SIMD sort code into the process
    key = np.concatenate([ci * n + cj, cj * n + ci])
    key.sort(kind="stable")
    di, dj = np.divmod(key, n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(di, minlength=n), out=offsets[1:])
    return NeighborList(offsets, dj, di, build_cutoff, float(r_cut),
                        float(skin), pos.copy())


def _positions_for(state, nl):
    """state's positions; ConfigurationError unless nl has as many atoms."""
    pos = np.asarray(state.positions, dtype=np.float64)
    if pos.shape[0] != nl.natoms:
        raise ConfigurationError(
            f"neighbor list built for {nl.natoms} atoms, but the state has "
            f"{pos.shape[0]}")
    return pos


def needs_rebuild(state, nl):
    """True once any atom drifted more than skin/2 from its build snapshot.

    Strictly more: drift <= skin/2 per atom bounds pair approach by skin,
    so every pair now inside r_cut was inside build_cutoff at build time
    (and a fresh skin=0 list does not instantly demand a rebuild).
    """
    d = _positions_for(state, nl) - nl.reference_positions
    r2 = _norm2(_wrap(d, state.box))
    return bool(r2.max(initial=0.0) > (0.5 * nl.skin) ** 2)


# ======================================================================
# packing
# ======================================================================

@dataclass(eq=False)
class Topology:
    """The pairs of a neighbor list inside the cutoff, as a directed CSR,
    and their triples.

    keep marks the list entries it holds, and kept lists their indices,
    or is None when it holds them all. Pair p runs i[p] -> j[p]; rows
    keep the list's ascending-j order. The triples are built with the
    topology, in one vectorised pass, as int32 arrays:

    * trip (ntrip, 2): (pair, k-pair) in the CSR row order, pair by pair,
      k ascending, k != j. Row i's slot for k = j is the pair itself;
    * tfirst (npairs + 1,): pair p's triples are trip[tfirst[p]:tfirst[p+1]].
    """

    keep: np.ndarray
    kept: np.ndarray
    offsets: np.ndarray
    i: np.ndarray
    j: np.ndarray
    trip: np.ndarray = field(init=False, repr=False)
    tfirst: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        i32 = np.int32
        offsets, i, npairs = self.offsets, self.i, self.i.shape[0]
        n_i = np.diff(offsets).astype(i32).take(i)
        tfirst = np.zeros(npairs + 1, dtype=i32)
        np.cumsum(n_i - 1, out=tfirst[1:])  # each pair's triples: n_i - 1
        # pair p's n_i slots run over row i, the k = j slot among them:
        # slot block p starts at tfirst[p] + p, row i at offsets[i]
        shift = offsets.take(i) - tfirst[:-1] - np.arange(npairs)
        pair = np.repeat(np.arange(npairs, dtype=i32), n_i)
        kk = np.arange(pair.shape[0], dtype=i32) + np.repeat(
            shift.astype(i32), n_i)
        other = kk != pair
        trip = np.empty((int(tfirst[-1]), 2), dtype=i32)
        trip[:, 0], trip[:, 1] = pair[other], kk[other]
        self.trip, self.tfirst = trip, tfirst


@dataclass(frozen=True, eq=False)
class PackedAdjacency:
    """Skin-free directed adjacency at the current positions.

    The topology's CSR rows keep the neighbor list's ascending-j order;
    every entry satisfies r < r_cut now (not merely at neighbor-list build
    time). geom[p] = [dx, dy, dz, r] of pair p, the displacement pointing
    i -> j under the minimum image.
    """

    topology: Topology
    geom: np.ndarray

    @property
    def offsets(self):
        return self.topology.offsets

    @property
    def i(self):
        return self.topology.i

    @property
    def j(self):
        return self.topology.j

    @property
    def natoms(self):
        return self.offsets.shape[0] - 1

    @property
    def npairs(self):
        return self.j.shape[0]


def pack_adjacency(state, nl, r_cut=None):
    """Filter the skin-padded list to true-cutoff pairs at current positions.

    Displacements, distances and the keep mask r^2 < r_cut^2 come from the
    current positions on every call. The topology is derived again only
    when the keep mask differs from the one of the list's last pack.
    """
    if r_cut is None:
        r_cut = nl.r_cut
    if r_cut > nl.r_cut:
        raise ConfigurationError(
            f"cutoff {r_cut:g} A exceeds the {nl.r_cut:g} A the neighbor "
            f"list was built for")
    pos = _positions_for(state, nl)
    n = nl.natoms
    i_all, j_all = nl.i, nl.neighbors
    geom = np.empty((j_all.shape[0], 4))
    d = geom[:, :3]
    np.subtract(pos.take(j_all, axis=0), pos.take(i_all, axis=0), out=d)
    _wrap(d, state.box)
    r2 = _norm2(d)
    keep = r2 < r_cut * r_cut
    topo = nl.topology
    if topo is None or not np.array_equal(keep, topo.keep):
        if keep.all():
            topo = Topology(keep, None, nl.offsets, i_all, j_all)
        else:
            kept = np.flatnonzero(keep)
            i_k = i_all.take(kept)
            offsets = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(i_k, minlength=n), out=offsets[1:])
            topo = Topology(keep, kept, offsets, i_k, j_all.take(kept))
        object.__setattr__(nl, "topology", topo)  # frozen: a cache slot
    if topo.kept is not None:
        geom, r2 = geom.take(topo.kept, axis=0), r2.take(topo.kept)
    if r2.size and r2.min() < 1e-16:  # kernels divide by r
        at = int(np.argmin(r2))
        raise InputError(
            f"atoms {int(topo.i[at])} and {int(topo.j[at])} are "
            f"coincident (r = {math.sqrt(r2[at]):.3e} A)")
    np.sqrt(r2, out=geom[:, 3])
    return PackedAdjacency(topo, geom)
