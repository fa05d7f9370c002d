"""Cell-list neighbor machinery and the lane-packing step.

Three layers:

* ``build_cell_list`` / ``build_neighbor_list``: spatial binning at
  build_cutoff = r_C + skin, producing a full (symmetric) flat-CSR
  NeighborList whose rows are sorted ascending by neighbor index. The
  pair search makes one array pass over all atoms per stencil shift (at
  most 27) and looks cells up among the occupied ones only, so its cost
  follows the atom count, not the size of a sparse free-boundary grid.
* ``needs_rebuild``: the skin/2 displacement trigger. While it reports
  False, every pair inside r_C is guaranteed present in the list.
* ``pack_adjacency``: re-filter the (stale, padded with skin) list
  against the true cutoff at the *current* positions; its batch
  generators emit lane batches for the vector kernels. Mode J fills the
  lanes of one batch with the neighbors of a single i; mode I fills them
  with consecutive (i, j) pairs across atoms. Padding lanes carry index -1,
  distance 1.0 and a False mask bit.

Boxes are orthorhombic with per-axis periodic flags; displacements use the
minimum image on periodic axes. Anything with ``positions`` (N,3 float64),
``box.lengths`` and ``box.periodic`` can be packed.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InputError
from .simd import Lanes, Mask


def min_image(disp, box):
    """Wrap displacement vectors (..., 3) to the nearest periodic image."""
    disp = np.array(disp, dtype=np.float64, copy=True)
    for ax in range(3):
        if box.periodic[ax]:
            edge = box.lengths[ax]
            disp[..., ax] -= edge * np.round(disp[..., ax] / edge)
    return disp


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
                ncells[ax] = max(int(edge / cell_size), 1)
                origin[ax] = 0.0
                width[ax] = edge / ncells[ax]
            else:
                lo = float(pos[:, ax].min()) if n else 0.0
                hi = float(pos[:, ax].max()) if n else 0.0
                origin[ax] = lo
                ncells[ax] = max(int((hi - lo) / cell_size) + 1, 1)
                width[ax] = cell_size
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
        self.cell_ids = (cxyz[:, 0] * ncells[1] + cxyz[:, 1]) * ncells[2] \
            + cxyz[:, 2]
        # CSR of atoms grouped by cell, atom order preserved inside a cell
        self.order = np.argsort(self.cell_ids, kind="stable")
        sorted_ids = self.cell_ids[self.order]
        self.occupied, starts = np.unique(sorted_ids, return_index=True)
        self.starts = np.append(starts, n)

    def candidate_pairs(self):
        """Each unordered candidate pair once, as (ci, cj) index arrays.

        Purely adjacency-based; callers apply the distance filter. One
        pass per stencil shift expands every atom's neighbor cell at
        once. Shifts are deduplicated per axis (a periodic axis with two
        cells has offsets {0, 1}, with one cell {0}), so wraparound never
        visits a cell twice; a cell pair is emitted from its lower id, and
        inside one cell only j > i is kept.
        """
        ncells = self.ncells
        periodic = np.asarray(self.box.periodic, dtype=bool)
        sizes = np.diff(self.starts)
        offsets = [sorted({d % int(nc) for d in (-1, 0, 1)}) if wrap
                   else [d for d in (-1, 0, 1) if abs(d) < nc]
                   for wrap, nc in zip(periodic, ncells)]
        out_i, out_j = [], []
        for shift in itertools.product(*offsets):
            q = self.cell_coords + shift
            q[:, periodic] %= ncells[periodic]
            nid = (q[:, 0] * ncells[1] + q[:, 1]) * ncells[2] + q[:, 2]
            own_cell = not any(shift)
            keep = ((q >= 0) & (q < ncells)).all(axis=1)
            if not own_cell:
                keep &= nid > self.cell_ids
            src, nid = np.flatnonzero(keep), nid[keep]
            slot = np.searchsorted(self.occupied, nid)
            hit = self.occupied.take(slot, mode="clip") == nid
            src, slot = src[hit], slot[hit]
            count = sizes[slot]
            ci = np.repeat(src, count)
            # CSR expansion: slot s contributes order[starts[s]:starts[s+1]]
            first = np.repeat(self.starts[slot] - np.cumsum(count) + count,
                              count)
            cj = self.order[first + np.arange(ci.shape[0])]
            if own_cell:
                upper = cj > ci
                ci, cj = ci[upper], cj[upper]
            out_i.append(ci)
            out_j.append(cj)
        return np.concatenate(out_i), np.concatenate(out_j)

    def pairs_within(self, positions, cutoff):
        """Undirected pairs (i < j) with min-image distance < cutoff."""
        ci, cj = self.candidate_pairs()
        if ci.shape[0] == 0:
            return ci, cj
        d = min_image(positions[cj] - positions[ci], self.box)
        keep = (d * d).sum(axis=1) < cutoff * cutoff
        ci, cj = ci[keep], cj[keep]
        swap = ci > cj
        ci[swap], cj[swap] = cj[swap], ci[swap]
        return ci, cj


def build_cell_list(state, cell_size):
    return CellList(state, cell_size)


@dataclass(frozen=True, eq=False)
class NeighborList:
    """Full symmetric neighbor list in flat CSR form.

    Row i is neighbors[offsets[i]:offsets[i+1]], sorted ascending; pairs
    were within build_cutoff = r_cut + skin of each other at build time
    (positions snapshotted in reference_positions).
    """

    offsets: np.ndarray
    neighbors: np.ndarray
    build_cutoff: float
    r_cut: float
    skin: float
    reference_positions: np.ndarray

    @property
    def natoms(self):
        return self.offsets.shape[0] - 1

    def row(self, i):
        return self.neighbors[self.offsets[i]:self.offsets[i + 1]]


def build_neighbor_list(state, r_cut, skin=0.3):
    if skin < 0:
        raise ConfigurationError(f"negative skin {skin:g}")
    pos = np.asarray(state.positions, dtype=np.float64)
    n = pos.shape[0]
    build_cutoff = float(r_cut) + float(skin)
    lengths = np.asarray(state.box.lengths, dtype=np.float64)
    for ax in range(3):
        # minimum image needs L >= 2 r so a pair meets at most one image
        if state.box.periodic[ax] and lengths[ax] < 2.0 * build_cutoff:
            raise ConfigurationError(
                f"periodic edge {lengths[ax]:g} A along axis {ax} is "
                f"shorter than twice the build cutoff "
                f"{build_cutoff:g} A; replicate the cell")
    cl = build_cell_list(state, build_cutoff)
    ci, cj = cl.pairs_within(pos, build_cutoff)
    di = np.concatenate([ci, cj])  # both directions: full list
    dj = np.concatenate([cj, ci])
    order = np.lexsort((dj, di))  # rows ascending i, ascending j inside
    di, dj = di[order], dj[order]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(di, minlength=n), out=offsets[1:])
    return NeighborList(offsets, dj, build_cutoff, float(r_cut), float(skin),
                        pos.copy())


def needs_rebuild(state, nl):
    """True once any atom drifted more than skin/2 from its build snapshot.

    Strictly more: drift <= skin/2 per atom bounds pair approach by skin,
    so every pair now inside r_cut was inside build_cutoff at build time
    (and a fresh skin=0 list does not instantly demand a rebuild).
    """
    d = min_image(np.asarray(state.positions, dtype=np.float64)
                  - nl.reference_positions, state.box)
    return bool((d * d).sum(axis=1).max(initial=0.0) > (0.5 * nl.skin) ** 2)


# ======================================================================
# packing
# ======================================================================

@dataclass(frozen=True, eq=False)
class PackedNeighbors:
    """One lane batch of directed (i, j) pairs for the vector kernels.

    Padding lanes: indices -1, zero displacement, r = 1.0 (safe divisor),
    mask bit False.
    """

    i_idx: Lanes
    j_idx: Lanes
    dx: Lanes
    dy: Lanes
    dz: Lanes
    r: Lanes
    mask: Mask

    @property
    def width(self):
        return self.r.width


@dataclass(frozen=True, eq=False)
class PackedAdjacency:
    """Skin-free directed adjacency at the current positions.

    CSR rows keep the neighbor list's ascending-j order; every entry
    satisfies r < r_cut now (not merely at neighbor-list build time).
    Displacements point i -> j with the minimum image applied.
    """

    offsets: np.ndarray
    i: np.ndarray
    j: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    dz: np.ndarray
    r: np.ndarray
    r_cut: float

    @property
    def natoms(self):
        return self.offsets.shape[0] - 1

    @property
    def npairs(self):
        return self.j.shape[0]

    def row_bounds(self, i):
        return int(self.offsets[i]), int(self.offsets[i + 1])

    # ---- batch generators ----------------------------------------------

    def batches_j(self, i, width):
        """Mode J: the batches of atom i, lanes = its packed neighbors."""
        begin, end = self.row_bounds(i)
        for s in range(begin, end, width):
            e = min(s + width, end)
            yield self._make_batch(np.arange(s, e), width)

    def batches_i(self, width):
        """Mode I: lanes = consecutive packed pairs across all atoms."""
        for s in range(0, self.npairs, width):
            e = min(s + width, self.npairs)
            yield self._make_batch(np.arange(s, e), width)

    def _make_batch(self, rows, width):
        nact = rows.shape[0]
        pad = width - nact

        def ints(vals):
            return Lanes(np.concatenate(
                [vals, np.full(pad, -1, dtype=np.int64)]) if pad
                else vals.astype(np.int64, copy=True))

        def reals(vals, fill):
            return Lanes(np.concatenate(
                [vals, np.full(pad, fill, dtype=np.float64)]) if pad
                else vals.copy())

        mask = np.zeros(width, dtype=bool)
        mask[:nact] = True
        return PackedNeighbors(
            i_idx=ints(self.i[rows]), j_idx=ints(self.j[rows]),
            dx=reals(self.dx[rows], 0.0), dy=reals(self.dy[rows], 0.0),
            dz=reals(self.dz[rows], 0.0), r=reals(self.r[rows], 1.0),
            mask=Mask(mask))


def pack_adjacency(state, nl, r_cut=None):
    """Filter the skin-padded list to true-cutoff pairs at current positions."""
    if r_cut is None:
        r_cut = nl.r_cut
    if r_cut > nl.r_cut:
        raise ConfigurationError(
            f"cutoff {r_cut:g} A exceeds the {nl.r_cut:g} A the neighbor "
            f"list was built for")
    pos = np.asarray(state.positions, dtype=np.float64)
    n = nl.natoms
    i_all = np.repeat(np.arange(n, dtype=np.int64), np.diff(nl.offsets))
    j_all = nl.neighbors
    d = min_image(pos[j_all] - pos[i_all], state.box)
    r2 = (d * d).sum(axis=1)
    keep = r2 < r_cut * r_cut
    i_k, j_k, d_k = i_all[keep], j_all[keep], d[keep]
    if i_k.size:
        r2min = r2[keep].min()
        if r2min < 1e-16:  # kernels divide by r
            at = int(np.argmin(r2[keep]))
            raise InputError(
                f"atoms {int(i_k[at])} and {int(j_k[at])} are coincident "
                f"(r = {math.sqrt(r2min):.3e} A)")
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(i_k, minlength=n), out=offsets[1:])
    return PackedAdjacency(
        offsets=offsets, i=i_k, j=j_k,
        dx=np.ascontiguousarray(d_k[:, 0]),
        dy=np.ascontiguousarray(d_k[:, 1]),
        dz=np.ascontiguousarray(d_k[:, 2]),
        r=np.sqrt(r2[keep]), r_cut=float(r_cut))

