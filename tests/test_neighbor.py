"""Neighbor list and packing against an independent all-pairs oracle."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from tersoffmd.errors import ConfigurationError, InputError
from tersoffmd import neighbor
from tersoffmd.kernels import _batches
from tersoffmd.neighbor import (
    build_cell_list, build_neighbor_list, needs_rebuild, pack_adjacency)
from tersoffmd.simd import Backend
from tersoffmd.system import gen_diamond, gen_nanotube

from helpers import Box, Frame, free_frame

R_C = 2.1  # carbon table cutoff


def brute_directed(pos, box, cutoff):
    """All directed (i, j) pairs with min-image distance < cutoff.

    Deliberately reimplements the wrap instead of importing it from the
    module under test.
    """
    d = pos[None, :, :] - pos[:, None, :]
    for ax in range(3):
        if box.periodic[ax]:
            edge = box.lengths[ax]
            d[..., ax] -= edge * np.round(d[..., ax] / edge)
    r2 = (d * d).sum(axis=-1)
    np.fill_diagonal(r2, np.inf)
    ii, jj = np.nonzero(r2 < cutoff * cutoff)
    return set(zip(ii.tolist(), jj.tolist()))


def brute_undirected(pos, box, cutoff):
    return {(i, j) for i, j in brute_directed(pos, box, cutoff) if i < j}


def random_frame(rng, n=200, edge=9.0, periodic=(True, True, True)):
    pos = rng.uniform(0, edge, (n, 3))
    return Frame(pos, Box((edge, edge, edge), periodic))


def brute_csr(pos, box, cutoff):
    """Full-list (offsets, neighbors) from the oracle, rows ascending."""
    pairs = sorted(brute_directed(pos, box, cutoff))
    ii = np.array([i for i, _ in pairs], dtype=np.int64)
    jj = np.array([j for _, j in pairs], dtype=np.int64)
    offsets = np.zeros(pos.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(ii, minlength=pos.shape[0]), out=offsets[1:])
    return offsets, jj


def assert_cell_pairs_exact(fr, cutoff):
    """Candidates are exactly the pairs in adjacent cells, none emitted
    twice, and the cutoff set equals the all-pairs oracle's."""
    cl = build_cell_list(fr, cutoff)
    ci, cj = cl.candidate_pairs()
    assert np.all(ci != cj)
    cand = set(zip(np.minimum(ci, cj).tolist(), np.maximum(ci, cj).tolist()))
    assert len(cand) == ci.shape[0]
    gap = np.abs(cl.cell_coords[:, None] - cl.cell_coords[None])
    for ax in range(3):
        if fr.box.periodic[ax]:
            wrapped = cl.ncells[ax] - gap[..., ax]
            gap[..., ax] = np.minimum(gap[..., ax], wrapped)
    ai, aj = np.nonzero(np.triu((gap <= 1).all(axis=-1), k=1))
    assert cand == set(zip(ai.tolist(), aj.tolist()))
    wi, wj = cl.pairs_within(fr.positions, cutoff)
    got = set(zip(wi.tolist(), wj.tolist()))
    assert len(got) == wi.shape[0]
    assert got == brute_undirected(fr.positions, fr.box, cutoff)
    return cl, cand


# ------------------------------------------------------------- cell list

def test_single_atom_occupies_one_cell():
    fr = free_frame([[1.0, 2.0, 3.0]])
    cl = build_cell_list(fr, 2.4)
    assert cl.occupied.shape[0] == 1
    ci, cj = cl.pairs_within(fr.positions, 2.4)
    assert ci.shape[0] == 0


def test_boundary_pair_across_adjacent_cells():
    bc = 2.4
    fr = free_frame([[0.0, 0, 0], [0.9 * bc, 0, 0], [1.85 * bc, 0, 0]])
    cl = build_cell_list(fr, bc)
    pairs = set(zip(*(a.tolist() for a in cl.pairs_within(fr.positions, bc))))
    assert (1, 2) in pairs  # distance 0.95*bc, cells 0 and 1


def test_periodic_wraparound_pair():
    fr = Frame([[5.0, 5.0, 0.1], [5.0, 5.0, 9.9]],
               Box((10, 10, 10), (False, False, True)))
    cl = build_cell_list(fr, 2.4)
    pairs = set(zip(*(a.tolist() for a in cl.pairs_within(fr.positions, 2.4))))
    assert pairs == {(0, 1)}


@pytest.mark.parametrize("periodic", [(True, True, True),
                                      (False, False, False),
                                      (False, False, True)],
                         ids=["ppp", "fff", "ffp"])
def test_cell_pairs_match_bruteforce(periodic):
    rng = np.random.default_rng(42)
    assert_cell_pairs_exact(random_frame(rng, 200, 9.0, periodic), 2.4)


@pytest.mark.parametrize("edges", [(3.0, 3.0, 3.0), (6.0, 6.0, 6.0),
                                   (8.0, 8.0, 8.0), (3.0, 6.0, 8.0)],
                         ids=["1x1x1", "2x2x2", "3x3x3", "1x2x3"])
def test_periodic_axes_with_one_to_three_cells(edges):
    # with at most 3 cells per periodic axis every cell neighbors every
    # other, so the +-1 shifts collapse and every pair is a candidate
    rng = np.random.default_rng(11)
    n = 40
    fr = Frame(rng.uniform(0, 1, (n, 3)) * edges,
               Box(edges, (True, True, True)))
    cl, cand = assert_cell_pairs_exact(fr, 2.4)
    assert cl.ncells.tolist() == [int(e / 2.4) for e in edges]
    assert len(cand) == n * (n - 1) // 2


@pytest.mark.parametrize("periodic", [(False, True, True),
                                      (True, False, True),
                                      (False, True, False),
                                      (False, False, False)],
                         ids=["fpp", "pfp", "fpf", "fff"])
@pytest.mark.parametrize("edge", [3.6, 7.5])
def test_mixed_boxes_with_empty_interior_cells(periodic, edge):
    # two slabs 12 A apart along x leave whole planes of cells empty;
    # along y and z the edge gives 1 or 3 periodic cells, 2 or 4 free ones
    rng = np.random.default_rng(12)
    slab = rng.uniform(0, edge, (60, 3))
    slab[:, 0] = rng.uniform(0, 3.0, 60)
    far = slab.copy()
    far[:, 0] += 12.0
    box = Box((20.0, edge, edge), periodic)
    fr = Frame(np.concatenate([slab, far]), box)
    cl, _ = assert_cell_pairs_exact(fr, 2.4)
    assert cl.occupied.shape[0] < np.prod(cl.ncells)


@pytest.mark.parametrize("periodic", [(True, True, True),
                                      (False, False, False)],
                         ids=["ppp", "fff"])
def test_no_atoms(periodic):
    fr = Frame(np.empty((0, 3)), Box((9.0, 9.0, 9.0), periodic))
    assert_cell_pairs_exact(fr, 2.4)
    nl = build_neighbor_list(fr, R_C, skin=0.3)
    assert nl.offsets.tolist() == [0]
    assert nl.neighbors.shape == (0,)


def test_all_atoms_in_one_cell():
    rng = np.random.default_rng(13)
    fr = free_frame(rng.uniform(0, 1.0, (12, 3)))
    cl, cand = assert_cell_pairs_exact(fr, 2.4)
    assert cl.occupied.shape[0] == 1
    assert len(cand) == 12 * 11 // 2


def test_sparse_free_grid_stays_cheap():
    # one far atom spreads the free-axis grid over ~7e10 cells; the pair
    # search must stay keyed on occupied cells, never a dense table
    fr = free_frame([[0.0, 0.0, 0.0], [1.4, 0.0, 0.0], [1e4, 1e4, 1e4]])
    assert np.prod(build_cell_list(fr, 2.4).ncells.astype(float)) > 1e10
    t0 = time.perf_counter()
    nl = build_neighbor_list(fr, R_C, skin=0.3)
    elapsed = time.perf_counter() - t0
    assert nl.offsets.tolist() == [0, 1, 2, 2]
    assert nl.neighbors.tolist() == [1, 0]
    assert elapsed < 0.5


def clustered_frame(rng, edges, periodic):
    """A dense cluster of 40 atoms in a 1 A cube beside 30 atoms spread
    over the box, one of them at the origin: the cluster fills one cell
    of every grid here, next to cells of a few atoms or none."""
    edges = np.asarray(edges, dtype=float)
    sparse = rng.uniform(0.0, 1.0, (30, 3)) * edges
    sparse[0] = 0.0
    cluster = rng.uniform(1.0, 2.0, (40, 3))
    pos = rng.permutation(np.concatenate([sparse, cluster]))
    return Frame(pos, Box(edges, periodic))


@pytest.mark.parametrize("edges,periodic,ncells", [
    ((20.0, 20.0, 20.0), (False, False, False), None),
    ((6.0, 6.0, 6.0), (True, True, True), [2, 2, 2]),
    ((8.0, 8.0, 8.0), (True, True, True), [3, 3, 3]),
    ((6.0, 20.0, 8.0), (True, False, True), None)],
    ids=["free", "ppp2", "ppp3", "pfp"])
@pytest.mark.parametrize("seed", [31, 32, 33])
def test_cell_pairs_exact_beside_a_dense_cluster(edges, periodic, ncells,
                                                 seed):
    """Cell pairs of very different sizes (nA != nB) expand into exactly
    the adjacent-cell pairs, and the list equals the oracle's CSR."""
    fr = clustered_frame(np.random.default_rng(seed), edges, periodic)
    cl, _ = assert_cell_pairs_exact(fr, 2.4)
    sizes = np.diff(cl.starts)
    assert sizes.max() >= 40 and sizes.min() < 10
    if ncells is not None:
        assert cl.ncells.tolist() == ncells
    nl = build_neighbor_list(fr, R_C, skin=0.3)
    offsets, neighbors = brute_csr(fr.positions, fr.box, nl.build_cutoff)
    assert nl.offsets.tobytes() == offsets.tobytes()
    assert nl.neighbors.tobytes() == neighbors.tobytes()


def test_far_apart_pairs_on_a_grid_whose_ids_wrap():
    """Two bonded pairs 1e7 A apart on all three free axes: the grid has
    more than 2^63 cells, so cell ids wrap modulo 2^64. Both pairs are
    still found; cell coordinates decoded from wrapped ids lose one."""
    fr = free_frame([[0.0, 0.0, 0.0], [1.4, 0.0, 0.0],
                     [1e7, 1e7, 1e7], [1e7 + 1.4, 1e7, 1e7]])
    cl, cand = assert_cell_pairs_exact(fr, 2.4)
    assert math.prod(int(nc) for nc in cl.ncells) > 2**63
    assert cand == {(0, 1), (2, 3)}
    nl = build_neighbor_list(fr, R_C, skin=0.3)
    offsets, neighbors = brute_csr(fr.positions, fr.box, nl.build_cutoff)
    assert nl.offsets.tobytes() == offsets.tobytes()
    assert nl.neighbors.tobytes() == neighbors.tobytes()
    assert nl.neighbors.tolist() == [1, 0, 3, 2]


@pytest.mark.parametrize("periodic", [(False, False, False),
                                      (True, False, False)],
                         ids=["free", "periodic"])
def test_grid_beyond_a_64_bit_cell_index_rejected(periodic):
    """An axis of more than 2^63 cells cannot be indexed: a
    ConfigurationError, not an OverflowError from numpy."""
    fr = Frame([[0.0, 0.0, 0.0], [1e20 - 1.0, 0.0, 0.0]],
               Box((1e20, 10.0, 10.0), periodic))
    with pytest.raises(ConfigurationError, match="64-bit cell index"):
        build_cell_list(fr, 2.4)
    with pytest.raises(ConfigurationError, match="64-bit cell index"):
        build_neighbor_list(fr, R_C, skin=0.3)


def test_degenerate_periodic_box_rejected():
    fr = Frame([[0.5, 0.5, 0.5]], Box((1.0, 10.0, 10.0), (True, False, False)))
    with pytest.raises(ConfigurationError, match="smaller than the cell size"):
        build_cell_list(fr, 2.4)


# --------------------------------------------------------- neighbor list

def test_neighbor_list_invariants_and_completeness():
    rng = np.random.default_rng(3)
    fr = random_frame(rng, 150, 9.0)
    nl = build_neighbor_list(fr, R_C, skin=0.3)
    assert nl.build_cutoff == pytest.approx(2.4)
    assert np.all(np.diff(nl.offsets) >= 0)
    got = set()
    for i in range(nl.natoms):
        row = nl.neighbors[nl.offsets[i]:nl.offsets[i + 1]]
        assert np.all(np.diff(row) > 0)  # ascending, so also no duplicates
        assert i not in row
        got.update((i, int(j)) for j in row)
    assert got == brute_directed(fr.positions, fr.box, nl.build_cutoff)
    assert all((j, i) in got for i, j in got)  # full symmetric list


@pytest.mark.parametrize("make", [lambda: gen_nanotube(5, 50),
                                  lambda: gen_diamond(2)],
                         ids=["tube1000", "diamond64"])
def test_neighbor_list_arrays_equal_oracle_csr(make):
    # pins the row order that strict W=1 bit identity and byte-identical
    # trajectories rely on, not just the pair set
    rng = np.random.default_rng(14)
    st = make()
    st.positions += rng.uniform(-0.05, 0.05, st.positions.shape)
    nl = build_neighbor_list(st, R_C, skin=0.3)
    offsets, neighbors = brute_csr(st.positions, st.box, nl.build_cutoff)
    assert np.array_equal(nl.offsets, offsets)
    assert np.array_equal(nl.neighbors, neighbors)


@pytest.mark.parametrize("make", [
    lambda: gen_nanotube(5, 50),
    lambda: random_frame(np.random.default_rng(15), 150, 9.0),
    lambda: free_frame([[0.0, 0.0, 0.0], [30.0, 0.0, 0.0]]),
    lambda: Frame(np.empty((0, 3)), Box((9.0, 9.0, 9.0), (True,) * 3))],
    ids=["tube1000", "random150", "loners", "empty"])
def test_row_index_is_the_repeat_of_the_offsets(make):
    """The list carries each entry's row; it is the repeat of the row
    numbers over the row lengths, byte for byte, and a pack that keeps
    every entry shares it."""
    fr = make()
    nl = build_neighbor_list(fr, R_C, skin=0.3)
    rows = np.repeat(np.arange(nl.natoms, dtype=np.int64),
                     np.diff(nl.offsets))
    assert nl.i.dtype == rows.dtype and nl.i.tobytes() == rows.tobytes()
    adj = pack_adjacency(fr, nl)
    if adj.topology.kept is None:
        assert adj.i is nl.i


def test_skin_zero_list_is_exactly_true_cutoff():
    rng = np.random.default_rng(4)
    fr = random_frame(rng, 100, 9.0)
    nl = build_neighbor_list(fr, R_C, skin=0.0)
    got = {(i, int(j)) for i in range(nl.natoms)
           for j in nl.neighbors[nl.offsets[i]:nl.offsets[i + 1]]}
    assert got == brute_directed(fr.positions, fr.box, R_C)


def test_negative_skin_rejected():
    fr = free_frame([[0, 0, 0], [1.5, 0, 0]])
    with pytest.raises(ConfigurationError, match="skin"):
        build_neighbor_list(fr, R_C, skin=-0.1)


@pytest.mark.parametrize("skin", [np.nan, np.inf])
def test_non_finite_skin_rejected(skin):
    fr = free_frame([[0, 0, 0], [1.5, 0, 0]])
    with pytest.raises(ConfigurationError, match="skin"):
        build_neighbor_list(fr, R_C, skin=skin)


@pytest.mark.parametrize("r_cut", [-1.0, 0.0, np.nan, np.inf])
def test_bad_cutoff_rejected(r_cut):
    """A negative cutoff would give an empty list, nan would fail in the
    cell grid and inf would pair every atom of a free box."""
    fr = free_frame([[0, 0, 0], [1.5, 0, 0]])
    with pytest.raises(ConfigurationError, match=f"r_cut .* got {r_cut!r}"):
        build_neighbor_list(fr, r_cut, skin=0.3)


def test_periodic_edge_below_twice_build_cutoff_rejected():
    # L < 2 (r_cut + skin) breaks minimum image: two images of the same
    # pair could both sit inside the cutoff
    box = Box([4.0, 9.0, 9.0], periodic=(True, True, True))
    fr = Frame(np.array([[0.5, 1.0, 1.0], [2.0, 1.0, 1.0]]), box)
    with pytest.raises(ConfigurationError, match="twice the build cutoff"):
        build_neighbor_list(fr, R_C, skin=0.3)
    # the same edge on a free axis is fine
    box2 = Box([4.0, 9.0, 9.0], periodic=(False, True, True))
    fr2 = Frame(fr.positions, box2)
    assert build_neighbor_list(fr2, R_C, skin=0.3).natoms == 2


def test_needs_rebuild_threshold():
    fr = free_frame([[0, 0, 0], [1.5, 0, 0], [3.0, 0, 0]])
    nl = build_neighbor_list(fr, R_C, skin=0.3)
    assert not needs_rebuild(fr, nl)
    fr.positions[1, 1] += 0.5 * 0.3 - 1e-9
    assert not needs_rebuild(fr, nl)
    fr.positions[1, 1] += 2e-9
    assert needs_rebuild(fr, nl)


def test_needs_rebuild_sees_through_periodic_wrap():
    fr = Frame([[0.2, 5, 5]], Box((10, 10, 10), (True, False, False)))
    nl = build_neighbor_list(fr, R_C, skin=0.3)
    fr.positions[0, 0] = 9.95  # crossed the boundary: true drift 0.25 A
    assert needs_rebuild(fr, nl)
    fr.positions[0, 0] = 0.15  # 0.05 A, below skin/2
    assert not needs_rebuild(fr, nl)


def _unchunked_filter(cl, positions, cutoff):
    """The distance filter over all candidates at once, as a plain
    min-image copy and a row sum of d * d."""
    ci, cj = cl.candidate_pairs()
    d = neighbor._wrap(positions[cj] - positions[ci], cl.box)
    keep = (d * d).sum(axis=1) < cutoff * cutoff
    ci, cj = ci[keep], cj[keep]
    swap = ci > cj
    ci[swap], cj[swap] = cj[swap], ci[swap]
    return ci, cj


@pytest.mark.parametrize("make", [
    lambda: gen_nanotube(5, 500),
    lambda: gen_diamond(6),
    lambda: random_frame(np.random.default_rng(21), 3000, 24.0)],
    ids=["tube10k", "diamond1728", "random3000"])
def test_chunked_distance_filter_equals_the_unchunked_one(make):
    """The filter runs _FILTER_CHUNK candidates at a time; over candidate
    sets of several chunks it keeps the bytes of one pass over all."""
    st = make()
    st.positions += np.random.default_rng(2).uniform(-0.03, 0.03,
                                                     st.positions.shape)
    cutoff = R_C + 0.3
    cl = build_cell_list(st, cutoff)
    assert cl.candidate_pairs()[0].shape[0] > neighbor._FILTER_CHUNK
    got = cl.pairs_within(st.positions, cutoff)
    want = _unchunked_filter(cl, st.positions, cutoff)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_neighbor_build_peak_memory_on_the_10k_tube():
    """The chunked filter holds one chunk's displacements, not a copy and
    a square of the whole 134k x 3 candidate block: the 10k-atom tube's
    build peaked at 10.2 MB with those, 5.2 MB without."""
    st = gen_nanotube(5, 500)
    tracemalloc.start()
    try:
        build_neighbor_list(st, R_C, skin=0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7e6


def test_row_norm_is_the_row_sum_bit_for_bit():
    """needs_rebuild, the filter and pack_adjacency take |d|^2 as a
    column sum; it has the bits of (d * d).sum(axis=1)."""
    d = np.random.default_rng(8).uniform(-6.0, 6.0, (200_000, 3))
    neighbor._wrap(d, Box((5.0, 7.0, 9.0), (True, False, True)))
    assert neighbor._norm2(d).tobytes() == (d * d).sum(axis=1).tobytes()


# ---------------------------------------------------------------- packing

def test_pack_refilters_to_current_positions():
    rng = np.random.default_rng(5)
    fr = random_frame(rng, 120, 9.0)
    nl = build_neighbor_list(fr, R_C, skin=0.3)
    # drift everything a little, below the rebuild threshold
    fr.positions += rng.uniform(-0.05, 0.05, fr.positions.shape)
    assert not needs_rebuild(fr, nl)
    adj = pack_adjacency(fr, nl)
    got = set(zip(adj.i.tolist(), adj.j.tolist()))
    assert got == brute_directed(fr.positions, fr.box, R_C)
    assert adj.geom.shape == (adj.npairs, 4)
    assert adj.geom[:, 3].max(initial=0.0) < R_C  # no skin leakage
    # displacements and distances are from the current positions
    want = fr.positions[adj.j] - fr.positions[adj.i]
    for ax in range(3):
        if fr.box.periodic[ax]:
            edge = fr.box.lengths[ax]
            want[:, ax] -= edge * np.round(want[:, ax] / edge)
    assert np.array_equal(adj.geom[:, :3], want)
    assert np.allclose(adj.geom[:, 3], np.linalg.norm(want, axis=1), rtol=0,
                       atol=0)


@pytest.mark.parametrize("mode", ["J", "I"])
@pytest.mark.parametrize("width", [1, 3, 8])
def test_pack_modes_enumerate_each_directed_pair_once(mode, width):
    rng = np.random.default_rng(6)
    fr = random_frame(rng, 60, 9.0)
    nl = build_neighbor_list(fr, R_C, skin=0.3)
    adj = pack_adjacency(fr, nl)
    if mode == "J":
        batches = list(_batches(adj.offsets, width))
    else:
        batches = list(_batches([0, adj.npairs], width))
    seen = []
    bk = Backend("emulated", width)
    ij = np.stack([adj.i, adj.j], axis=1)
    for a, b in batches:
        assert type(a) is int and type(b) is int
        assert 0 < b - a <= width
        # lanes loaded as the lane kernel loads them
        i_idx, j_idx = bk.load(ij, a, b)
        r = bk.load(adj.geom, a, b)[3]
        assert i_idx.shape == j_idx.shape == r.shape == (b - a,)
        assert np.all(r < R_C)
        seen += list(zip(i_idx.tolist(), j_idx.tolist()))
    assert len(seen) == len(set(seen))  # exactly once each
    assert set(seen) == brute_directed(fr.positions, fr.box, R_C)
    if mode == "J":
        first_i = []
        for a, b in batches:
            ii = adj.i[a:b]
            assert np.all(ii == ii[0])  # one i per batch
            first_i.append(ii[0])
        assert first_i == sorted(first_i)  # rows in ascending i


def test_pack_mode_j_batch_shapes():
    # star: center atom 0 with three bonded neighbors, plus a far loner
    fr = free_frame([[0, 0, 0], [1.45, 0, 0], [0, 1.45, 0], [0, 0, 1.45],
                     [30.0, 30.0, 30.0]])
    nl = build_neighbor_list(fr, R_C, skin=0.3)
    adj = pack_adjacency(fr, nl)
    batches = list(_batches(adj.offsets, 8))
    # one batch per non-empty row: the loner's empty row yields none
    assert [int(adj.i[a]) for a, _ in batches] == [0, 1, 2, 3]
    # 3 neighbors fit one width-8 batch of 3 lanes, not padded out to 8
    assert batches[0] == (0, 3)
    assert adj.i[0:3].tolist() == [0, 0, 0]
    assert sorted(adj.j[0:3].tolist()) == [1, 2, 3]
    # a width-2 repack needs ceil(3/2) batches per 3-neighbor row
    assert adj.offsets.tolist() == [0, 3, 6, 9, 12, 12]
    assert list(_batches(adj.offsets, 2)) == [
        (0, 2), (2, 3), (3, 5), (5, 6), (6, 8), (8, 9), (9, 11), (11, 12)]


def test_pack_mode_i_is_ascending_and_dense():
    rng = np.random.default_rng(7)
    fr = random_frame(rng, 40, 9.0)
    nl = build_neighbor_list(fr, R_C, skin=0.3)
    adj = pack_adjacency(fr, nl)
    batches = list(_batches([0, adj.npairs], 4))
    i_seq = np.concatenate([adj.i[a:b] for a, b in batches])
    j_seq = np.concatenate([adj.j[a:b] for a, b in batches])
    # every CSR entry once, in row order: (i, j) follow the adjacency
    csr_i = np.repeat(np.arange(adj.natoms), np.diff(adj.offsets))
    assert np.array_equal(i_seq, csr_i)
    assert np.array_equal(j_seq, adj.j)
    assert np.all(np.diff(i_seq) >= 0)  # ascending i across the flat order
    # only the final batch may be short
    assert all(b - a == 4 for a, b in batches[:-1])
    assert 0 < batches[-1][1] - batches[-1][0] <= 4


def _packed_bytes(adj):
    return tuple(a.tobytes() for a in (adj.offsets, adj.i, adj.j, adj.geom))


def test_topology_reused_while_no_pair_crosses_the_cutoff():
    """Steps that leave every pair on its side of r_cut reuse the list's
    topology; the geometry is recomputed, and the pack is byte for byte a
    fresh list's pack."""
    fr = gen_nanotube(5, 10)
    rng = np.random.default_rng(2)
    nl = build_neighbor_list(fr, R_C, skin=0.3)
    topo = pack_adjacency(fr, nl).topology
    for _ in range(4):
        fr.positions += rng.uniform(-0.01, 0.01, fr.positions.shape)
        assert not needs_rebuild(fr, nl)
        adj = pack_adjacency(fr, nl)
        assert adj.topology is topo
        fresh = pack_adjacency(fr, build_neighbor_list(fr, R_C, skin=0.3))
        assert _packed_bytes(adj) == _packed_bytes(fresh)


def crossing_trio():
    """Bond 0-1 at 1.45 A; 0-2 at 2.04 A, 0.06 A inside r_cut."""
    return free_frame([[0.0, 0.0, 0.0], [1.45, 0.0, 0.0], [-0.5, 1.98, 0.0]])


def test_pair_crossing_the_cutoff_derives_the_topology_again():
    """An atom that carries a pair across r_cut without a rebuild changes
    the keep mask: the topology is derived again, equal to a fresh pack,
    on the way out and back in."""
    fr = crossing_trio()
    nl = build_neighbor_list(fr, R_C, skin=0.3)
    packs = [pack_adjacency(fr, nl)]
    for dy in (0.1, -0.1):  # r02 2.04 -> 2.14 A -> back, inside the skin
        fr.positions[2, 1] += dy
        assert not needs_rebuild(fr, nl)
        packs.append(pack_adjacency(fr, nl))
        fresh = pack_adjacency(fr, build_neighbor_list(fr, R_C, skin=0.3))
        assert _packed_bytes(packs[-1]) == _packed_bytes(fresh)
    assert [adj.npairs for adj in packs] == [4, 2, 4]
    assert len({id(adj.topology) for adj in packs}) == 3


def test_coincident_atoms_on_a_reused_topology_rejected():
    """The coincident-atom check runs on every pack, also when the keep
    mask, and so the topology, is unchanged."""
    fr = free_frame([[0.0, 0.0, 0.0], [1.5, 0.0, 0.0]])
    nl = build_neighbor_list(fr, R_C, skin=0.3)
    topo = pack_adjacency(fr, nl).topology
    fr.positions[1] = [1e-9, 0.0, 0.0]
    with pytest.raises(InputError, match="atoms 0 and 1 are coincident"):
        pack_adjacency(fr, nl)
    assert nl.topology is topo


def _mask_pack(fr, nl):
    """The pack compacted by boolean masks over the whole list: the
    reference for the kept-index compaction."""
    pos = fr.positions
    i_all = np.repeat(np.arange(nl.natoms), np.diff(nl.offsets))
    geom = np.empty((nl.neighbors.shape[0], 4))
    np.subtract(pos[nl.neighbors], pos[i_all], out=geom[:, :3])
    neighbor._wrap(geom[:, :3], fr.box)
    r2 = neighbor._norm2(geom)
    keep = r2 < R_C * R_C
    geom, i = geom[keep], i_all[keep]
    geom[:, 3] = np.sqrt(r2[keep])
    offsets = np.zeros(nl.natoms + 1, dtype=np.int64)
    offsets[1:] = np.cumsum(np.bincount(i, minlength=nl.natoms))
    return tuple(a.tobytes() for a in (offsets, i, nl.neighbors[keep], geom))


def test_kept_index_compaction_matches_a_boolean_mask():
    """A jittered periodic lattice whose skin list holds pairs beyond
    r_cut: the first pack, packs on the reused topology and a pack after
    the topology was derived again all equal the boolean-mask reference
    byte for byte, and a coincident pair is named by its atoms, not by
    its slot in the list."""
    fr = gen_diamond(3)
    rng = np.random.default_rng(4)
    fr.positions += rng.uniform(-0.03, 0.03, fr.positions.shape)
    nl = build_neighbor_list(fr, R_C, skin=0.5)  # second shell at 2.52 A
    adj = pack_adjacency(fr, nl)
    assert adj.npairs < nl.neighbors.shape[0]
    assert _packed_bytes(adj) == _mask_pack(fr, nl)
    topo = adj.topology
    assert np.array_equal(topo.kept, np.flatnonzero(topo.keep))
    for _ in range(2):
        fr.positions += rng.uniform(-1e-3, 1e-3, fr.positions.shape)
        adj = pack_adjacency(fr, nl)
        assert adj.topology is topo
        assert _packed_bytes(adj) == _mask_pack(fr, nl)
    # (i, j) with i < j is the first of the two coincident pairs; the
    # dropped entries before it give it another slot in the list
    i = next(i for i in range(nl.natoms // 2, nl.natoms)
             if adj.j[adj.offsets[i + 1] - 1] > i)
    j = int(adj.j[adj.offsets[i + 1] - 1])
    assert nl.offsets[i] + np.searchsorted(
        nl.neighbors[nl.offsets[i]:nl.offsets[i + 1]], j) \
        != adj.offsets[i + 1] - 1
    fr.positions[j] = fr.positions[i] + [1e-9, 0.0, 0.0]
    for lst in (nl, build_neighbor_list(fr, R_C, skin=0.5)):
        with pytest.raises(InputError,
                           match=f"atoms {i} and {j} are coincident"):
            pack_adjacency(fr, lst)
    fr.positions[j] += [0.0, 0.0, 0.2]  # 0.2 A apart: a pack again
    adj = pack_adjacency(fr, nl)
    assert adj.topology is not topo
    assert _packed_bytes(adj) == _mask_pack(fr, nl)


def test_pack_cutoff_wider_than_list_rejected():
    fr = free_frame([[0, 0, 0], [1.5, 0, 0]])
    nl = build_neighbor_list(fr, R_C, skin=0.3)
    with pytest.raises(ConfigurationError, match="exceeds"):
        pack_adjacency(fr, nl, r_cut=R_C + 0.2)


def test_rebuild_safety_along_random_walk():
    """Whenever needs_rebuild says False, packing still yields the exact
    within-cutoff pair set (the skin/2 guarantee, end to end)."""
    rng = np.random.default_rng(8)
    fr = random_frame(rng, 80, 9.0)
    nl = build_neighbor_list(fr, R_C, skin=0.3)
    rebuilds = 0
    for step in range(120):
        fr.positions += rng.uniform(-0.03, 0.03, fr.positions.shape)
        if needs_rebuild(fr, nl):
            nl = build_neighbor_list(fr, R_C, skin=0.3)
            rebuilds += 1
        adj = pack_adjacency(fr, nl)
        got = set(zip(adj.i.tolist(), adj.j.tolist()))
        assert got == brute_directed(fr.positions, fr.box, R_C), step
    assert rebuilds > 2  # the walk must actually cross the threshold
