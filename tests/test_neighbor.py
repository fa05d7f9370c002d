"""Neighbor list and packing against an independent all-pairs oracle."""

import time

import numpy as np
import pytest

from tersoffmd.errors import ConfigurationError
from tersoffmd.neighbor import (
    build_cell_list, build_neighbor_list, needs_rebuild, pack_adjacency)
from tersoffmd.simd import make_backend
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
        batches = list(adj.batches_j(width))
    else:
        batches = list(adj.batches_i(width))
    seen = []
    bk = make_backend("emulated", width)
    ij = np.stack([adj.i, adj.j], axis=1)
    for slot, act in batches:
        assert slot.shape == act.shape == (width,)
        assert slot.dtype == np.int64 and act.dtype == bool
        assert np.all(slot[~act] == -1)
        # lanes loaded as the lane kernel loads them
        i_idx, j_idx = bk.gather(ij, slot, act, fill=-1)
        r = bk.gather(adj.geom, slot, act, fill=1.0)[3]
        assert np.all(i_idx[~act] == -1)
        assert np.all(j_idx[~act] == -1)
        assert np.all(r[~act] == 1.0)
        assert np.all(r[act] < R_C)
        seen += list(zip(i_idx[act].tolist(), j_idx[act].tolist()))
    assert len(seen) == len(set(seen))  # exactly once each
    assert set(seen) == brute_directed(fr.positions, fr.box, R_C)
    if mode == "J":
        first_i = []
        for slot, act in batches:
            ii = adj.i[slot[act]]
            assert np.all(ii == ii[0])  # one i per batch
            first_i.append(ii[0])
        assert first_i == sorted(first_i)  # rows in ascending i


def test_pack_mode_j_batch_shapes():
    # star: center atom 0 with three bonded neighbors, plus a far loner
    fr = free_frame([[0, 0, 0], [1.45, 0, 0], [0, 1.45, 0], [0, 0, 1.45],
                     [30.0, 30.0, 30.0]])
    nl = build_neighbor_list(fr, R_C, skin=0.3)
    adj = pack_adjacency(fr, nl)
    batches = list(adj.batches_j(8))
    # one batch per non-empty row: the loner's empty row yields none
    assert [int(adj.i[slot[0]]) for slot, _ in batches] == [0, 1, 2, 3]
    slot, mask = batches[0]  # 3 neighbors fit one width-8 batch
    assert np.count_nonzero(mask) == 3
    assert slot.tolist() == [0, 1, 2, -1, -1, -1, -1, -1]
    assert adj.i[slot[mask]].tolist() == [0, 0, 0]
    assert sorted(adj.j[slot[:3]].tolist()) == [1, 2, 3]
    # a width-2 repack needs ceil(3/2) batches per 3-neighbor row
    assert [int(adj.i[slot[0]]) for slot, _ in adj.batches_j(2)] == \
        [0, 0, 1, 1, 2, 2, 3, 3]


def test_pack_mode_i_is_ascending_and_dense():
    rng = np.random.default_rng(7)
    fr = random_frame(rng, 40, 9.0)
    nl = build_neighbor_list(fr, R_C, skin=0.3)
    adj = pack_adjacency(fr, nl)
    batches = list(adj.batches_i(4))
    i_seq = np.concatenate([adj.i[slot[mask]] for slot, mask in batches])
    j_seq = np.concatenate([adj.j[slot[mask]] for slot, mask in batches])
    # every CSR entry once, in row order: (i, j) follow the adjacency
    csr_i = np.repeat(np.arange(adj.natoms), np.diff(adj.offsets))
    assert np.array_equal(i_seq, csr_i)
    assert np.array_equal(j_seq, adj.j)
    assert np.all(np.diff(i_seq) >= 0)  # ascending i across the flat order
    # only the final batch may be partial
    assert all(np.count_nonzero(mask) == 4 for _, mask in batches[:-1])


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
