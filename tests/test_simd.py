"""Lane-layer tests: every backend/width against a per-lane scalar oracle.

Lane values are numpy arrays of shape (W,); masks are bool arrays.
"""

import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest

import tersoffmd
from tersoffmd.simd import Backend, EMULATED_WIDTHS

from helpers import real_lanes

RNG = np.random.default_rng(20260816)


def bits_equal(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def random_lanes(bk, lo=-3.0, hi=3.0, rng=RNG):
    return real_lanes(bk, rng.uniform(lo, hi, bk.width))


# ---------------------------------------------------------------- arithmetic

@pytest.mark.parametrize("width", EMULATED_WIDTHS)
def test_lane_arithmetic_matches_per_lane_python(width):
    """+ - * / on W lanes must be bit-identical to W scalar computations."""
    bk = Backend("emulated", width)
    a = random_lanes(bk)
    b = random_lanes(bk, 0.5, 4.0)
    cases = {
        "add": (a + b, [x + y for x, y in zip(a.tolist(), b.tolist())]),
        "sub": (a - b, [x - y for x, y in zip(a.tolist(), b.tolist())]),
        "mul": (a * b, [x * y for x, y in zip(a.tolist(), b.tolist())]),
        "div": (a / b, [x / y for x, y in zip(a.tolist(), b.tolist())]),
        "rsub": (1.0 - a, [1.0 - x for x in a.tolist()]),
        "rdiv": (1.0 / b, [1.0 / y for y in b.tolist()]),
        "neg": (-a, [-x for x in a.tolist()]),
    }
    for name, (got, want) in cases.items():
        assert bits_equal(got, np.array(want)), name


@pytest.mark.parametrize("width", EMULATED_WIDTHS)
def test_compare_minmax_blend(width):
    bk = Backend("emulated", width)
    a = random_lanes(bk)
    b = random_lanes(bk)
    lt = a < b
    assert lt.tolist() == [x < y for x, y in zip(a.tolist(), b.tolist())]
    assert (a <= a).all()
    assert not (a != a).any()
    mn = np.minimum(a, b)
    mx = np.maximum(a, b)
    assert mn.tolist() == [min(x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert mx.tolist() == [max(x, y) for x, y in zip(a.tolist(), b.tolist())]
    sel = np.where(lt, a, b)
    assert sel.tolist() == [x if x < y else y
                            for x, y in zip(a.tolist(), b.tolist())]
    # blend against a scalar alternative
    z = np.where(lt, a, 0.0)
    assert z.tolist() == [x if x < y else 0.0
                          for x, y in zip(a.tolist(), b.tolist())]


def _ascending_sum(values):
    acc = 0.0
    for x in values:
        acc += x
    return acc


def test_reduce_sum_is_ascending_lane_order():
    # ordering-sensitive values: ascending gives 1.0, other groupings differ
    cases = [[1e16, 1.0, -1e16, 1.0], [-0.0] * 4,
             RNG.uniform(-1, 1, 1024).tolist()]
    for name, width in (("scalar", 1), ("emulated", 4), ("native", 4),
                        ("native", 1024)):
        bk = Backend(name, width)
        for values in cases:
            v = real_lanes(bk, np.resize(values, width))
            want = _ascending_sum(v.tolist())
            got = bk.reduce_sum(v)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
        if width == 4:
            assert bk.reduce_sum(real_lanes(bk, cases[0])) == 1.0
        assert math.copysign(1.0, bk.reduce_sum(real_lanes(bk, -0.0))) == 1.0
        single = Backend(name, width, precision="single")
        v = real_lanes(single, RNG.uniform(-1e4, 1e4, width))
        assert v.dtype == np.float32
        # float32 lanes are summed in double, as the scalar loop does
        assert single.reduce_sum(v) == _ascending_sum(v.tolist())


@pytest.mark.parametrize("width", [1, 4, 16])
def test_reduce_sum_folds_batches_into_one_running_sum(width):
    """Batch after batch from the last total adds every lane in one
    sequence, so the total does not depend on the width."""
    values = [1e16, 1.0, -1e16, 1.0] + RNG.uniform(-1, 1, 37).tolist()
    bk = Backend("emulated", width)
    total = 0.0
    for s in range(0, len(values), width):
        total = bk.reduce_sum(real_lanes(bk, values[s:s + width]), total)
    assert np.float64(total).tobytes() == \
        np.float64(_ascending_sum(values)).tobytes()


# ---------------------------------------------------------------- memory ops

@pytest.mark.parametrize("width", EMULATED_WIDTHS)
def test_masked_gather_and_padding(width):
    bk = Backend("emulated", width)
    base = RNG.uniform(-5, 5, 40)
    idx_vals = RNG.integers(0, 40, width)
    idx_vals[::2] = -1  # padding lanes
    out = bk.gather(base, idx_vals, idx_vals >= 0, fill=7.5)
    assert out.shape == (width,)
    for lane in range(width):
        if idx_vals[lane] >= 0:
            assert out[lane] == base[idx_vals[lane]]
        else:
            assert out[lane] == 7.5  # padding untouched by memory


def test_gather_counts_are_instrumented():
    bk = Backend("emulated", 4)
    base = np.arange(10.0)
    before = bk.gather_count
    idx, mask = np.array([1, 2, 3, 4]), np.ones(4, dtype=bool)
    bk.gather(base, idx, mask)
    bk.gather(base, idx, mask)
    assert bk.gather_count - before == 2


def test_gather_out_of_bounds_active_lane_is_checked():
    bk = Backend("emulated", 2)
    base = np.arange(4.0)
    mask = np.ones(2, dtype=bool)
    with pytest.raises(IndexError):
        bk.gather(base, np.array([1, 9]), mask)
    with pytest.raises(IndexError):
        bk.gather(base, np.array([-1, 2]), mask)  # -1 must be masked


@pytest.mark.parametrize("name", ["emulated", "native"])
def test_scatter_out_of_bounds_active_lane_is_checked(name):
    bk = Backend(name, 2)
    dest = np.zeros(4)
    for bad in ([1, 4], [-1, 2]):
        with pytest.raises(IndexError):
            bk.scatter_add(dest, np.array(bad), real_lanes(bk, [1.0, 1.0]),
                           np.ones(2, dtype=bool))
    assert not dest.any()  # nothing written before the check
    # a (3, n) block is checked against n, once for all three rows
    block = np.zeros((3, 4))
    with pytest.raises(IndexError):
        bk.scatter_add(block, np.array([3, 4]), np.ones((3, 2)),
                       np.ones(2, dtype=bool))
    assert not block.any()


def test_bounds_checks_survive_python_O():
    """The checks are real raises, not asserts that -O strips."""
    script = (
        "import numpy as np\n"
        "from tersoffmd.simd import Backend\n"
        "bk = Backend('emulated', 2)\n"
        # numpy itself would wrap -1 to the last element
        "idx, m = np.array([0, -1]), np.ones(2, dtype=bool)\n"
        "calls = [lambda: bk.gather(np.zeros(3), idx, m),\n"
        "         lambda: bk.gather(np.zeros((3, 2)), idx, m),\n"
        "         lambda: bk.scatter_add(np.zeros(3), idx, np.ones(2), m)]\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except IndexError:\n"
        "        continue\n"
        "    raise SystemExit('no IndexError')\n"
    )
    src = os.path.dirname(os.path.dirname(tersoffmd.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr


def test_record_gather_matches_per_field_gathers():
    """A (n, F) record gathers to one contiguous (F, W) block whose row f
    is the 1-D gather of field f."""
    bk = Backend("emulated", 8)
    records = RNG.uniform(-2, 2, (30, 5))
    idx_vals = RNG.integers(0, 30, 8)
    idx_vals[3] = -1
    mask = idx_vals >= 0
    fields = bk.gather(records, idx_vals, mask, fill=0.25)
    assert fields.shape == (5, 8) and fields.flags.c_contiguous
    for f in range(5):
        ref = bk.gather(np.ascontiguousarray(records[:, f]), idx_vals, mask,
                        fill=0.25)
        assert bits_equal(fields[f], ref)


@pytest.mark.parametrize("name,width", [("emulated", 8), ("emulated", 16),
                                        ("native", 64), ("native", 1024)])
def test_scatter_add_bit_equals_sequential_loop(name, width):
    """Duplicate-index accumulation must match the scalar loop bit-for-bit,
    for a (n,) destination and row by row for a (3, n) one, with double
    and with single lanes added into the float64 destination."""
    for precision in ("double", "single"):
        bk = Backend(name, width, precision=precision)
        for rows in [(), (3,)]:
            dest = RNG.uniform(-1, 1, rows + (13,))
            ref = dest.copy()
            idx_vals = RNG.integers(0, 13, width)
            idx_vals[1] = idx_vals[0]  # at least one duplicate
            vals = real_lanes(bk, RNG.uniform(-1, 1, rows + (width,)))
            active = RNG.random(width) < 0.8
            active[:2] = True
            active[-1] = False  # at least one masked lane
            bk.scatter_add(dest, idx_vals, vals, active)
            for lane in range(width):  # sequential scalar oracle
                if active[lane]:
                    ref[..., idx_vals[lane]] += vals[..., lane].astype(float)
            assert bits_equal(dest, ref), precision


@pytest.mark.parametrize("fields", [(), (5,)], ids=["n", "nF"])
@pytest.mark.parametrize("name,width", [("emulated", 8), ("native", None)])
def test_all_active_lanes_take_the_fast_path_with_the_same_bytes(
        name, width, fields):
    """With every lane active, gather and scatter_add skip the fill and the
    masked copies. The bytes are those of the same lanes passed through
    the masked path (here with one padding lane after them), the fill
    shows only on masked lanes, and a bad index on an active lane still
    raises."""
    bk = Backend(name, width)
    w = bk.width
    padded = Backend(name, w + 1)
    every = np.ones(w, dtype=bool)
    with_pad = np.append(every, False)
    records = RNG.uniform(-5, 5, (40,) + fields)
    idx = RNG.integers(0, 40, w)
    fast = bk.gather(records, idx, every, fill=7.5)
    slow = padded.gather(records, np.append(idx, -1), with_pad, fill=7.5)
    assert fast.shape == fields + (w,) and fast.flags.c_contiguous
    assert bits_equal(fast, slow[..., :w])
    assert not (fast == 7.5).any() and (slow[..., w] == 7.5).all()
    rows = (3,) if fields else ()
    dest = RNG.uniform(-1, 1, rows + (13,))
    sidx = RNG.integers(0, 13, w)
    sidx[1] = sidx[0]  # a duplicate
    vals = RNG.uniform(-1, 1, rows + (w,))
    d_fast, d_slow = dest.copy(), dest.copy()
    bk.scatter_add(d_fast, sidx, vals, every)
    padded.scatter_add(d_slow, np.append(sidx, -1),
                       np.append(vals, np.zeros(rows + (1,)), axis=-1),
                       with_pad)
    assert bits_equal(d_fast, d_slow)
    for bad in (-1, 40):
        wrong = idx.copy()
        wrong[w // 2] = bad
        with pytest.raises(IndexError, match="out of bounds"):
            bk.gather(records, wrong, every)
    for bad in (-1, 13):
        wrong = sidx.copy()
        wrong[w // 2] = bad
        with pytest.raises(IndexError, match="out of bounds"):
            bk.scatter_add(dest.copy(), wrong, vals, every)


@pytest.mark.parametrize("fields", [(), (5,)], ids=["n", "nF"])
@pytest.mark.parametrize("name,width", [("emulated", 8), ("native", None)])
def test_load_is_gather_over_a_contiguous_run(name, width, fields):
    """load(records, s, mask, fill) is gather of the slots s, s+1, ...
    with the same mask and fill: all lanes active, and (on a padded
    backend) an active prefix with fill on the rest. Both count."""
    bk = Backend(name, width)
    w = bk.width
    records = RNG.uniform(-5, 5, (w + 9,) + fields)
    masks = [np.ones(w, dtype=bool)]
    if bk.padded:
        masks += [np.arange(w) < m for m in (0, 1, w - 3)]
    for start in (0, 9):
        for mask in masks:
            slot = np.where(mask, start + np.arange(w), -1)
            before = bk.gather_count
            got = bk.load(records, start, mask, fill=7.5)
            want = bk.gather(records, slot, mask, fill=7.5)
            assert bk.gather_count - before == 2
            assert got.shape == want.shape == fields + (w,)
            assert got.flags.c_contiguous
            assert bits_equal(got, want)


def test_load_of_a_run_outside_the_records_raises():
    bk = Backend("emulated", 4)
    records = np.arange(10.0)
    every, two = np.ones(4, dtype=bool), np.arange(4) < 2
    assert bk.load(records, 6, every).tolist() == [6.0, 7.0, 8.0, 9.0]
    assert bk.load(records, 8, two, fill=-1.0).tolist() == [8.0, 9.0,
                                                             -1.0, -1.0]
    for start, mask in ((-1, every), (-1, two), (7, every), (9, two),
                        (11, two)):
        with pytest.raises(IndexError, match="out of bounds"):
            bk.load(records, start, mask)


def test_scatter_add_masked_lanes_do_not_write():
    bk = Backend("emulated", 4)
    dest = np.zeros(3)
    bk.scatter_add(dest, np.array([0, 1, 2, 0]),
                   real_lanes(bk, [1.0, 2.0, 3.0, 4.0]),
                   np.array([True, False, True, False]))
    assert dest.tolist() == [1.0, 0.0, 3.0, 0.0][:3]
    # all-false mask: no write at all, even with junk indices
    bk.scatter_add(dest, np.array([-1, 99, -5, 7]), real_lanes(bk, [9.0] * 4),
                   np.zeros(4, dtype=bool))
    assert dest.tolist() == [1.0, 0.0, 3.0]


# ---------------------------------------------------- backend equivalence

def _run_little_program(bk, base, idx_vals, active):
    """A miniature masked compute: gather, arithmetic, transcendentals, sum."""
    x = bk.gather(base, idx_vals, active, fill=1.0)
    y = np.sqrt(x * x + 1.0)  # correctly rounded in every mode
    z = bk.exp(-y) * bk.sin(y) + bk.cos(y * 0.5)
    z = np.where(active, z, 0.0)
    dest = np.zeros(base.shape[0])
    bk.scatter_add(dest, idx_vals, z, active)
    return bk.reduce_sum(z), dest


@pytest.mark.parametrize("width", EMULATED_WIDTHS)
def test_emulated_strict_bit_identical_to_scalar_backend(width):
    """Strict emulated lanes == the W=1 scalar backend applied lane by lane."""
    base = RNG.uniform(0.2, 3.0, 25)
    idx_vals = RNG.integers(0, 25, width)
    idx_vals[width // 2] = -1
    active = idx_vals >= 0

    bk = Backend("emulated", width, strict=True)
    total, dest = _run_little_program(bk, base, idx_vals, active)

    sbk = Backend("scalar")
    ref_dest = np.zeros(base.shape[0])
    lane_vals = []
    for lane in range(width):
        t, d = _run_little_program(sbk, base, np.array([idx_vals[lane]]),
                                   np.array([active[lane]]))
        lane_vals.append(t)
        ref_dest += d
    acc = 0.0
    for t in lane_vals:
        acc += t
    assert total == acc
    assert bits_equal(dest, ref_dest)


@pytest.mark.parametrize("width", EMULATED_WIDTHS)
def test_fast_transcendentals_within_4ulp_of_scalar(width):
    bk_fast = Backend("emulated", width)
    bk_strict = Backend("emulated", width, strict=True)
    x = real_lanes(bk_fast, RNG.uniform(0.05, 4.0, width))
    for fn in ("exp", "sin", "cos"):
        fast = getattr(bk_fast, fn)(x)
        strict = getattr(bk_strict, fn)(x)
        for f, s in zip(fast, strict):
            assert abs(f - s) <= 4 * np.spacing(abs(s)), fn
    fast = bk_fast.pow(x, 0.72751)
    strict = bk_strict.pow(x, 0.72751)
    for f, s in zip(fast, strict):
        assert abs(f - s) <= 4 * np.spacing(abs(s)), "pow"


def test_transcendentals_within_4ulp_of_correctly_rounded():
    """Both numpy and libm paths stay within 4 ulp of the true value."""
    mpmath.mp.prec = 100
    xs = RNG.uniform(0.01, 5.0, 200)
    exact_fns = {"exp": mpmath.exp, "sin": mpmath.sin, "cos": mpmath.cos}
    for name, bk in (("fast", Backend("emulated", 4)),
                     ("strict", Backend("emulated", 4, strict=True))):
        for i in range(0, 200, 4):
            v = real_lanes(bk, xs[i:i + 4])
            for fn, mpfn in exact_fns.items():
                got = getattr(bk, fn)(v)
                for x, g in zip(xs[i:i + 4], got):
                    exact = float(mpfn(mpmath.mpf(x)))
                    assert abs(g - exact) <= 4 * np.spacing(abs(exact)), (name, fn)


def test_native_backend_same_values_as_emulated():
    """native is the emulated lane code at another default width: the whole
    little program (gather, arithmetic, ufuncs, scatter, reduce) is
    bit-equal at the same width."""
    for width in (32, 1024):
        nat = Backend("native", width)
        emu = Backend("emulated", width)  # same width, past the listed set
        base = RNG.uniform(0.2, 3.0, 50)
        idx_vals = RNG.integers(0, 50, width)
        active = RNG.random(width) < 0.9
        total_n, dest_n = _run_little_program(nat, base, idx_vals, active)
        total_e, dest_e = _run_little_program(emu, base, idx_vals, active)
        assert np.float64(total_n).tobytes() == \
            np.float64(total_e).tobytes()
        assert bits_equal(dest_n, dest_e)


# ------------------------------------------------------------- validation

def test_backend_validation():
    with pytest.raises(ValueError):
        Backend("vector", 4)
    with pytest.raises(ValueError):
        Backend("scalar", 2)
    with pytest.raises(ValueError):
        Backend("emulated", 0)
    with pytest.raises(ValueError):
        Backend("emulated", 4, precision="half")
    with pytest.raises(ValueError):
        Backend("emulated", 4, precision="single", strict=True)
    with pytest.raises(ValueError):
        Backend("native", 64, strict=True)
    assert Backend("scalar").strict
    assert Backend("native").width == 4096
    assert Backend("emulated").width == 8
    assert Backend("emulated", np.int64(4)).width == 4


@pytest.mark.parametrize("width", [2.5, 7.9, True, "8"])
def test_non_integer_width_rejected(width):
    """A width is an integer: no silent truncation, no bool as 1."""
    with pytest.raises(ValueError, match=f"width must be an integer, got "
                                         f"{width!r}"):
        Backend("emulated", width)


def test_single_precision_lanes():
    bk = Backend("emulated", 4, precision="single")
    v = real_lanes(bk, [1.0, 2.0, 3.0, 4.0])
    assert v.dtype == np.float32
    assert (v * 0.5).dtype == np.float32
    assert (0.5 * v).dtype == np.float32
    assert bk.exp(v).dtype == np.float32
    assert np.where(v > 2.0, v, 0.0).dtype == np.float32
    # records cast once to float32 come back from the gather as float32
    records = np.array([[0.1, 1.0], [0.2, 2.0], [0.3, 3.0]], dtype=np.float32)
    mask = np.array([True, True, False, True])
    for lane in bk.gather(records, np.array([2, 0, -1, 1]), mask, fill=1.0):
        assert lane.dtype == np.float32
