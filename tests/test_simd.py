"""Lane-layer tests: every backend/width against a per-lane scalar oracle.

Lane values are numpy arrays of shape (W,).
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

def test_gather_counts_are_instrumented():
    bk = Backend("emulated", 4)
    base = np.arange(10.0)
    before = bk.gather_count
    idx = np.array([1, 2, 3, 4])
    bk.gather(base, idx)
    bk.gather(base, idx)
    assert bk.gather_count - before == 2


def test_gather_out_of_bounds_active_lane_is_checked():
    bk = Backend("emulated", 2)
    base = np.arange(4.0)
    for records in (base, base.reshape(2, 2)):
        with pytest.raises(IndexError, match="out of bounds"):
            bk.gather(records, np.array([1, 9]))
        with pytest.raises(IndexError, match="out of bounds"):
            bk.gather(records, np.array([-1, 0]))  # numpy would wrap -1


@pytest.mark.parametrize("name", ["emulated", "native"])
def test_scatter_out_of_bounds_active_lane_is_checked(name):
    bk = Backend(name, 2)
    dest = np.zeros(4)
    for bad in ([1, 4], [-1, 2]):
        with pytest.raises(IndexError):
            bk.scatter_add(dest, np.array(bad), real_lanes(bk, [1.0, 1.0]))
    assert not dest.any()  # nothing written before the check
    # a (3, n) block is checked against n, once for all three rows
    block = np.zeros((3, 4))
    with pytest.raises(IndexError):
        bk.scatter_add(block, np.array([3, 4]), np.ones((3, 2)))
    assert not block.any()


def test_bounds_checks_survive_python_O():
    """The checks are real raises, not asserts that -O strips."""
    script = (
        "import numpy as np\n"
        "from tersoffmd.simd import Backend\n"
        "bk = Backend('emulated', 2)\n"
        # numpy itself would wrap -1 to the last element
        "idx = np.array([0, -1])\n"
        "calls = [lambda: bk.gather(np.zeros(3), idx),\n"
        "         lambda: bk.gather(np.zeros((3, 2)), idx),\n"
        "         lambda: bk.scatter_add(np.zeros(3), idx, np.ones(2)),\n"
        "         lambda: bk.load(np.zeros(3), -1, 1),\n"
        "         lambda: bk.load(np.zeros((3, 2)), 2, 4)]\n"
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
    fields = bk.gather(records, idx_vals)
    assert fields.shape == (5, 8) and fields.flags.c_contiguous
    for f in range(5):
        ref = bk.gather(np.ascontiguousarray(records[:, f]), idx_vals)
        assert bits_equal(fields[f], ref)
        assert fields[f].tolist() == records[idx_vals, f].tolist()


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
            bk.scatter_add(dest, idx_vals, vals)
            for lane in range(width):  # sequential scalar oracle
                ref[..., idx_vals[lane]] += vals[..., lane].astype(float)
            assert bits_equal(dest, ref), precision


@pytest.mark.parametrize("fields", [(), (5,)], ids=["n", "nF"])
@pytest.mark.parametrize("name,width", [("emulated", 8), ("native", None)])
def test_load_is_gather_over_a_contiguous_run(name, width, fields):
    """load(records, start, stop) is gather of the slots start, ...,
    stop - 1: a full run of W lanes and the short runs a batch ends on
    (0, 1 and W - 3 lanes). Both count."""
    bk = Backend(name, width)
    w = bk.width
    records = RNG.uniform(-5, 5, (w + 9,) + fields)
    for start in (0, 9):
        for m in (w, 0, 1, w - 3):
            before = bk.gather_count
            got = bk.load(records, start, start + m)
            want = bk.gather(records, np.arange(start, start + m))
            assert bk.gather_count - before == 2
            assert got.shape == want.shape == fields + (m,)
            assert got.flags.c_contiguous
            assert bits_equal(got, want)


def test_load_of_a_run_outside_the_records_raises():
    bk = Backend("emulated", 4)
    records = np.arange(10.0)
    assert bk.load(records, 6, 10).tolist() == [6.0, 7.0, 8.0, 9.0]
    assert bk.load(records, 8, 10).tolist() == [8.0, 9.0]
    assert bk.load(records, 10, 10).tolist() == []
    for start, stop in ((-1, 3), (-1, 1), (7, 11), (9, 11), (11, 13),
                        (5, 4)):
        with pytest.raises(IndexError, match="out of bounds"):
            bk.load(records, start, stop)


# ---------------------------------------------------- backend equivalence

def _run_little_program(bk, base, idx_vals):
    """A miniature compute: gather, arithmetic, transcendentals, sum."""
    x = bk.gather(base, idx_vals)
    y = np.sqrt(x * x + 1.0)  # correctly rounded in every mode
    z = bk.exp(-y) * bk.sin(y) + bk.cos(y * 0.5)
    dest = np.zeros(base.shape[0])
    bk.scatter_add(dest, idx_vals, z)
    return bk.reduce_sum(z), dest


@pytest.mark.parametrize("width", EMULATED_WIDTHS)
def test_emulated_strict_bit_identical_to_scalar_backend(width):
    """Strict emulated lanes == the W=1 scalar backend applied lane by lane."""
    base = RNG.uniform(0.2, 3.0, 25)
    idx_vals = RNG.integers(0, 25, width)

    bk = Backend("emulated", width, strict=True)
    total, dest = _run_little_program(bk, base, idx_vals)

    sbk = Backend("scalar")
    ref_dest = np.zeros(base.shape[0])
    lane_vals = []
    for lane in range(width):
        t, d = _run_little_program(sbk, base, np.array([idx_vals[lane]]))
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_strict_special_values_are_numpys():
    """Where libm raises, a strict lane takes the IEEE value the numpy
    path gives, and the other lanes are still computed: exp(1000) is inf,
    pow(-1, 0.5) and sin(inf) are nan."""
    cases = (("exp", ([1000.0, 0.5],)), ("pow", ([-1.0, 4.0], 0.5)),
             ("sin", ([np.inf, 0.0],)))
    for fn, args in cases:
        outs = [getattr(Backend("emulated", 2, strict=strict), fn)(
            np.array(args[0]), *args[1:]) for strict in (True, False)]
        for out in outs:
            assert out.dtype == np.float64
            assert out.tolist()[1] == getattr(math, fn)(args[0][1], *args[1:])
        # equal as values: a nan's sign bit is libm's or numpy's own
        assert np.array_equal(outs[0], outs[1], equal_nan=True), fn
        assert not np.isfinite(outs[0][0]), fn
    assert Backend("scalar").exp(np.array([1000.0])).tolist() == [np.inf]


def test_native_backend_same_values_as_emulated():
    """native is the emulated lane code at another default width: the whole
    little program (gather, arithmetic, ufuncs, scatter, reduce) is
    bit-equal at the same width."""
    for width in (32, 1024):
        nat = Backend("native", width)
        emu = Backend("emulated", width)  # same width, past the listed set
        base = RNG.uniform(0.2, 3.0, 50)
        idx_vals = RNG.integers(0, 50, width)
        total_n, dest_n = _run_little_program(nat, base, idx_vals)
        total_e, dest_e = _run_little_program(emu, base, idx_vals)
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
    assert Backend("native", 64, strict=True).strict
    assert Backend("scalar").strict
    assert Backend("native").width == 8192
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
    for lane in bk.gather(records, np.array([2, 0, 2, 1])):
        assert lane.dtype == np.float32
    assert bk.load(records, 1, 3).dtype == np.float32
