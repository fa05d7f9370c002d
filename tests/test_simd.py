"""Lane-layer tests: every backend/width against a per-lane scalar oracle."""

import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest

import tersoffmd
from tersoffmd.simd import Backend, Lanes, make_backend, EMULATED_WIDTHS

RNG = np.random.default_rng(20260816)


def bits_equal(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def random_lanes(bk, lo=-3.0, hi=3.0, rng=RNG):
    return bk.real(rng.uniform(lo, hi, bk.width))


# ---------------------------------------------------------------- arithmetic

@pytest.mark.parametrize("width", EMULATED_WIDTHS)
def test_lane_arithmetic_matches_per_lane_python(width):
    """+ - * / on W lanes must be bit-identical to W scalar computations."""
    bk = make_backend("emulated", width)
    a = random_lanes(bk)
    b = random_lanes(bk, 0.5, 4.0)
    cases = {
        "add": (a + b, [x + y for x, y in zip(a.data.tolist(), b.data.tolist())]),
        "sub": (a - b, [x - y for x, y in zip(a.data.tolist(), b.data.tolist())]),
        "mul": (a * b, [x * y for x, y in zip(a.data.tolist(), b.data.tolist())]),
        "div": (a / b, [x / y for x, y in zip(a.data.tolist(), b.data.tolist())]),
        "rsub": (1.0 - a, [1.0 - x for x in a.data.tolist()]),
        "rdiv": (1.0 / b, [1.0 / y for y in b.data.tolist()]),
        "neg": (-a, [-x for x in a.data.tolist()]),
    }
    for name, (got, want) in cases.items():
        assert bits_equal(got.data, np.array(want)), name


@pytest.mark.parametrize("width", EMULATED_WIDTHS)
def test_compare_minmax_blend(width):
    bk = make_backend("emulated", width)
    a = random_lanes(bk)
    b = random_lanes(bk)
    lt = a < b
    assert lt.bits.tolist() == [x < y for x, y in zip(a.data, b.data)]
    assert (a <= a).all()
    assert not (a != a).any()
    mn = bk.minimum(a, b)
    mx = bk.maximum(a, b)
    assert mn.data.tolist() == [min(x, y) for x, y in zip(a.data.tolist(), b.data.tolist())]
    assert mx.data.tolist() == [max(x, y) for x, y in zip(a.data.tolist(), b.data.tolist())]
    sel = bk.where(lt, a, b)
    assert sel.data.tolist() == [x if x < y else y
                                 for x, y in zip(a.data.tolist(), b.data.tolist())]
    # blend against a scalar alternative
    z = bk.where(lt, a, 0.0)
    assert z.data.tolist() == [x if x < y else 0.0
                               for x, y in zip(a.data.tolist(), b.data.tolist())]


def test_mask_logic():
    bk = make_backend("emulated", 8)
    m = bk.mask([1, 0, 1, 0, 1, 0, 1, 0])
    n = bk.mask([1, 1, 0, 0, 1, 1, 0, 0])
    assert (m & n).bits.tolist() == [True, False, False, False, True, False, False, False]
    assert (m | n).count() == 6
    assert (~m).count() == 4
    assert bk.true_mask().all() and not bk.false_mask().any()


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
        bk = make_backend(name, width)
        for values in cases:
            v = bk.real(np.resize(values, width))
            want = _ascending_sum(v.data.tolist())
            got = bk.reduce_sum(v)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
        if width == 4:
            assert bk.reduce_sum(bk.real(cases[0])) == 1.0
        assert math.copysign(1.0, bk.reduce_sum(bk.real(-0.0))) == 1.0
        single = make_backend(name, width, precision="single")
        v = single.real(RNG.uniform(-1e4, 1e4, width))
        assert v.data.dtype == np.float32
        # float32 lanes are summed in double, as the scalar loop does
        assert single.reduce_sum(v) == _ascending_sum(v.data.tolist())


# ---------------------------------------------------------------- memory ops

@pytest.mark.parametrize("width", EMULATED_WIDTHS)
def test_masked_gather_and_padding(width):
    bk = make_backend("emulated", width)
    base = RNG.uniform(-5, 5, 40)
    idx_vals = RNG.integers(0, 40, width)
    idx_vals[::2] = -1  # padding lanes
    mask = bk.mask(idx_vals >= 0)
    out = bk.gather(base, bk.index(idx_vals), mask, fill=7.5)
    for lane in range(width):
        if idx_vals[lane] >= 0:
            assert out.data[lane] == base[idx_vals[lane]]
        else:
            assert out.data[lane] == 7.5  # padding untouched by memory


def test_gather_counts_are_instrumented():
    bk = make_backend("emulated", 4)
    base = np.arange(10.0)
    before = bk.gather_count
    bk.gather(base, bk.index([1, 2, 3, 4]), bk.true_mask())
    bk.gather(base, bk.index([1, 2, 3, 4]), bk.true_mask())
    assert bk.gather_count - before == 2


def test_gather_out_of_bounds_active_lane_is_checked():
    bk = make_backend("emulated", 2)
    base = np.arange(4.0)
    with pytest.raises(IndexError):
        bk.gather(base, bk.index([1, 9]), bk.true_mask())
    with pytest.raises(IndexError):
        bk.gather(base, bk.index([-1, 2]), bk.true_mask())  # -1 must be masked


@pytest.mark.parametrize("name", ["emulated", "native"])
def test_scatter_out_of_bounds_active_lane_is_checked(name):
    bk = make_backend(name, 2)
    dest = np.zeros(4)
    for bad in ([1, 4], [-1, 2]):
        with pytest.raises(IndexError):
            bk.scatter_add(dest, bk.index(bad), bk.real([1.0, 1.0]),
                           bk.true_mask())
    assert not dest.any()  # nothing written before the check


def test_bounds_checks_survive_python_O():
    """The checks are real raises, not asserts that -O strips."""
    script = (
        "import numpy as np\n"
        "from tersoffmd.simd import make_backend\n"
        "bk = make_backend('emulated', 2)\n"
        "idx, m = bk.index([0, -1]), bk.true_mask()\n"  # numpy would wrap -1
        "calls = [lambda: bk.gather(np.zeros(3), idx, m),\n"
        "         lambda: bk.gather_fields(np.zeros((3, 2)), idx, m),\n"
        "         lambda: bk.scatter_add(np.zeros(3), idx, bk.real([1, 1]),"
        " m)]\n"
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


def test_gather_fields_matches_columnwise_gather():
    bk = make_backend("emulated", 8)
    records = RNG.uniform(-2, 2, (30, 5))
    idx_vals = RNG.integers(0, 30, 8)
    idx_vals[3] = -1
    mask = bk.mask(idx_vals >= 0)
    idx = bk.index(idx_vals)
    fields = bk.gather_fields(records, idx, mask, fill=0.25)
    assert len(fields) == 5
    for f in range(5):
        ref = bk.gather(np.ascontiguousarray(records[:, f]), idx, mask, fill=0.25)
        assert bits_equal(fields[f].data, ref.data)


@pytest.mark.parametrize("name,width", [("emulated", 8), ("emulated", 16),
                                        ("native", 64), ("native", 1024)])
def test_scatter_add_bit_equals_sequential_loop(name, width):
    """Duplicate-index accumulation must match the scalar loop bit-for-bit."""
    bk = make_backend(name, width)
    dest = RNG.uniform(-1, 1, 13)
    ref = dest.copy()
    idx_vals = RNG.integers(0, 13, width)
    vals = RNG.uniform(-1, 1, width)
    active = RNG.random(width) < 0.8
    bk.scatter_add(dest, bk.index(idx_vals), bk.real(vals), bk.mask(active))
    for lane in range(width):  # sequential scalar oracle
        if active[lane]:
            ref[idx_vals[lane]] += vals[lane]
    assert bits_equal(dest, ref)


def test_scatter_add_masked_lanes_do_not_write():
    bk = make_backend("emulated", 4)
    dest = np.zeros(3)
    bk.scatter_add(dest, bk.index([0, 1, 2, 0]), bk.real([1.0, 2.0, 3.0, 4.0]),
                   bk.mask([True, False, True, False]))
    assert dest.tolist() == [1.0, 0.0, 3.0, 0.0][:3]
    # all-false mask: no write at all, even with junk indices
    bk.scatter_add(dest, bk.index([-1, 99, -5, 7]), bk.real([9.0] * 4),
                   bk.false_mask())
    assert dest.tolist() == [1.0, 0.0, 3.0]


# ---------------------------------------------------- backend equivalence

def _run_little_program(bk, base, idx_vals, active):
    """A miniature masked compute: gather, arithmetic, transcendentals, sum."""
    idx = bk.index(idx_vals)
    mask = bk.mask(active)
    x = bk.gather(base, idx, mask, fill=1.0)
    y = bk.sqrt(x * x + 1.0)
    z = bk.exp(-y) * bk.sin(y) + bk.cos(y * 0.5)
    z = bk.where(mask, z, 0.0)
    dest = np.zeros(base.shape[0])
    bk.scatter_add(dest, idx, z, mask)
    return bk.reduce_sum(z), dest


@pytest.mark.parametrize("width", EMULATED_WIDTHS)
def test_emulated_strict_bit_identical_to_scalar_backend(width):
    """Strict emulated lanes == the W=1 scalar backend applied lane by lane."""
    base = RNG.uniform(0.2, 3.0, 25)
    idx_vals = RNG.integers(0, 25, width)
    idx_vals[width // 2] = -1
    active = idx_vals >= 0

    bk = make_backend("emulated", width, strict=True)
    total, dest = _run_little_program(bk, base, idx_vals, active)

    sbk = make_backend("scalar")
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
    bk_fast = make_backend("emulated", width)
    bk_strict = make_backend("emulated", width, strict=True)
    x = bk_fast.real(RNG.uniform(0.05, 4.0, width))
    for fn in ("exp", "sqrt", "sin", "cos"):
        fast = getattr(bk_fast, fn)(x).data
        strict = getattr(bk_strict, fn)(x).data
        for f, s in zip(fast, strict):
            assert abs(f - s) <= 4 * np.spacing(abs(s)), fn
    fast = bk_fast.pow(x, 0.72751).data
    strict = bk_strict.pow(x, 0.72751).data
    for f, s in zip(fast, strict):
        assert abs(f - s) <= 4 * np.spacing(abs(s)), "pow"


def test_transcendentals_within_4ulp_of_correctly_rounded():
    """Both numpy and libm paths stay within 4 ulp of the true value."""
    mpmath.mp.prec = 100
    xs = RNG.uniform(0.01, 5.0, 200)
    exact_fns = {"exp": mpmath.exp, "sin": mpmath.sin,
                 "cos": mpmath.cos, "sqrt": mpmath.sqrt}
    for name, bk in (("fast", make_backend("emulated", 4)),
                     ("strict", make_backend("emulated", 4, strict=True))):
        for i in range(0, 200, 4):
            v = bk.real(xs[i:i + 4])
            for fn, mpfn in exact_fns.items():
                got = getattr(bk, fn)(v).data
                for x, g in zip(xs[i:i + 4], got):
                    exact = float(mpfn(mpmath.mpf(x)))
                    assert abs(g - exact) <= 4 * np.spacing(abs(exact)), (name, fn)


def test_native_backend_same_values_as_emulated():
    """native is the emulated lane code at another default width: the whole
    little program (gather, arithmetic, ufuncs, scatter, reduce) is
    bit-equal at the same width."""
    for width in (32, 1024):
        nat = make_backend("native", width)
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
    assert make_backend("scalar").strict
    assert make_backend("native").width == 1024
    assert make_backend("emulated").width == 8


def test_single_precision_lanes():
    bk = make_backend("emulated", 4, precision="single")
    v = bk.real([1.0, 2.0, 3.0, 4.0])
    assert v.data.dtype == np.float32
    assert (v * 0.5).data.dtype == np.float32
    assert bk.exp(v).data.dtype == np.float32
    # conversion from double positions happens explicitly
    dd = Lanes(np.array([0.1, 0.2, 0.3, 0.4]))
    assert bk.to_real(dd).data.dtype == np.float32
