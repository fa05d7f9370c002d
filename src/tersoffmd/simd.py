"""Width-oblivious SIMD lane abstraction.

Kernels are written once against this layer and never mention the vector
width. A lane value is a plain numpy array of shape (W,): real lanes in the
backend's real dtype, index lanes as integers. A vector quantity (a
displacement, a gradient, a force) is one (3, W) block with the lanes on
the last axis, so row c holds component c of every lane; (W,) values
broadcast across its rows. Arithmetic, comparisons, ``np.where``,
``np.minimum`` and ``np.maximum`` act on all W lanes at once. The
`Backend` decides how wide W is and whether transcendentals are strict,
and owns the operations whose semantics the kernels rely on: the
bounds-checked gather and load, the ordered scatter, the ordered
reduction and the transcendentals.

The three backend names only preset the width:

* ``scalar``   - W = 1, strict in double precision. The correctness anchor.
* ``emulated`` - default W = 8; at least {1, 2, 4, 8, 16} are tested.
* ``native``   - default W = 8192.

All three run the same lane code at any width they allow. Lane
arithmetic, gathers, scatters and reductions are bit-identical to running
the scalar backend once per lane, so at the same width ``native`` and
``emulated`` give the same bits. Transcendentals are numpy ufuncs kept
within 4 ulp of libm, or, with ``strict=True``, libm per lane at any
width. Strict mode exists only in double precision, where the scalar
kernels call libm through ``math``; in single precision they call numpy's
float32 ufuncs, as the lanes do, so single-precision lanes need no strict
mode to match them. The lane kernel adds each force role (i, j, k) to its
own accumulator in pair or triple order, so its outputs are the same at
every width.

Conventions: a batch holds only its lanes, at most W; a numpy call over m
lanes costs m, so a short batch is not padded out to W, and the shapes
below say W for any such count. Every index is checked: gather and
scatter_add raise IndexError for one outside the array, load for a run
outside the records. gather loads a (n,) array as (W,) lanes and a
row-major (n, F) record as one contiguous (F, W) block; load is gather of
the contiguous run records[start:stop], with one range check on the run.
scatter_add takes a (n,) destination with (L,) values or an (R, n)
destination with (R, L) values, for W lanes or a longer stream; it applies
each row's lanes in ascending lane order. reduce_sum adds lanes in
ascending order to a running total.
"""

import math

import numpy as np

_REAL_DTYPES = {"double": np.float64, "single": np.float32}

EMULATED_WIDTHS = (1, 2, 4, 8, 16)

# the backend names, each with its preset width
DEFAULT_WIDTHS = {"scalar": 1, "emulated": 8, "native": 8192}


def real_dtype(precision):
    """The real dtype of a precision mode; ValueError for any other name."""
    if precision not in _REAL_DTYPES:
        raise ValueError(f"unknown precision {precision!r}")
    return _REAL_DTYPES[precision]


def _transcendental(ufunc, libm):
    """A Backend method: numpy's ufunc (within 4 ulp of libm per lane), or
    when strict libm per lane in double, with IEEE special values instead
    of exceptions. Each argument is a lane array or a scalar, which every
    lane shares."""
    def op(self, *args):
        if not self.strict:
            return ufunc(*args)
        lanes = [a.tolist() for a in np.broadcast_arrays(*args)]
        out = np.empty(len(lanes[0]))
        for i, xs in enumerate(zip(*lanes)):
            try:
                out[i] = libm(*xs)
            except OverflowError:
                out[i] = math.inf
            except ValueError:
                out[i] = math.nan
        return out
    return op


def _in_bounds(ia, size, op):
    """ia, the lanes' indices; IndexError unless all lie in [0, size)."""
    if ia.size and (ia.min() < 0 or ia.max() >= size):
        raise IndexError(f"{op} lane out of bounds")
    return ia


class Backend:
    """Execution descriptor: backend name, lane width, precision and
    strictness.

    The lane operations with backend-defined semantics live here so that
    one kernel source runs unchanged at any width on any backend. A width
    of None is the name's preset width.
    """

    def __init__(self, name, width=None, precision="double", strict=False):
        if name not in DEFAULT_WIDTHS:
            raise ValueError(f"unknown backend {name!r}")
        self.real_dtype = real_dtype(precision)
        width = DEFAULT_WIDTHS[name] if width is None else width
        if isinstance(width, bool) or not isinstance(width, (int, np.integer)):
            raise ValueError(f"width must be an integer, got {width!r}")
        if width < 1:
            raise ValueError("width must be >= 1")
        if name == "scalar" and width != 1:
            raise ValueError("scalar backend is width 1")
        if strict and precision != "double":
            raise ValueError("strict transcendental mode requires double precision")
        self.name = name
        self.width = int(width)
        self.precision = precision
        self.strict = strict or (name == "scalar" and precision == "double")
        self.gather_count = 0  # instrumentation: gathers issued

    def __repr__(self):
        return (f"Backend({self.name!r}, width={self.width}, "
                f"precision={self.precision!r}, strict={self.strict})")

    # ---- memory -------------------------------------------------------

    def gather(self, records, idx):
        """out[..., l] = records[idx[l]] for every lane.

        records is (n,) or row-major (n, F); the result is (W,) lanes or a
        contiguous (F, W) block. Every index must lie in [0, n)
        (IndexError otherwise: numpy would wrap a negative one).
        """
        self.gather_count += 1
        ia = _in_bounds(idx, records.shape[0], "gather")
        return np.ascontiguousarray(records.take(ia, axis=0).T)

    # benchmark/tracing.py still patches this name
    gather_fields = gather

    def load(self, records, start, stop):
        """gather of the contiguous run records[start:stop]: lane l holds
        records[start + l]. One range check on the run replaces gather's
        per-lane one (IndexError unless 0 <= start <= stop <= n).
        """
        self.gather_count += 1
        if not 0 <= start <= stop <= records.shape[0]:
            raise IndexError("load lanes out of bounds")
        return np.ascontiguousarray(records[start:stop].T)

    def scatter_add(self, dest, idx, vals):
        """dest[..., idx[l]] += vals[..., l] for every lane.

        dest is (n,) with (L,) values or (R, n) with (R, L) values: W
        lanes, or a stream of updates of any length. Each row takes its
        lanes in ascending lane order, and duplicate indices accumulate,
        so every row is bit-for-bit what the equivalent sequential scalar
        loop produces, on every backend. Every index must lie in [0, n);
        nothing is written otherwise (IndexError).
        """
        ia = _in_bounds(idx, dest.shape[-1], "scatter")
        # one 1-D add.at per row: 2-D add.at is several times slower
        for row, v in zip(np.atleast_2d(dest), np.atleast_2d(vals)):
            # cast first: a mixed-dtype add.at leaves numpy's fast path
            np.add.at(row, ia, v.astype(row.dtype, copy=False))

    # ---- reduction ----------------------------------------------------

    def reduce_sum(self, v, start=0.0):
        """start plus every lane, as a Python float, in ascending lane order.

        Bit-equal to ``acc = start; acc += lane`` over the lanes: the
        running sum is double even for float32 lanes. Batches folded into
        one running total add every lane in one sequence at any width.
        """
        return float(np.add.accumulate(np.concatenate(([start], v)),
                                       dtype=np.float64)[-1])

    # ---- transcendentals ------------------------------------------------

    exp = _transcendental(np.exp, math.exp)
    sin = _transcendental(np.sin, math.sin)
    cos = _transcendental(np.cos, math.cos)
    pow = _transcendental(np.power, math.pow)
