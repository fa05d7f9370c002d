"""Width-oblivious SIMD lane abstraction.

Kernels are written once against this layer and never mention the vector
width. A lane value is a plain numpy array of shape (W,): real lanes in the
backend's real dtype, index lanes as int64, masks as bool. A vector
quantity (a displacement, a gradient, a force) is one (3, W) block with the
lanes on the last axis, so row c holds component c of every lane; (W,)
values and masks broadcast across its rows. Arithmetic, comparisons,
``np.where``, ``np.minimum`` and ``np.maximum`` act on all W lanes at once.
The `Backend` decides how wide W is and whether transcendentals are strict,
and owns the operations whose semantics the kernels rely on: masked
gathers, the ordered scatter, the ordered reduction and the
transcendentals.

The three backend names are presets of width and strictness:

* ``scalar``   - W = 1, strict. The correctness anchor.
* ``emulated`` - any small W (at least {1, 2, 4, 8, 16} are supported and
  tested), default 8; strict on request.
* ``native``   - the same lane code at a large default width (1024); no
  strict mode.

Lane arithmetic, gathers, scatters and reductions are bit-identical to
running the scalar backend once per lane, so at the same width ``native`` and
``emulated`` give the same bits. Transcendentals are numpy ufuncs kept within
4 ulp of libm, or exact libm per lane when ``strict=True``.

Conventions: index -1 marks a padding lane and must be masked off;
masked-off lanes are never read from or written to memory. gather loads a
(n,) array as (W,) lanes and a row-major (n, F) record as one (F, W)
block; its ``fill`` on masked-off lanes is the only place a padding lane's
value is chosen, and kernels pick fills that keep the math on padding
lanes finite. scatter_add takes a (n,) destination with (W,) values or a
(3, n) destination with (3, W) values; it applies the active lanes of each
row in ascending lane order. reduce_sum adds lanes in ascending order
starting from 0.0.
"""

import math

import numpy as np

_REAL_DTYPES = {"double": np.float64, "single": np.float32}

EMULATED_WIDTHS = (1, 2, 4, 8, 16)


def _strict(fn, dtype, *args):
    """fn per lane with libm; IEEE special values instead of exceptions.

    Each argument is a lane array or a scalar, which every lane shares.
    """
    lanes = [a.tolist() for a in np.broadcast_arrays(*args)]
    out = np.empty(len(lanes[0]), dtype=dtype)
    for i, xs in enumerate(zip(*lanes)):
        try:
            out[i] = fn(*xs)
        except OverflowError:
            out[i] = math.inf
        except ValueError:
            out[i] = math.nan
    return out


def _active(idx, mask, size, op):
    """The active lanes' indices; IndexError unless all lie in [0, size).

    mask must have at least one lane set.
    """
    ia = idx[mask]
    if ia.min() < 0 or ia.max() >= size:
        raise IndexError(f"active {op} lane out of bounds")
    return ia


class Backend:
    """Execution descriptor: backend name, lane width, precision, strictness.

    The lane operations with backend-defined semantics live here so that
    one kernel source runs unchanged at any width on any backend.
    """

    def __init__(self, name, width, precision="double", strict=False):
        if name not in ("scalar", "emulated", "native"):
            raise ValueError(f"unknown backend {name!r}")
        if precision not in _REAL_DTYPES:
            raise ValueError(f"unknown precision {precision!r}")
        if isinstance(width, bool) or not isinstance(width, (int, np.integer)):
            raise ValueError(f"width must be an integer, got {width!r}")
        if width < 1:
            raise ValueError("width must be >= 1")
        if name == "scalar" and width != 1:
            raise ValueError("scalar backend is width 1")
        if strict and precision != "double":
            raise ValueError("strict transcendental mode requires double precision")
        if strict and name == "native":
            raise ValueError("native backend has no strict mode")
        self.name = name
        self.width = int(width)
        self.precision = precision
        self.strict = strict or name == "scalar"
        self.real_dtype = _REAL_DTYPES[precision]
        self.gather_count = 0  # instrumentation: gathers issued

    def __repr__(self):
        return (f"Backend({self.name!r}, width={self.width}, "
                f"precision={self.precision!r}, strict={self.strict})")

    # ---- constructors -------------------------------------------------

    def zeros(self, *rows):
        """Real lanes of zeros: (W,), or (rows..., W) for a block."""
        return np.zeros(rows + (self.width,), dtype=self.real_dtype)

    # ---- memory -------------------------------------------------------

    def gather(self, records, idx, mask, fill=0.0):
        """out[..., l] = records[idx[l]] where mask, else fill.

        records is (n,) or row-major (n, F); the result is (W,) lanes or a
        contiguous (F, W) block. Active lanes must hold in-bounds
        non-negative indices (IndexError otherwise; -1 stays masked off).
        """
        self.gather_count += 1
        out = np.full(records.shape[1:] + (self.width,), fill, records.dtype)
        if mask.any():
            ia = _active(idx, mask, records.shape[0], "gather")
            out.T[mask] = records.take(ia, axis=0)
        return out

    # benchmark/tracing.py still patches this name
    gather_fields = gather

    def scatter_add(self, dest, idx, vals, mask):
        """dest[..., idx[l]] += vals[..., l] for active lanes.

        dest is (n,) with (W,) values or (3, n) with (3, W) values. Each
        row takes its active lanes in ascending lane order, and duplicate
        indices accumulate, so every row is bit-for-bit what the
        equivalent sequential scalar loop produces, on every backend.
        """
        if mask.any():
            ia = _active(idx, mask, dest.shape[-1], "scatter")
            # one 1-D add.at per row: 2-D add.at is several times slower
            for row, v in zip(np.atleast_2d(dest),
                              np.atleast_2d(vals[..., mask])):
                # cast first: a mixed-dtype add.at leaves numpy's fast path
                np.add.at(row, ia, v.astype(row.dtype, copy=False))

    # ---- reduction ----------------------------------------------------

    def reduce_sum(self, v):
        """Sum of all lanes as a Python float, in ascending lane order.

        Bit-equal to ``acc = 0.0; acc += lane`` over the lanes: the running
        sum is double even for float32 lanes, and the leading 0.0 turns an
        all -0.0 sum into +0.0 as the loop does.
        """
        return 0.0 + float(np.add.accumulate(v, dtype=np.float64)[-1])

    # ---- transcendentals ------------------------------------------------
    # fast path: numpy ufuncs (within 4 ulp of libm per lane)
    # strict path: libm per lane, bit-identical to the scalar backend

    def exp(self, v):
        if self.strict:
            return _strict(math.exp, self.real_dtype, v)
        return np.exp(v)

    def sin(self, v):
        if self.strict:
            return _strict(math.sin, self.real_dtype, v)
        return np.sin(v)

    def cos(self, v):
        if self.strict:
            return _strict(math.cos, self.real_dtype, v)
        return np.cos(v)

    def pow(self, v, e):
        if self.strict:
            return _strict(math.pow, self.real_dtype, v, e)
        return np.power(v, e)


_DEFAULT_WIDTHS = {"scalar": 1, "emulated": 8, "native": 1024}


def make_backend(name, width=None, precision="double", strict=False):
    """Build a Backend with per-name default widths."""
    if width is None:
        width = _DEFAULT_WIDTHS.get(name, 1)
    return Backend(name, width, precision, strict)
