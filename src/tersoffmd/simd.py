"""Width-oblivious SIMD lane abstraction.

Kernels are written once against this layer and never mention the vector
width: a `Lanes` value holds W lanes of float or integer data, a `Mask`
holds W validity bits, and the `Backend` decides how wide W is and how the
operations execute.

Three backends share one implementation, differing only in width policy and
numeric paths:

* ``scalar``   - W = 1, libm transcendentals. The correctness anchor.
* ``emulated`` - any small W (at least {1, 2, 4, 8, 16} are supported and
  tested); lane arithmetic, gathers and scatters are bit-identical to running
  the scalar backend once per lane. Transcendentals are numpy ufuncs kept
  within 4 ulp of libm, or exact libm per lane when ``strict=True``.
* ``native``   - numpy bulk execution over a large default width (1024).
  Same semantics, except reduce_sum uses numpy's pairwise reduction instead
  of the documented ascending-lane order (scatter_add stays sequential via
  np.add.at and remains bit-exact).

Conventions: index lanes are signed 64-bit; index -1 marks a padding lane
and must be masked off; masked-off lanes are never read from or written to
memory. reduce_sum on scalar/emulated backends adds lanes in ascending
order starting from 0.0.
"""

import math

import numpy as np

_REAL_DTYPES = {"double": np.float64, "single": np.float32}
_INDEX_DTYPE = np.int64

EMULATED_WIDTHS = (1, 2, 4, 8, 16)


class Lanes:
    """W lanes of homogeneous data (one numpy vector of shape (W,))."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = data

    @property
    def width(self):
        return self.data.shape[0]

    def __add__(self, other):
        return Lanes(self.data + _raw(other))

    __radd__ = __add__

    def __sub__(self, other):
        return Lanes(self.data - _raw(other))

    def __rsub__(self, other):
        return Lanes(_raw(other) - self.data)

    def __mul__(self, other):
        return Lanes(self.data * _raw(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return Lanes(self.data / _raw(other))

    def __rtruediv__(self, other):
        return Lanes(_raw(other) / self.data)

    def __neg__(self):
        return Lanes(-self.data)

    # comparisons yield Masks
    def __lt__(self, other):
        return Mask(self.data < _raw(other))

    def __le__(self, other):
        return Mask(self.data <= _raw(other))

    def __gt__(self, other):
        return Mask(self.data > _raw(other))

    def __ge__(self, other):
        return Mask(self.data >= _raw(other))

    def __eq__(self, other):  # noqa: vector-valued equality, like numpy
        return Mask(self.data == _raw(other))

    def __ne__(self, other):
        return Mask(self.data != _raw(other))

    __hash__ = None

    def __repr__(self):
        return f"Lanes({self.data!r})"


class Mask:
    """W validity bits."""

    __slots__ = ("bits",)

    def __init__(self, bits):
        self.bits = bits

    @property
    def width(self):
        return self.bits.shape[0]

    def __and__(self, other):
        return Mask(self.bits & other.bits)

    def __or__(self, other):
        return Mask(self.bits | other.bits)

    def __invert__(self):
        return Mask(~self.bits)

    def any(self):
        return bool(self.bits.any())

    def all(self):
        return bool(self.bits.all())

    def count(self):
        """Number of active lanes."""
        return int(self.bits.sum())

    def __repr__(self):
        return f"Mask({self.bits.astype(int).tolist()})"


def _raw(x):
    return x.data if isinstance(x, Lanes) else x


def _strict_unary(fn, arr, dtype):
    # libm per lane; mirror IEEE special-value behaviour instead of raising
    out = np.empty(arr.shape[0], dtype=dtype)
    for i, x in enumerate(arr.tolist()):
        try:
            out[i] = fn(x)
        except OverflowError:
            out[i] = math.inf
        except ValueError:
            out[i] = math.nan
    return out


class Backend:
    """Execution descriptor: backend name, lane width, precision, strictness.

    All lane operations live here so that one kernel source runs unchanged
    at any width on any backend.
    """

    def __init__(self, name, width, precision="double", strict=False):
        if name not in ("scalar", "emulated", "native"):
            raise ValueError(f"unknown backend {name!r}")
        if precision not in _REAL_DTYPES:
            raise ValueError(f"unknown precision {precision!r}")
        if width < 1:
            raise ValueError("width must be >= 1")
        if name == "scalar" and width != 1:
            raise ValueError("scalar backend is width 1")
        if strict and precision != "double":
            raise ValueError("strict transcendental mode requires double precision")
        if strict and name == "native":
            raise ValueError("native backend has no strict mode")
        self.name = name
        self.width = width
        self.precision = precision
        self.strict = strict or name == "scalar"
        self.real_dtype = _REAL_DTYPES[precision]
        self.index_dtype = _INDEX_DTYPE
        self.gather_count = 0  # instrumentation: gathers issued

    def __repr__(self):
        return (f"Backend({self.name!r}, width={self.width}, "
                f"precision={self.precision!r}, strict={self.strict})")

    # ---- constructors -------------------------------------------------

    def real(self, values):
        """Real lanes from a scalar or a length-W sequence/array."""
        arr = np.asarray(values, dtype=self.real_dtype)
        if arr.ndim == 0:
            arr = np.full(self.width, arr, dtype=self.real_dtype)
        return Lanes(arr)

    def index(self, values):
        arr = np.asarray(values, dtype=self.index_dtype)
        if arr.ndim == 0:
            arr = np.full(self.width, arr, dtype=self.index_dtype)
        return Lanes(arr)

    def zeros(self):
        return Lanes(np.zeros(self.width, dtype=self.real_dtype))

    def to_real(self, v):
        """Cast lanes to the backend's working real dtype."""
        return Lanes(v.data.astype(self.real_dtype))

    def mask(self, bits):
        arr = np.asarray(bits, dtype=bool)
        if arr.ndim == 0:
            arr = np.full(self.width, arr, dtype=bool)
        return Mask(arr)

    def true_mask(self):
        return Mask(np.ones(self.width, dtype=bool))

    def false_mask(self):
        return Mask(np.zeros(self.width, dtype=bool))

    # ---- memory -------------------------------------------------------

    def gather(self, base, idx, mask, fill=0.0):
        """out[l] = base[idx[l]] where mask, else fill.

        Active lanes must hold in-bounds non-negative indices (IndexError
        otherwise; -1 is the padding convention and stays masked off).
        """
        self.gather_count += 1
        out = np.full(self.width, fill, dtype=base.dtype)
        act = mask.bits
        if act.any():
            ia = idx.data[act]
            if ia.min() < 0 or ia.max() >= base.shape[0]:
                raise IndexError("active gather lane out of bounds")
            out[act] = base[ia]
        return Lanes(out)

    def gather_fields(self, records, idx, mask, fill=0.0):
        """Gather rows of a 2D record array and hand back one Lanes per field.

        records has shape (nrecords, nfields); the result is a tuple of
        nfields Lanes. This is the gather-and-transpose primitive the
        vector kernels use for per-lane parameter lookup.
        """
        self.gather_count += 1
        nfields = records.shape[1]
        act = mask.bits
        outs = np.full((nfields, self.width), fill, dtype=records.dtype)
        if act.any():
            ia = idx.data[act]
            if ia.min() < 0 or ia.max() >= records.shape[0]:
                raise IndexError("active gather lane out of bounds")
            outs[:, act] = records[ia].T
        return tuple(Lanes(outs[f]) for f in range(nfields))

    def scatter_add(self, dest, idx, vals, mask):
        """dest[idx[l]] += vals[l] for active lanes, in ascending lane order.

        Duplicate indices accumulate. The result is bit-for-bit what the
        equivalent sequential scalar loop produces, on every backend.
        """
        act = mask.bits
        if not act.any():
            return
        ia = idx.data[act]
        if ia.min() < 0 or ia.max() >= dest.shape[0]:
            raise IndexError("active scatter lane out of bounds")
        if self.name == "native":
            np.add.at(dest, ia, vals.data[act])
        else:
            va = vals.data[act]
            for k in range(ia.shape[0]):
                dest[ia[k]] += va[k]

    # ---- arithmetic helpers --------------------------------------------

    def where(self, mask, a, b):
        return Lanes(np.where(mask.bits, _raw(a), _raw(b)))

    def minimum(self, a, b):
        return Lanes(np.minimum(_raw(a), _raw(b)))

    def maximum(self, a, b):
        return Lanes(np.maximum(_raw(a), _raw(b)))

    def reduce_sum(self, v):
        """Sum of all lanes as a Python float.

        scalar/emulated: ascending-lane order starting from 0.0.
        native: numpy pairwise reduction (documented deviation).
        """
        if self.name == "native":
            return float(np.add.reduce(v.data))
        acc = 0.0
        for x in v.data.tolist():
            acc += x
        return acc

    # ---- transcendentals ------------------------------------------------
    # fast path: numpy ufuncs (within 4 ulp of libm per lane)
    # strict path: libm per lane, bit-identical to the scalar backend

    def exp(self, v):
        if self.strict:
            return Lanes(_strict_unary(math.exp, v.data, self.real_dtype))
        return Lanes(np.exp(v.data))

    def sqrt(self, v):
        if self.strict:
            return Lanes(_strict_unary(math.sqrt, v.data, self.real_dtype))
        return Lanes(np.sqrt(v.data))

    def sin(self, v):
        if self.strict:
            return Lanes(_strict_unary(math.sin, v.data, self.real_dtype))
        return Lanes(np.sin(v.data))

    def cos(self, v):
        if self.strict:
            return Lanes(_strict_unary(math.cos, v.data, self.real_dtype))
        return Lanes(np.cos(v.data))

    def pow(self, v, e):
        if self.strict:
            ev = _raw(e)
            exps = ev.tolist() if isinstance(ev, np.ndarray) else \
                [ev] * self.width
            out = np.empty(self.width, dtype=self.real_dtype)
            for i, (x, y) in enumerate(zip(v.data.tolist(), exps)):
                try:
                    out[i] = math.pow(x, y)
                except OverflowError:
                    out[i] = math.inf
                except ValueError:
                    out[i] = math.nan
            return Lanes(out)
        return Lanes(np.power(v.data, _raw(e)))


_DEFAULT_WIDTHS = {"scalar": 1, "emulated": 8, "native": 1024}


def make_backend(name, width=None, precision="double", strict=False):
    """Build a Backend with per-name default widths."""
    if width is None:
        width = _DEFAULT_WIDTHS.get(name, 1)
    return Backend(name, int(width), precision, strict)
