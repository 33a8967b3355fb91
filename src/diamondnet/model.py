"""Network data model.

A diamond network is a source broadcasting to N relays that share a
multiple-access channel to the destination, with no direct link. It can be
described either physically (an SNR plus per-relay channel-gain magnitudes)
or, equivalently, by the per-relay point-to-point rates

    r_s[i] = log2(1 + snr * gain_s[i]**2)    source -> relay i
    r_d[i] = log2(1 + snr * gain_d[i]**2)    relay i -> destination

in bits/s/Hz. Every algorithm downstream consumes the rate description, so
``RateTable`` is the canonical internal form; ``rate_table`` and
``network_from`` convert between the two. Channel phases are never stored:
every quantity computed here depends on magnitudes only.

Both forms hold their per-relay numbers as two read-only float64 arrays,
validated in bulk, so a network of 10**6 relays holds no per-relay Python
object: ``Network(snr, gain_s, gain_d)`` and ``RateTable(r_s, r_d)`` copy
the arrays they are given as the two rows of one array and test both rows
at once; per-array and per-relay checks, to name the fault, run only when
that test fails or the arrays do not stack.

Every value type of the package is an immutable value on one base,
``_Value``: these two and ``af.AfCoefficients``, and every result record
(``cuts.Cut``, ``cuts.OmegaResult``, ``selection.SelectionResult``,
``verify.VerifyReport`` and the rest). A type declares its fields once,
as its ``__slots__``; only a type that checks its input writes a
constructor, which ends in ``super().__init__``. A record's fields are its
constructor's parameters, in order, and read as attributes
(``omega_fast(rt).value``, ``sel.certificate.bins``); its ``repr`` names
them all. Values compare equal field by field, an array by value; a record
hashes by its fields, an array type not at all. A copy or a pickle is
rebuilt through the constructor, so it is checked, and read-only, again.

Scalar arguments follow one rule everywhere in the package, enforced by
``_to_int`` and ``_to_float``: an integer (n, k, a seed, a relay index) is a
Python or numpy integer, never a ``bool`` or a float; a rate or an SNR is a
finite real number, never a str, bytes or bool, as a network file reads no
'_' or non-ASCII digit (``netfile._plain``); nor is an array entry
(``_float_array``). A violation raises ``ValidationError`` naming the
argument. A table, network or selection argument of another type does the
same, through ``_require``, and a scalar for a relay set, through ``_to_tuple``.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from .errors import ValidationError

_LN2 = math.log(2.0)

# 2**r - 1 overflows float64 beyond this rate, in bits/s/Hz
_MAX_INVERTIBLE_RATE = 1023.0

_MAX_FLOAT = float(np.finfo(np.float64).max)

# the most float64 entries one numpy array can hold: its bytes fit an intp
_MAX_ARRAY_LEN = np.iinfo(np.intp).max // 8


_NOT_REAL = (str, bytes, bool, np.bool_)  # float() reads "1_0" as 10, True as 1.0


def _to_float(name, value, sign=None) -> float:
    """``value`` as a float, not a str, bytes or bool; with ``sign``
    ("positive" or "nonnegative") it must also be finite and of that sign."""
    try:
        if isinstance(value, _NOT_REAL):
            raise TypeError
        value = float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a real number, got {value!r}") from None
    except OverflowError:
        raise ValidationError(f"{name} exceeds the float64 range") from None
    if sign is not None:
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")
        if value < 0.0 or (value == 0.0 and sign == "positive"):
            raise ValidationError(f"{name} must be {sign}, got {value}")
    return value


def _to_int(name, value, minimum=None) -> int:
    """``value`` as an int: a Python or numpy integer, not a ``bool``, and
    at least ``minimum`` when one is given."""
    if (
        isinstance(value, (int, np.integer))
        and not isinstance(value, bool)
        and (minimum is None or value >= minimum)
    ):
        return int(value)
    kind = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}
    kind = kind.get(minimum, f"an integer >= {minimum}")
    raise ValidationError(f"{name} must be {kind}, got {value!r}")


def _to_tuple(name, values) -> tuple:
    """``values`` as a tuple: any iterable, a numpy array too, not a scalar."""
    try:
        return tuple(values)
    except TypeError:
        raise ValidationError(f"{name} must be an iterable, got {values!r}") from None


def _require(name, value, kind):
    """``value`` itself if it is a ``kind``; the one type check of the table,
    network and selection arguments."""
    if not isinstance(value, kind):
        raise ValidationError(
            f"{name} must be a {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _not_real(arr) -> str:
    """The type of the first str, bytes or bool entry of ``arr``, or "": a
    test of its dtype, and a pass over the entries of an object array only."""
    if arr.dtype.kind == "O":
        return next((type(v).__name__ for v in arr.flat if isinstance(v, _NOT_REAL)), "")
    return {"b": "bool", "S": "bytes", "U": "str"}.get(arr.dtype.kind, "")


def _float_array(name, values, flat=True) -> np.ndarray:
    """A fresh float64 copy of ``values``, 1-D unless ``flat`` is false; an
    entry that numpy reads as a str, bytes or bool is refused."""
    try:
        src = np.asarray(values)
        bad = _not_real(src)
        # a str that is no number fails on ``values``, with numpy's message
        arr = np.array(values if bad else src, dtype=np.float64, copy=True)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} entries must be real numbers: {exc}") from None
    if bad:
        raise ValidationError(f"{name} entries must be real numbers, not {bad}")
    return arr.reshape(-1) if flat else arr


def _float_rows(names, values, mismatch) -> np.ndarray:
    """The 1-D ``values`` copied into the rows of one float64 array. Rows
    that do not stack, or hold a str, bytes or bool, are copied one by one
    by ``_float_array``, which names a row it refuses and flattens, and
    ``mismatch``, formatted with their sizes, is raised if those differ. So
    every error, and the row it names, is the one of a row-by-row copy."""
    try:
        srcs = [np.asarray(v) for v in values]
        rows = None if any(map(_not_real, srcs)) else np.array(srcs, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        rows = None
    if rows is None or rows.ndim != 2:
        rows = [_float_array(name, v) for name, v in zip(names, values)]
        sizes = [row.size for row in rows]
        if min(sizes) != max(sizes):
            raise ValidationError(mismatch.format(*sizes))
        rows = np.array(rows)
    return rows


def point_capacity(snr: float, gain: float) -> float:
    """Rate log2(1 + snr * gain**2) of a point-to-point AWGN link, bits/s/Hz."""
    snr = _to_float("snr", snr, "positive")
    gain = _to_float("gain", gain, "nonnegative")
    x = snr * gain * gain
    if x == math.inf:
        raise ValidationError(f"snr * gain**2 overflows: snr {snr}, gain {gain}")
    return float(np.log1p(x) / _LN2)


_set = object.__setattr__  # stores a field past ``_Value.__setattr__``


class _Value:
    """Base of every value type of the package: the three array types
    (``Network``, ``RateTable``, ``af.AfCoefficients``) and every result
    record (``cuts.Cut``, ``selection.SelectionResult``, ...).

    A subclass declares its fields once, in order, as its ``__slots__`` (a
    leading underscore marks a private one). A record writes no constructor:
    ``_Value.__init__`` stores its arguments as the fields, and the
    signature, one parameter per slot, is built from the slots. Only a type
    that checks its input writes an ``__init__``, which ends in
    ``super().__init__`` with the checked fields; an array type marks its
    arrays read-only first. Instances are immutable, compare equal when
    their fields do (an array by value), and copy and pickle through the
    constructor, so a copy is checked (and read-only) again. A record hashes
    by its fields; an array type sets ``__hash__ = None``. ``repr`` names
    every field, an array as a list.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        if "__init__" not in vars(cls):
            kind = inspect.Parameter.POSITIONAL_OR_KEYWORD
            params = [inspect.Parameter(name, kind) for name in cls.__slots__]
            cls.__signature__ = inspect.Signature(params)

    def __init__(self, *args, **kwargs):
        # positional arguments, one per field, are stored as they come; any
        # other call is bound to the signature, which raises ``TypeError``
        # for a missing, unknown or repeated field as a plain constructor does
        if kwargs or len(args) != len(self.__slots__):
            args = self.__signature__.bind(*args, **kwargs).args
        for name, value in zip(self.__slots__, args):
            _set(self, name, value)

    def _args(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(map(_same, self._args(), other._args()))

    def __hash__(self):
        return hash(self._args())

    def __reduce__(self):
        return (type(self), self._args())

    def __repr__(self):
        fields = ", ".join(
            f"{name.lstrip('_')}="
            + repr(value.tolist() if isinstance(value, np.ndarray) else value)
            for name, value in zip(self.__slots__, self._args())
        )
        return f"{type(self).__name__}({fields})"


def _same(a, b) -> bool:
    """Field equality as in a tuple comparison, an array compared by value."""
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a is b or a == b


def _in_range(arr, hi=math.inf) -> bool:
    """Whether every entry of a nonempty ``arr`` is finite and in [0, hi]."""
    return (
        0.0 <= np.minimum.reduce(arr, axis=None)
        and np.maximum.reduce(arr, axis=None) <= min(hi, _MAX_FLOAT)
    )


def _check_range(name, arr, hi=math.inf):
    """Reject ``arr`` unless every entry is finite and in [0, hi]."""
    # one bulk test passes a good array (NaN fails it, -0.0 passes); the
    # checks that name the fault run only when it fails
    if arr.size and not _in_range(arr, hi):
        if not np.isfinite(arr).all():
            raise ValidationError(f"{name} entries must be finite")
        if hi == math.inf:
            raise ValidationError(f"{name} entries must be nonnegative")
        raise ValidationError(f"{name} entries must lie in [0, {hi:g}]")


class Network(_Value):
    """A diamond network: linear SNR plus per-relay channel-gain magnitudes.

    ``Network(snr, gain_s, gain_d)`` copies the gains into the two rows of
    one read-only float64 array, one entry per relay in relay order,
    validated in bulk.
    """

    __slots__ = ("snr", "_gain_s", "_gain_d")
    __hash__ = None

    def __init__(self, snr, gain_s, gain_d):
        unequal = "gain lists must have equal length, got {} and {}"
        gains = _float_rows(("gain_s", "gain_d"), (gain_s, gain_d), unequal)
        gains.flags.writeable = False  # before its rows are taken as views
        gs, gd = gains
        # checks in order: gains, snr, at least one relay, overflow of the
        # derived rates; each message names the first relay at fault. A NaN
        # makes the minimum NaN, which fails the bulk test.
        if gs.size:
            top = np.maximum.reduce(gains, axis=None)
            if not (np.minimum.reduce(gains, axis=None) >= 0.0 and top < math.inf):
                valid = ((gains >= 0.0) & (gains < math.inf)).all(axis=0)
                i = int(valid.argmin())
                _to_float("gain_s", gs[i], "nonnegative")
                _to_float("gain_d", gd[i], "nonnegative")
        snr = _to_float("snr", snr, "positive")
        if gs.size == 0:
            raise ValidationError("a network needs at least one relay")
        # rounding is monotone, so only the largest gain can overflow; Python
        # floats never warn
        top = float(top)
        if snr * top * top == math.inf:
            with np.errstate(over="ignore"):
                fits = np.isfinite(snr * gs * gs) & np.isfinite(snr * gd * gd)
            i = int(fits.argmin())
            g = float(gs[i])
            name = "gain_d" if math.isfinite(snr * g * g) else "gain_s"
            raise ValidationError(f"relay {i + 1}: snr * {name}**2 overflows")
        super().__init__(snr, gs, gd)

    @property
    def n(self) -> int:
        return int(self._gain_s.size)

    def gain_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(gain_s, gain_d): the stored read-only float64 arrays, not copies."""
        return self._gain_s, self._gain_d


class RateTable(_Value):
    """Per-relay point-to-point rates (r_s, r_d), the canonical description.

    Arrays are copied on construction and frozen read-only; instances are
    safe to share across threads. A ``-0.0`` rate is stored as ``0.0``.
    """

    __slots__ = ("r_s", "r_d")
    __hash__ = None

    def __init__(self, r_s, r_d):
        unequal = "rate lists must have equal length, got {} and {}"
        rates = _float_rows(("r_s", "r_d"), (r_s, r_d), unequal)
        if rates.shape[1] == 0:
            raise ValidationError("a rate table needs at least one relay")
        # one bulk test of both rows; the checks that name the fault, r_s
        # first, run only when it fails
        if not _in_range(rates):
            _check_range("r_s", rates[0])
            _check_range("r_d", rates[1])
        np.add(rates, 0.0, out=rates)  # -0.0 + 0.0 is 0.0: in place, on the copy
        # a block of its own for each row: with one 2 x n block per table, a
        # pipeline at n = 10**6 peaked 21 MB higher, as glibc's dynamic mmap
        # threshold moved
        r_s, r_d = rates[0].copy(), rates[1].copy()
        r_s.flags.writeable = r_d.flags.writeable = False
        super().__init__(r_s, r_d)

    @property
    def n(self) -> int:
        return int(self.r_s.size)


def _rates(net: Network) -> tuple[np.ndarray, np.ndarray]:
    """(r_s, r_d) of ``net``, the arrays ``rate_table`` validates and stores."""
    gs, gd = net.gain_arrays()
    return np.log1p(net.snr * gs * gs) / _LN2, np.log1p(net.snr * gd * gd) / _LN2


def rate_table(net: Network) -> RateTable:
    """Point-to-point rates of every relay in ``net``."""
    return RateTable(*_rates(_require("net", net, Network)))


def _linear_snrs(rt: RateTable) -> tuple[np.ndarray, np.ndarray]:
    """(2**r_s - 1, 2**r_d - 1), the linear link SNRs behind ``rt``; a rate
    above ``_MAX_INVERTIBLE_RATE`` is rejected."""
    if max(np.maximum.reduce(rt.r_s), np.maximum.reduce(rt.r_d)) > _MAX_INVERTIBLE_RATE:
        raise ValidationError(
            f"rates above {_MAX_INVERTIBLE_RATE} bits/s/Hz cannot be mapped back "
            "to linear SNRs in float64"
        )
    return np.expm1(rt.r_s * _LN2), np.expm1(rt.r_d * _LN2)


def network_from(rt: RateTable, snr: float) -> Network:
    """Network with the given ``snr`` whose rate table reproduces ``rt``.

    Inverts the rate formula: gain = sqrt((2**r - 1) / snr). Round-trips
    through ``rate_table`` within 1e-12 relative error.
    """
    snr = _to_float("snr", snr, "positive")
    ts2, td2 = _linear_snrs(_require("rt", rt, RateTable))
    # division is monotone, so only the largest quotient can overflow
    if float(max(np.maximum.reduce(ts2), np.maximum.reduce(td2))) / snr == math.inf:
        raise ValidationError(
            f"snr {snr} is too small for these rates: (2**r - 1) / snr overflows"
        )
    return Network(snr, np.sqrt(ts2 / snr), np.sqrt(td2 / snr))
