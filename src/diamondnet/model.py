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
and check the arrays they are given. Both, and ``af.AfCoefficients``, share
one base that makes them immutable, compared by value, and copied or
pickled through their constructor.

Scalar arguments follow one rule everywhere in the package, enforced by
``_to_int`` and ``_to_float``: an integer (n, k, a seed, a relay index) is a
Python or numpy integer, never a ``bool`` or a float; a rate or an SNR is a
finite real number. A violation raises ``ValidationError`` naming the
argument.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

_LN2 = math.log(2.0)

# 2**r - 1 overflows float64 beyond this rate, in bits/s/Hz
_MAX_INVERTIBLE_RATE = 1023.0

_MAX_FLOAT = float(np.finfo(np.float64).max)


def _to_float(name, value, sign=None) -> float:
    """``value`` as a float; with ``sign`` ("positive" or "nonnegative") it
    must also be finite and of that sign."""
    try:
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


def _float_array(name, values, flat=True) -> np.ndarray:
    """A fresh float64 copy of ``values``, 1-D unless ``flat`` is false."""
    try:
        arr = np.array(values, dtype=np.float64, copy=True)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} entries must be real numbers: {exc}") from None
    return arr.reshape(-1) if flat else arr


def point_capacity(snr: float, gain: float) -> float:
    """Rate log2(1 + snr * gain**2) of a point-to-point AWGN link, bits/s/Hz."""
    snr = _to_float("snr", snr, "positive")
    gain = _to_float("gain", gain, "nonnegative")
    x = snr * gain * gain
    if x == math.inf:
        raise ValidationError(f"snr * gain**2 overflows: snr {snr}, gain {gain}")
    return float(np.log1p(x) / _LN2)


class _ArrayValue:
    """Base of the validated, read-only values built from float64 arrays.

    A subclass lists its constructor arguments, in order, as its
    ``__slots__`` (a leading underscore marks a private one), checks them in
    ``__init__`` and stores them with ``_freeze``. Instances are immutable,
    compare by value, are not hashable, and copy and pickle through the
    constructor, so a copy is checked and read-only again.
    """

    __slots__ = ()

    def _freeze(self, *values):
        for name, value in zip(self.__slots__, values):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def _args(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(map(np.array_equal, self._args(), other._args()))

    __hash__ = None

    def __reduce__(self):
        return (type(self), self._args())

    def __repr__(self):
        fields = ", ".join(
            f"{name.lstrip('_')}="
            + repr(value.tolist() if isinstance(value, np.ndarray) else value)
            for name, value in zip(self.__slots__, self._args())
        )
        return f"{type(self).__name__}({fields})"


def _check_range(name, arr, hi=math.inf):
    """Reject ``arr`` unless every entry is finite and in [0, hi]."""
    # one bulk test passes a good array (NaN fails it, -0.0 passes); the
    # checks that name the fault run only when it fails
    if arr.size and not (0.0 <= arr.min() and arr.max() <= min(hi, _MAX_FLOAT)):
        if not np.isfinite(arr).all():
            raise ValidationError(f"{name} entries must be finite")
        if hi == math.inf:
            raise ValidationError(f"{name} entries must be nonnegative")
        raise ValidationError(f"{name} entries must lie in [0, {hi:g}]")


class Network(_ArrayValue):
    """A diamond network: linear SNR plus per-relay channel-gain magnitudes.

    ``Network(snr, gain_s, gain_d)`` copies the gains into two read-only
    float64 arrays, one entry per relay in relay order, validated in bulk.
    """

    __slots__ = ("snr", "_gain_s", "_gain_d")

    def __init__(self, snr, gain_s, gain_d):
        gs = _float_array("gain_s", gain_s)
        gd = _float_array("gain_d", gain_d)
        if gs.size != gd.size:
            raise ValidationError(
                f"gain lists must have equal length, got {gs.size} and {gd.size}"
            )
        # checks in order: gains, snr, at least one relay, overflow of the
        # derived rates; each message names the first relay at fault
        valid = (gs >= 0.0) & (gs < math.inf) & (gd >= 0.0) & (gd < math.inf)
        if not valid.all():
            i = int(valid.argmin())
            _to_float("gain_s", gs[i], "nonnegative")
            _to_float("gain_d", gd[i], "nonnegative")
        snr = _to_float("snr", snr, "positive")
        if gs.size == 0:
            raise ValidationError("a network needs at least one relay")
        with np.errstate(over="ignore"):
            fits = np.isfinite(snr * gs * gs) & np.isfinite(snr * gd * gd)
        if not fits.all():
            i = int(fits.argmin())
            g = float(gs[i])
            name = "gain_d" if math.isfinite(snr * g * g) else "gain_s"
            raise ValidationError(f"relay {i + 1}: snr * {name}**2 overflows")
        self._freeze(snr, gs, gd)

    @property
    def n(self) -> int:
        return int(self._gain_s.size)

    def gain_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(gain_s, gain_d): the stored read-only float64 arrays, not copies."""
        return self._gain_s, self._gain_d


class RateTable(_ArrayValue):
    """Per-relay point-to-point rates (r_s, r_d), the canonical description.

    Arrays are copied on construction and frozen read-only; instances are
    safe to share across threads.
    """

    __slots__ = ("r_s", "r_d")

    def __init__(self, r_s, r_d):
        r_s = _float_array("r_s", r_s)
        r_d = _float_array("r_d", r_d)
        if r_s.size != r_d.size:
            raise ValidationError(
                f"rate lists must have equal length, got {r_s.size} and {r_d.size}"
            )
        if r_s.size == 0:
            raise ValidationError("a rate table needs at least one relay")
        _check_range("r_s", r_s)
        _check_range("r_d", r_d)
        self._freeze(r_s, r_d)

    @property
    def n(self) -> int:
        return int(self.r_s.size)


def rate_table(net: Network) -> RateTable:
    """Point-to-point rates of every relay in ``net``."""
    gs, gd = net.gain_arrays()
    r_s = np.log1p(net.snr * gs * gs) / _LN2
    r_d = np.log1p(net.snr * gd * gd) / _LN2
    return RateTable(r_s, r_d)


def _linear_snrs(rt: RateTable) -> tuple[np.ndarray, np.ndarray]:
    """(2**r_s - 1, 2**r_d - 1), the linear link SNRs behind ``rt``; a rate
    above ``_MAX_INVERTIBLE_RATE`` is rejected."""
    if max(rt.r_s.max(), rt.r_d.max()) > _MAX_INVERTIBLE_RATE:
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
    ts2, td2 = _linear_snrs(rt)
    # division is monotone, so only the largest quotient can overflow
    if float(max(ts2.max(), td2.max())) / snr == math.inf:
        raise ValidationError(
            f"snr {snr} is too small for these rates: (2**r - 1) / snr overflows"
        )
    return Network(snr, np.sqrt(ts2 / snr), np.sqrt(td2 / snr))
