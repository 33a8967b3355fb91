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
object. ``Network.from_gains(snr, gain_s, gain_d)`` builds a network from
arrays; ``Network(snr, relays)`` from ``RelayChannels`` goes through the
same storage and checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_LN2 = math.log(2.0)


def _to_float(name, value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a real number, got {value!r}") from None


def _float_array(name, values, flat=True) -> np.ndarray:
    """A fresh float64 copy of ``values``, 1-D unless ``flat`` is false."""
    try:
        arr = np.array(values, dtype=np.float64, copy=True)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} entries must be real numbers: {exc}") from None
    return arr.reshape(-1) if flat else arr


def _require_finite(name, value):
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")


def point_capacity(snr: float, gain: float) -> float:
    """Rate log2(1 + snr * gain**2) of a point-to-point AWGN link, bits/s/Hz."""
    snr = _to_float("snr", snr)
    gain = _to_float("gain", gain)
    _require_finite("snr", snr)
    _require_finite("gain", gain)
    if snr <= 0.0:
        raise ValidationError(f"snr must be positive, got {snr}")
    if gain < 0.0:
        raise ValidationError(f"gain must be nonnegative, got {gain}")
    return float(np.log1p(snr * gain * gain) / _LN2)


@dataclass(frozen=True, slots=True)
class RelayChannels:
    """Channel-gain magnitudes of one relay: source side and destination side."""

    gain_s: float
    gain_d: float

    def __post_init__(self):
        for name in ("gain_s", "gain_d"):
            value = _to_float(name, getattr(self, name))
            _require_finite(name, value)
            if value < 0.0:
                raise ValidationError(f"{name} must be nonnegative, got {value}")
            object.__setattr__(self, name, value)


class Network:
    """A diamond network: linear SNR plus per-relay channel-gain magnitudes.

    The gains are held as two read-only float64 arrays, one entry per relay
    in relay order, validated in bulk. Build from arrays with
    ``Network.from_gains(snr, gain_s, gain_d)`` or, equivalently, from
    ``RelayChannels`` with ``Network(snr, relays)``; ``relays`` rebuilds that
    tuple on demand. Instances are immutable and compare by value.
    """

    __slots__ = ("snr", "_gain_s", "_gain_d")

    def __init__(self, snr, relays):
        relays = tuple(relays)
        if not all(isinstance(r, RelayChannels) for r in relays):
            raise ValidationError("relays must be RelayChannels instances")
        n = len(relays)
        gs = np.fromiter((r.gain_s for r in relays), dtype=np.float64, count=n)
        gd = np.fromiter((r.gain_d for r in relays), dtype=np.float64, count=n)
        self._store(snr, gs, gd)

    @classmethod
    def from_gains(cls, snr, gain_s, gain_d) -> "Network":
        """Network from per-relay gain magnitudes; the arrays are copied."""
        gs = _float_array("gain_s", gain_s)
        gd = _float_array("gain_d", gain_d)
        if gs.size != gd.size:
            raise ValidationError(
                f"gain lists must have equal length, got {gs.size} and {gd.size}"
            )
        net = cls.__new__(cls)
        net._store(snr, gs, gd)
        return net

    def _store(self, snr, gs, gd):
        # checks in order: gains, snr, at least one relay, overflow of the
        # derived rates; each message names the first relay at fault
        valid = (gs >= 0.0) & (gs < math.inf) & (gd >= 0.0) & (gd < math.inf)
        if not valid.all():
            i = int(valid.argmin())
            RelayChannels(float(gs[i]), float(gd[i]))  # raises the relay's message
        snr = _to_float("snr", snr)
        _require_finite("snr", snr)
        if snr <= 0.0:
            raise ValidationError(f"snr must be positive, got {snr}")
        if gs.size == 0:
            raise ValidationError("a network needs at least one relay")
        with np.errstate(over="ignore"):
            fits = np.isfinite(snr * gs * gs) & np.isfinite(snr * gd * gd)
        if not fits.all():
            i = int(fits.argmin())
            g = float(gs[i])
            name = "gain_d" if math.isfinite(snr * g * g) else "gain_s"
            raise ValidationError(f"relay {i + 1}: snr * {name}**2 overflows")
        gs.flags.writeable = False
        gd.flags.writeable = False
        object.__setattr__(self, "snr", snr)
        object.__setattr__(self, "_gain_s", gs)
        object.__setattr__(self, "_gain_d", gd)

    def __setattr__(self, name, value):
        raise AttributeError("Network is immutable")

    @property
    def n(self) -> int:
        return int(self._gain_s.size)

    @property
    def relays(self) -> tuple[RelayChannels, ...]:
        """One ``RelayChannels`` per relay, built on each access."""
        return tuple(
            RelayChannels(a, b)
            for a, b in zip(self._gain_s.tolist(), self._gain_d.tolist())
        )

    def gain_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(gain_s, gain_d): the stored read-only float64 arrays, not copies."""
        return self._gain_s, self._gain_d

    def __eq__(self, other):
        if not isinstance(other, Network):
            return NotImplemented
        return (
            self.snr == other.snr
            and np.array_equal(self._gain_s, other._gain_s)
            and np.array_equal(self._gain_d, other._gain_d)
        )

    __hash__ = None

    def __reduce__(self):
        return (Network.from_gains, (self.snr, self._gain_s, self._gain_d))

    def __repr__(self):
        return (
            f"Network(snr={self.snr!r}, gain_s={self._gain_s.tolist()}, "
            f"gain_d={self._gain_d.tolist()})"
        )


class RateTable:
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
        for name, arr in (("r_s", r_s), ("r_d", r_d)):
            # one bulk test (NaN fails both sides, -0.0 passes); the checks
            # that name the fault run only when it fails
            if not (0.0 <= arr.min() and arr.max() < math.inf):
                if not np.isfinite(arr).all():
                    raise ValidationError(f"{name} entries must be finite")
                raise ValidationError(f"{name} entries must be nonnegative")
        r_s.flags.writeable = False
        r_d.flags.writeable = False
        object.__setattr__(self, "r_s", r_s)
        object.__setattr__(self, "r_d", r_d)

    def __setattr__(self, name, value):
        raise AttributeError("RateTable is immutable")

    @property
    def n(self) -> int:
        return int(self.r_s.size)

    def __eq__(self, other):
        if not isinstance(other, RateTable):
            return NotImplemented
        return np.array_equal(self.r_s, other.r_s) and np.array_equal(
            self.r_d, other.r_d
        )

    def __repr__(self):
        return f"RateTable(r_s={self.r_s.tolist()}, r_d={self.r_d.tolist()})"


def rate_table(net: Network) -> RateTable:
    """Point-to-point rates of every relay in ``net``."""
    gs, gd = net.gain_arrays()
    r_s = np.log1p(net.snr * gs * gs) / _LN2
    r_d = np.log1p(net.snr * gd * gd) / _LN2
    return RateTable(r_s, r_d)


def network_from(rt: RateTable, snr: float) -> Network:
    """Network with the given ``snr`` whose rate table reproduces ``rt``.

    Inverts the rate formula: gain = sqrt((2**r - 1) / snr). Round-trips
    through ``rate_table`` within 1e-12 relative error.
    """
    snr = _to_float("snr", snr)
    _require_finite("snr", snr)
    if snr <= 0.0:
        raise ValidationError(f"snr must be positive, got {snr}")
    gs = np.sqrt(np.expm1(rt.r_s * _LN2) / snr)
    gd = np.sqrt(np.expm1(rt.r_d * _LN2) / snr)
    return Network.from_gains(snr, gs, gd)
