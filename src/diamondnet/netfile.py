"""The network file format shared by every CLI command.

Line-oriented ``key = value`` text with ``#`` comments. Two payload shapes,
exactly one of which must be present:

gains form (physical description)::

    label = downtown-3            # optional
    snr = 4.0
    relay = 1.25 0.8              # gain_s gain_d, one line per relay

rates form (combinatorial description)::

    label = staircase-k2          # optional
    snr = 4.0                     # optional; needed only to rebuild gains
    rate = 1.0 3.0                # r_s r_d, one line per relay

``label`` and ``snr`` may each appear at most once; a repeated line is an
error, not an override. Relays are 1-based in all input/output and keep
file order. Numbers are serialized with ``repr`` so a written file parses
back to identical floats.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import Network, RateTable, _to_float, network_from, rate_table


@dataclass(frozen=True, slots=True)
class NetworkFile:
    """Parsed network file: exactly one of ``network`` / ``rates`` is set.

    ``snr`` belongs to the rates form only (None or a positive finite
    number); the gains form carries it in ``network``.
    """

    network: Network | None = None
    rates: RateTable | None = None
    snr: float | None = None
    label: str | None = None

    def __post_init__(self):
        if (self.network is None) == (self.rates is None):
            raise ValidationError(
                "a network file holds exactly one payload: gains or rates"
            )
        if self.snr is not None:
            if self.network is not None:
                raise ValidationError(
                    "snr is for the rates form; a gains-form file takes it "
                    "from the network"
                )
            object.__setattr__(self, "snr", _to_float("snr", self.snr, "positive"))
        label = self.label
        if label is not None and (
            not isinstance(label, str)
            or "#" in label
            or label.splitlines() not in ([], [label])
            or label != label.strip()
        ):
            # anything else would not read back unchanged from ``dumps``
            raise ValidationError(
                f"label {label!r} must be a string without '#', line breaks "
                "or surrounding whitespace"
            )

    @property
    def n(self) -> int:
        return self.network.n if self.network is not None else self.rates.n

    def to_rate_table(self) -> RateTable:
        """The rate description, derived from gains when necessary."""
        if self.rates is not None:
            return self.rates
        return rate_table(self.network)

    def to_network(self) -> Network:
        """The physical description; rates-form files must carry an snr."""
        if self.network is not None:
            return self.network
        if self.snr is None:
            raise ValidationError(
                "this rates-form file has no snr, so gains cannot be rebuilt; "
                "add an 'snr = ...' line or supply a gains-form file"
            )
        return network_from(self.rates, self.snr)

    def dumps(self) -> str:
        """Serialize back to the canonical text form."""
        parts = []
        if self.label is not None:
            parts.append(f"label = {self.label}\n")
        if self.network is not None:
            parts.append(f"snr = {self.network.snr!r}\n")
            key, (a, b) = "relay", self.network.gain_arrays()
        else:
            if self.snr is not None:
                parts.append(f"snr = {self.snr!r}\n")
            key, a, b = "rate", self.rates.r_s, self.rates.r_d
        # one string per block of lines, not per line, keeps the peak memory
        # near twice the output
        for i in range(0, a.size, _BLOCK):
            pairs = zip(a[i : i + _BLOCK].tolist(), b[i : i + _BLOCK].tolist())
            parts.append("".join([f"{key} = {x!r} {y!r}\n" for x, y in pairs]))
        return "".join(parts)


# lines formatted into one string at a time by ``dumps``
_BLOCK = 1 << 16

# characters of text split into lines at a time, so that only one chunk's
# line strings are alive at once
_CHUNK = 1 << 20


def loads(text: str) -> NetworkFile:
    """Parse the text form of a network file.

    Each ``relay`` / ``rate`` pair goes straight into a float64 buffer, so
    no per-relay object outlives its line.
    """
    header = {}  # the 'label' and 'snr' values
    buffers = {"relay": array("d"), "rate": array("d")}  # pairs interleaved
    lineno = 0
    start = 0
    while start < len(text):
        # a chunk ends just after a '\n', so it splits into the same lines
        # as the whole text does
        end = text.find("\n", start + _CHUNK)
        end = len(text) if end < 0 else end + 1
        for raw in text[start:end].splitlines():
            lineno += 1
            parts = raw.split()
            if (
                len(parts) == 4
                and parts[1] == "="
                and parts[0] in buffers
                and "#" not in raw
            ):
                # the canonical 'relay = a b' / 'rate = a b' line
                key, numbers = parts[0], parts[2:]
            else:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, eq, value = line.partition("=")
                if not eq:
                    raise ValidationError(
                        f"line {lineno}: expected 'key = value', got {raw!r}"
                    )
                key = key.strip().lower()
                value = value.strip()
                if key == "snr":
                    try:
                        value = float(value)
                    except ValueError as exc:
                        raise ValidationError(f"line {lineno}: {exc}") from None
                if key in ("label", "snr"):
                    if key in header:
                        # keeping either line would silently give another network
                        raise ValidationError(f"line {lineno}: duplicate {key!r}")
                    header[key] = value
                    continue
                if key not in buffers:
                    raise ValidationError(f"line {lineno}: unknown key {key!r}")
                numbers = value.split()
                if len(numbers) != 2:
                    raise ValidationError(
                        f"line {lineno}: expected two numbers after '{key} =', "
                        f"got {value!r}"
                    )
            try:
                buffers[key].extend(map(float, numbers))
            except ValueError as exc:
                raise ValidationError(f"line {lineno}: {exc}") from None
        start = end
    label, snr = header.get("label"), header.get("snr")
    relay, rate = buffers["relay"], buffers["rate"]
    if relay and rate:
        raise ValidationError("file mixes 'relay' and 'rate' lines; pick one shape")
    if relay:
        if snr is None:
            raise ValidationError("gains form requires an 'snr = ...' line")
        gains = np.frombuffer(relay, dtype=np.float64)
        net = Network(snr, gains[0::2], gains[1::2])
        return NetworkFile(network=net, label=label)
    if rate:
        rates = np.frombuffer(rate, dtype=np.float64)
        rt = RateTable(rates[0::2], rates[1::2])
        return NetworkFile(rates=rt, snr=snr, label=label)
    raise ValidationError("file holds neither 'relay' nor 'rate' lines")


def load(path) -> NetworkFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from None
    return loads(text)


def from_network(net: Network, label: str | None = None) -> NetworkFile:
    return NetworkFile(network=net, label=label)


def from_rates(
    rt: RateTable, snr: float | None = None, label: str | None = None
) -> NetworkFile:
    return NetworkFile(rates=rt, snr=snr, label=label)
