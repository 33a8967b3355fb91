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

Relays are 1-based in all input/output and keep file order. Numbers are
serialized with ``repr`` so a written file parses back to identical floats.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .model import Network, RateTable, RelayChannels, network_from, rate_table


@dataclass(frozen=True, slots=True)
class NetworkFile:
    """Parsed network file: exactly one of ``network`` / ``rates`` is set."""

    network: Network | None = None
    rates: RateTable | None = None
    snr: float | None = None
    label: str | None = None

    def __post_init__(self):
        if (self.network is None) == (self.rates is None):
            raise ValidationError(
                "a network file holds exactly one payload: gains or rates"
            )
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
        lines = []
        if self.label is not None:
            lines.append(f"label = {self.label}")
        if self.network is not None:
            lines.append(f"snr = {self.network.snr!r}")
            for r in self.network.relays:
                lines.append(f"relay = {r.gain_s!r} {r.gain_d!r}")
        else:
            if self.snr is not None:
                lines.append(f"snr = {self.snr!r}")
            for rs, rd in zip(self.rates.r_s, self.rates.r_d):
                lines.append(f"rate = {float(rs)!r} {float(rd)!r}")
        return "\n".join(lines) + "\n"


def _parse_pair(value, lineno, what):
    parts = value.split()
    if len(parts) != 2:
        raise ValidationError(
            f"line {lineno}: expected two numbers after '{what} =', got {value!r}"
        )
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ValidationError(f"line {lineno}: {exc}") from None


def loads(text: str) -> NetworkFile:
    """Parse the text form of a network file."""
    label = None
    snr = None
    relay_pairs = []
    rate_pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key == "label":
            label = value
        elif key == "snr":
            try:
                snr = float(value)
            except ValueError as exc:
                raise ValidationError(f"line {lineno}: {exc}") from None
        elif key == "relay":
            relay_pairs.append(_parse_pair(value, lineno, "relay"))
        elif key == "rate":
            rate_pairs.append(_parse_pair(value, lineno, "rate"))
        else:
            raise ValidationError(f"line {lineno}: unknown key {key!r}")
    if relay_pairs and rate_pairs:
        raise ValidationError("file mixes 'relay' and 'rate' lines; pick one shape")
    if relay_pairs:
        if snr is None:
            raise ValidationError("gains form requires an 'snr = ...' line")
        net = Network(
            snr=snr,
            relays=tuple(RelayChannels(gs, gd) for gs, gd in relay_pairs),
        )
        return NetworkFile(network=net, label=label)
    if rate_pairs:
        rt = RateTable([p[0] for p in rate_pairs], [p[1] for p in rate_pairs])
        return NetworkFile(rates=rt, snr=snr, label=label)
    raise ValidationError("file holds neither 'relay' nor 'rate' lines")


def load(path) -> NetworkFile:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def from_network(net: Network, label: str | None = None) -> NetworkFile:
    return NetworkFile(network=net, label=label)


def from_rates(
    rt: RateTable, snr: float | None = None, label: str | None = None
) -> NetworkFile:
    return NetworkFile(rates=rt, snr=snr, label=label)
