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

The text is parsed in blocks of whole lines, about 32 KiB each, by one of
two paths. The bulk path, ``_canonical_pairs``, takes a block of nothing
but canonical ``relay = a b`` or ``rate = a b`` lines of one key, as
``dumps`` writes them (single spaces, each line ending in a newline, no
comment), with a few C-level string and ``float`` calls over the whole
block. The line parser in ``_parse`` reads every layout above and takes
any other block (the first, with its header lines, say) and any block with
a bad number. Both run ``float`` on the same number strings, so the values
and every error message, line number included, are the same either way.

A number is what ``float`` reads, less two of its extensions: ``_``
between digits and non-ASCII digits. ``dumps`` writes neither, and either
would let a typo read as another network, so both are errors. A block with
a ``_`` or a non-ASCII character goes to the line parser, which reports
them.
"""

from __future__ import annotations

import os
from array import array

import numpy as np

from .errors import ValidationError
from .model import Network, RateTable, _Value, _require, _to_float
from .model import network_from, rate_table


class NetworkFile(_Value):
    """Parsed network file: exactly one of ``network`` / ``rates`` is set.

    ``snr`` belongs to the rates form only (None or a positive finite
    number, stored as a float); the gains form carries it in ``network``.
    """

    __slots__ = ("network", "rates", "snr", "label")

    def __init__(
        self,
        network: Network | None = None,
        rates: RateTable | None = None,
        snr: float | None = None,
        label: str | None = None,
    ):
        if (network is None) == (rates is None):
            raise ValidationError(
                "a network file holds exactly one payload: gains or rates"
            )
        if network is not None:
            _require("network", network, Network)
        if rates is not None:
            _require("rates", rates, RateTable)
        if snr is not None:
            if network is not None:
                raise ValidationError(
                    "snr is for the rates form; a gains-form file takes it "
                    "from the network"
                )
            snr = _to_float("snr", snr, "positive")
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
        super().__init__(network, rates, snr, label)

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

# characters of text read and split into lines or tokens at a time, so that
# only one block's text and strings are alive at once. A block and every
# list, tuple and string made from it stay below glibc's default 128 KiB
# mmap threshold: freeing 1 MiB blocks raised its dynamic threshold, so that
# later multi-megabyte arrays were placed on the heap and kept, which cost
# the scale benchmark 21 MB of peak RSS. At 32 KiB even a block of the
# shortest pair lines, 'rate = 0 0', splits into a token list of 96 KB.
_CHUNK = 1 << 15

# the keys of the per-relay number pairs, one buffer each
_PAIR_KEYS = ("relay", "rate")


def loads(text: str) -> NetworkFile:
    """Parse the text form of a network file."""
    return _parse(_text_blocks(_require("text", text, str)))


def load(path) -> NetworkFile:
    """Read and parse a network file, one block of lines at a time."""
    if not isinstance(path, (str, os.PathLike)):
        # an int would be taken for a file descriptor, bytes for a raw path
        raise ValidationError(
            f"path must be a str or os.PathLike, got {type(path).__name__}"
        )
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # each block ends at a line break (or the end of the file), so no
            # more than one block of the text is held at once
            return _parse(iter(lambda: fh.read(_CHUNK) + fh.readline(), ""))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from None


def _text_blocks(text):
    """``text`` in blocks of about ``_CHUNK`` characters, each ending just
    after a '\n', so that the blocks split into the same lines as the whole
    text does."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK)
        end = len(text) if end < 0 else end + 1
        yield text[start:end]
        start = end


def _canonical_pairs(block):
    """``(key, numbers, lines)`` if ``block`` is nothing but ``lines``
    canonical ``key = a b`` lines of one key, each ending in a newline, and
    every number parses; None otherwise. ``numbers`` holds the pairs
    interleaved, as ``_parse`` buffers them.
    """
    if "#" in block or "_" in block or not block.isascii():
        return None
    tokens = block.split()
    if not tokens or len(tokens) % 4 or tokens[0] not in _PAIR_KEYS:
        return None
    key, lines = tokens[0], len(tokens) // 4
    del tokens[0::4]  # the keys
    del tokens[0::3]  # the '='s, leaving a b a b ...
    # the block must be exactly its lines rebuilt in the canonical layout:
    # this rejects another key or separator, other whitespace, a line broken
    # elsewhere and a missing final '\n', which a token count lets through
    if (f"{key} = %s %s\n" * lines) % tuple(tokens) != block:
        return None
    try:
        # a fresh array, so a bad number leaves the caller's buffer as it was
        return key, array("d", map(float, tokens)), lines
    except ValueError:
        return None


def _plain(token, convert=float):
    """``convert(token)`` under the format's number rule: ``int`` and
    ``float`` also read ``_`` and non-ASCII digits, which raise a
    ``ValueError`` here. The CLI reads its numeric arguments by it too."""
    if "_" in token or not token.isascii():
        raise ValueError(
            f"{token!r} is not a number: '_' and non-ASCII characters are not allowed"
        )
    return convert(token)


def _number(token, lineno):
    """``_plain(token)``, with a ``ValidationError`` naming line ``lineno``."""
    try:
        return _plain(token)
    except ValueError as exc:
        raise ValidationError(f"line {lineno}: {exc}") from None


def _parse(blocks) -> NetworkFile:
    """Parse a network file given as consecutive blocks of whole lines.

    Each ``relay`` / ``rate`` pair goes straight into a float64 buffer, so
    no per-relay object outlives its block. A block of canonical pair lines
    is taken whole by ``_canonical_pairs``; any other block, line by line.
    """
    header = {}  # the 'label' and 'snr' values
    buffers = {key: array("d") for key in _PAIR_KEYS}  # pairs interleaved
    lineno = 0
    for block in blocks:
        bulk = _canonical_pairs(block)
        if bulk is not None:
            key, numbers, lines = bulk
            buffers[key].extend(numbers)
            lineno += lines
            continue
        for raw in block.splitlines():
            lineno += 1
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
                value = _number(value, lineno)
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
            buffers[key].extend([_number(x, lineno) for x in numbers])
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


def from_network(net: Network, label: str | None = None) -> NetworkFile:
    return NetworkFile(network=net, label=label)


def from_rates(
    rt: RateTable, snr: float | None = None, label: str | None = None
) -> NetworkFile:
    return NetworkFile(rates=rt, snr=snr, label=label)
