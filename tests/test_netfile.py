import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamondnet import netfile
from diamondnet import (
    Network,
    NetworkFile,
    RateTable,
    ValidationError,
    from_network,
    from_rates,
    load,
    loads,
    rate_table,
)

GAINS_TEXT = """\
# two-relay example
label = demo
snr = 2.0
relay = 1.5 0.25   # gain_s gain_d
relay = 0.0 3.0
"""

RATES_TEXT = """\
label = rates-demo
snr = 4.0
rate = 1.0 3.0
rate = 2.5 0.0
"""


# labels that ``dumps`` writes and ``loads`` reads back unchanged
LABELS = st.text(
    st.characters(blacklist_characters="#"), max_size=12
).filter(lambda s: s == s.strip() and s.splitlines() in ([], [s]))


# float() reads '1_0' as 10.0 and the Arabic-Indic digit '\u0661' as 1.0
NOT_A_NUMBER = "is not a number: '_' and non-ASCII characters are not allowed"


class TestParsing:
    def test_gains_form(self):
        nf = loads(GAINS_TEXT)
        assert nf.label == "demo"
        assert nf.network is not None and nf.rates is None
        assert nf.network.snr == 2.0
        gs, gd = nf.network.gain_arrays()
        assert (gs[0], gd[0]) == (1.5, 0.25)
        assert nf.n == 2

    def test_rates_form(self):
        nf = loads(RATES_TEXT)
        assert nf.rates is not None and nf.network is None
        assert nf.snr == 4.0
        assert nf.rates.r_s.tolist() == [1.0, 2.5]

    def test_rates_form_without_snr(self):
        nf = loads("rate = 1.0 2.0\n")
        assert nf.snr is None
        with pytest.raises(ValidationError):
            nf.to_network()

    def test_mixed_shapes_rejected(self):
        with pytest.raises(ValidationError):
            loads("snr = 1.0\nrelay = 1 1\nrate = 1 1\n")

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            loads("label = nothing\n")

    def test_gains_form_needs_snr(self):
        with pytest.raises(ValidationError):
            loads("relay = 1 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError):
            loads("snr = 1.0\nrelais = 1 1\n")

    def test_malformed_pair_rejected(self):
        with pytest.raises(ValidationError):
            loads("snr = 1.0\nrelay = 1.0\n")

    @pytest.mark.parametrize("text,message", [
        ("snr = 1\nsnr = 2\nrelay = 1 1\n", "line 2: duplicate 'snr'"),
        ("snr = 1\nrate = 1 1\n# note\nSNR = 1\n", "line 4: duplicate 'snr'"),
        ("label = a\nsnr = 1\nlabel = b\nrelay = 1 1\n", "line 3: duplicate 'label'"),
        ("label =\nlabel =\nrate = 1 1\n", "line 2: duplicate 'label'"),
    ])
    def test_repeated_snr_or_label_rejected(self, text, message):
        with pytest.raises(ValidationError) as info:
            loads(text)
        assert str(info.value) == message

    def test_comments_and_blanks_ignored(self):
        nf = loads("\n# header\nsnr = 1.0\n\nrelay = 1 2\n")
        assert nf.n == 1

    @pytest.mark.parametrize("snr,message", [
        ("-3", "snr must be positive, got -3.0"),
        ("0", "snr must be positive, got 0.0"),
        ("nan", "snr must be finite, got nan"),
        ("inf", "snr must be finite, got inf"),
    ])
    def test_rates_form_snr_must_be_positive_and_finite(self, snr, message):
        with pytest.raises(ValidationError) as info:
            loads(f"snr = {snr}\nrate = 1 1\n")
        assert str(info.value) == message


class TestNetworkFileSnr:
    """A rates payload takes None or a positive finite snr; a gains one None."""

    def test_rates_snr_is_checked_and_stored_as_float(self):
        rt = RateTable([1.0], [2.0])
        assert from_rates(rt).snr is None
        nf = from_rates(rt, snr=4)
        assert type(nf.snr) is float and nf.snr == 4.0
        assert loads(nf.dumps()) == nf
        for bad, message in [
            ("abc", "snr must be a real number, got 'abc'"),
            (math.nan, "snr must be finite, got nan"),
            (-1.0, "snr must be positive, got -1.0"),
        ]:
            with pytest.raises(ValidationError) as info:
                from_rates(rt, snr=bad)
            assert str(info.value) == message

    def test_gains_payload_rejects_a_separate_snr(self):
        net = Network(2.0, [1.0], [1.0])
        assert NetworkFile(network=net).snr is None
        with pytest.raises(ValidationError, match="^snr is for the rates form"):
            NetworkFile(network=net, snr=5.0)


class TestNetworkFilePayload:
    @pytest.mark.parametrize(
        "payload,message",
        [
            ({"rates": [[1.0], [2.0]]}, "rates must be a RateTable, got list"),
            ({"network": RateTable([1.0], [2.0])}, "network must be a Network, got RateTable"),
        ],
    )
    def test_payload_of_the_wrong_type_is_rejected(self, payload, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            NetworkFile(**payload)

    @pytest.mark.parametrize(
        "payload",
        [{}, {"network": Network(2.0, [1.0], [1.0]), "rates": RateTable([1.0], [2.0])}],
    )
    def test_neither_or_both_payloads_are_rejected(self, payload):
        message = "a network file holds exactly one payload: gains or rates"
        with pytest.raises(ValidationError, match=f"^{message}$"):
            NetworkFile(**payload)


class TestRoundTrip:
    def test_gains_round_trip_is_lossless(self):
        rng = np.random.default_rng(3)
        gains = rng.uniform(0, 5, (6, 2))
        net = Network(float(rng.uniform(0.1, 10)), gains[:, 0], gains[:, 1])
        back = loads(from_network(net, label="x").dumps())
        assert back.network.snr == net.snr
        assert back.network == net

    def test_rates_round_trip_is_lossless(self):
        rng = np.random.default_rng(5)
        rt = RateTable(rng.uniform(0, 20, 5), rng.uniform(0, 20, 5))
        back = loads(from_rates(rt, snr=2.5, label="y").dumps())
        assert np.array_equal(back.rates.r_s, rt.r_s)
        assert np.array_equal(back.rates.r_d, rt.r_d)
        assert back.snr == 2.5

    def test_labels_round_trip_or_are_rejected(self):
        rt = RateTable([1.0, 2.0], [2.0, 1.0])
        for label in ("", "x", "a=b", "two words", "label = x", "Z\u00fcrich-3"):
            assert loads(from_rates(rt, label=label).dumps()).label == label
        injected = "a#b\nrate = 9 9"  # would reload as label 'a' with n = 3
        for label in (injected, "a#b", "a\nb", "a\r", " a", "a\t", "\u2028", 5):
            with pytest.raises(ValidationError):
                from_rates(rt, label=label)
        # every character, inside and at both ends: rejected, or read back unchanged
        for code in range(0x3001):
            c = chr(code)
            for label in (f"a{c}b", f"{c}a{c}"):
                try:
                    nf = from_rates(rt, label=label)
                except ValidationError:
                    continue
                back = loads(nf.dumps())
                assert back.label == label and back.n == 2

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_file_reads_back_equal(self, data):
        n = data.draw(st.integers(1, 6), label="n")
        label = data.draw(st.none() | LABELS, label="label")
        if data.draw(st.booleans(), label="gains form"):
            snr = data.draw(st.floats(1e-100, 1e100), label="snr")
            gains = st.lists(st.floats(0.0, 1e100), min_size=n, max_size=n)
            net = Network(snr, data.draw(gains), data.draw(gains))
            nf = from_network(net, label=label)
        else:
            rates = st.lists(
                st.floats(0.0, allow_infinity=False), min_size=n, max_size=n
            )
            positive = st.floats(0.0, exclude_min=True, allow_infinity=False)
            snr = data.draw(st.none() | positive, label="snr")
            nf = from_rates(RateTable(data.draw(rates), data.draw(rates)), snr, label)
        text = nf.dumps()
        back = loads(text)
        assert back == nf
        assert back.dumps() == text

    def test_negative_zero_rate_loads_and_writes_back_as_zero(self):
        nf = loads("rate = -0.0 1.0\n")
        assert math.copysign(1.0, nf.rates.r_s[0]) == 1.0
        assert nf.dumps() == "rate = 0.0 1.0\n"

    def test_to_rate_table_matches_conversion(self):
        nf = loads(GAINS_TEXT)
        rt = nf.to_rate_table()
        assert rt == rate_table(nf.network)

    def test_rates_file_to_network_round_trips(self):
        nf = loads(RATES_TEXT)
        net = nf.to_network()
        got = rate_table(net)
        np.testing.assert_allclose(got.r_s, nf.rates.r_s, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got.r_d, nf.rates.r_d, rtol=1e-12, atol=1e-12)


@pytest.fixture(scope="module")
def big_lines():
    """Lines of a canonical gains-form file with 10**5 relays."""
    rng = np.random.default_rng(41)
    gains = rng.rayleigh(size=(10**5, 2)).tolist()
    return ["label = big", "snr = 3.0"] + [f"relay = {a!r} {b!r}" for a, b in gains]


class TestLargeFiles:
    @pytest.mark.parametrize(
        "bad,message",
        [
            ("relay = 1", "line 50001: expected two numbers after 'relay =', got '1'"),
            ("relay = 1 2 3", "line 50001: expected two numbers after 'relay =', got '1 2 3'"),
            ("relay = 1 q", "line 50001: could not convert string to float: 'q'"),
            ("  junk  ", "line 50001: expected 'key = value', got '  junk  '"),
            ("zzz = 1", "line 50001: unknown key 'zzz'"),
            ("snr = x  ", "line 50001: could not convert string to float: 'x'"),
            ("snr = 2", "line 50001: duplicate 'snr'"),
            ("relay = 1 -1", "gain_d must be nonnegative, got -1.0"),
            ("relay = 1e200 1", "relay 49999: snr * gain_s**2 overflows"),
            ("relay = 1_0 2", f"line 50001: '1_0' {NOT_A_NUMBER}"),
            ("relay = 1 \u0661", f"line 50001: '\u0661' {NOT_A_NUMBER}"),
            ("relay = \uff11 q", f"line 50001: '\uff11' {NOT_A_NUMBER}"),
            ("snr = 3_0", f"line 50001: '3_0' {NOT_A_NUMBER}"),
        ],
    )
    def test_errors_deep_in_a_file_keep_their_line(self, big_lines, bad, message):
        lines = list(big_lines)
        lines[50000] = bad
        with pytest.raises(ValidationError) as exc:
            loads("\n".join(lines) + "\n")
        assert str(exc.value) == message

    def test_line_numbers_across_line_break_styles(self, big_lines):
        # '\r\n', '\r' and '\x0c' all end a line, as str.splitlines has it
        lines = big_lines[:30002]
        text = "\r\n".join(lines[:20000]) + "\r" + "\x0c".join(lines[20000:])
        assert loads(text + "\n").n == 30000
        with pytest.raises(ValidationError, match="^line 29000: "):
            loads(text.replace(lines[28999], "relay = 1 y") + "\n")

    def test_dumps_is_canonical_and_round_trips(self, big_lines):
        text = "\n".join(big_lines) + "\n"
        nf = loads(text)
        assert nf.n == 10**5
        assert nf.dumps() == text
        rng = np.random.default_rng(43)
        rt = RateTable(rng.uniform(0, 30, 1000), rng.uniform(0, 30, 1000))
        rates_text = "snr = 2.0\n" + "".join(
            f"rate = {a!r} {b!r}\n" for a, b in zip(rt.r_s.tolist(), rt.r_d.tolist())
        )
        assert from_rates(rt, snr=2.0).dumps() == rates_text
        assert loads(rates_text).rates == rt

    def test_parse_memory_stays_below_three_times_the_text(self, big_lines):
        text = "\n".join(big_lines) + "\n"
        tracemalloc.start()
        try:
            nf = loads(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert nf.n == 10**5
        # about 1x: a parser that keeps a tuple per relay peaks near 4.7x,
        # and one that splits the whole text into lines at once near 2.6x
        assert peak < 2 * len(text)


class TestLoad:
    def test_non_utf8_file_is_a_validation_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"snr = 2\nrelay = 1 \xff\n")
        with pytest.raises(ValidationError, match="not UTF-8"):
            load(path)

    def test_reads_a_written_file(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text(GAINS_TEXT, encoding="utf-8")
        assert load(path) == loads(GAINS_TEXT)

    def test_load_memory_stays_below_one_and_a_half_times_the_file(self, tmp_path, big_lines):
        # the file is read in blocks of lines; reading it whole held the
        # bytes and the decoded text at once, near 2x
        lines = big_lines + big_lines[2:]
        path = tmp_path / "big.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        tracemalloc.start()
        try:
            nf = load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert nf.n == 2 * 10**5
        assert peak < 1.5 * path.stat().st_size


def reference_number(token, lineno):
    if "_" in token or not token.isascii():
        raise ValidationError(f"line {lineno}: {token!r} {NOT_A_NUMBER}")
    try:
        return float(token)
    except ValueError as exc:
        raise ValidationError(f"line {lineno}: {exc}") from None


def reference_parse(text):
    """A line-by-line parser written from the ``netfile`` module docstring:
    the same results, and the same messages, as ``loads`` should give."""
    header, pairs = {}, {"relay": [], "rate": []}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ValidationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = key.strip().lower(), value.strip()
        if key in ("label", "snr"):
            if key == "snr":
                value = reference_number(value, lineno)
            if key in header:
                raise ValidationError(f"line {lineno}: duplicate {key!r}")
            header[key] = value
        elif key in pairs:
            numbers = value.split()
            if len(numbers) != 2:
                raise ValidationError(
                    f"line {lineno}: expected two numbers after '{key} =', got {value!r}"
                )
            pairs[key].append([reference_number(x, lineno) for x in numbers])
        else:
            raise ValidationError(f"line {lineno}: unknown key {key!r}")
    label, snr = header.get("label"), header.get("snr")
    if pairs["relay"] and pairs["rate"]:
        raise ValidationError("file mixes 'relay' and 'rate' lines; pick one shape")
    if pairs["relay"]:
        if snr is None:
            raise ValidationError("gains form requires an 'snr = ...' line")
        gs, gd = zip(*pairs["relay"])
        return NetworkFile(network=Network(snr, gs, gd), label=label)
    if pairs["rate"]:
        r_s, r_d = zip(*pairs["rate"])
        return NetworkFile(rates=RateTable(r_s, r_d), snr=snr, label=label)
    raise ValidationError("file holds neither 'relay' nor 'rate' lines")


def outcome(parse, text):
    """The float64 bit patterns and label ``parse`` reads from ``text``, or
    its ``ValidationError`` message."""
    try:
        nf = parse(text)
    except ValidationError as exc:
        return "error", str(exc)
    if nf.network is not None:
        snr, (a, b) = nf.network.snr, nf.network.gain_arrays()
    else:
        snr, a, b = nf.snr, nf.rates.r_s, nf.rates.r_d
    return nf.label, snr, a.tobytes(), b.tobytes()


NUMBERS = st.sampled_from(
    ["0", "1", "2.5", "0.125", "1e-3", "7.62939453125e-06", "-0.0", "3", "1_0",
     "\u0661", "\uff12.5"]
)
# line breaks other than '\n' that str.splitlines honours; only '\n' ends a
# parse block
BREAKS = st.sampled_from(["\r\n", "\r", "\x0c", "\x1c", "\u2028", "\x85", ""])


@st.composite
def network_texts(draw):
    """Texts of canonical pair lines of one key, with a few lines or line
    breaks swapped for other layouts the line parser reads or rejects."""
    key = draw(st.sampled_from(["relay", "rate"]))
    canonical = st.builds(lambda a, b: f"{key} = {a} {b}", NUMBERS, NUMBERS)
    odd = st.sampled_from([
        "", "# note", f"{key} = 1 2  # note", f"{key}\t=\t1\t2", f" {key} = 1 2",
        f"{key} =  1 2", f"{key} = 1 2 ", f"{key.upper()} = 1 2", f"{key}=1 2",
        f"{key} = 1", f"{key} = 1 2 3", f"{key} = 1\n2 {key} = 3 4",
        f"{key} = 1 2 3 4 5", "relay = 1 2", "rate = 1 2", "snr = 2.0",
        "label = x", "zzz = 1", "junk", f"{key} = 1 q", f"{key} = 1e 2",
        f"{key} = 0x1 2", f"{key} = nan 1", f"{key} = inf 1", f"{key} = -1 2",
        f"{key} = 1e200 1", f"{key} = 1 2#x",
    ])
    header = draw(st.sampled_from([[], ["snr = 2.0"], ["label = t", "snr = 0.5"]]))
    lines = header + draw(st.lists(canonical, max_size=40))
    breaks = ["\n"] * len(lines)
    tweaks = st.tuples(st.integers(0, 45), st.booleans(), odd, BREAKS)
    for i, new_line, line, end in draw(st.lists(tweaks, max_size=4)):
        i = min(i, len(lines))
        if new_line or i == len(lines):
            lines.insert(i, line)
            breaks.insert(i, "\n")
        else:
            breaks[i] = end
    if lines and draw(st.booleans()):
        breaks[-1] = ""  # no final line break
    return "".join(line + end for line, end in zip(lines, breaks))


class TestBulkParse:
    """Blocks of canonical pair lines are parsed in bulk, any other line by line."""

    @settings(max_examples=400, deadline=None)
    @given(text=network_texts())
    def test_loads_matches_a_line_by_line_reference(self, text):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(netfile, "_CHUNK", 64)  # many blocks per text
            assert outcome(loads, text) == outcome(reference_parse, text)

    def test_canonical_block_is_taken_whole(self):
        key, numbers, lines = netfile._canonical_pairs(
            "rate = 1.5 2\nrate = -0.0 1e-3\nrate = inf 7\n"
        )
        assert (key, lines) == ("rate", 3)
        assert numbers.tobytes() == np.array([1.5, 2, -0.0, 1e-3, math.inf, 7]).tobytes()
        key, numbers, lines = netfile._canonical_pairs("relay = 1 2\n")
        assert (key, numbers.tolist(), lines) == ("relay", [1.0, 2.0], 1)

    @pytest.mark.parametrize("block", [
        "",
        "rate = 1\n2 rate = 3 4\n",
        "rate = 1 2\nrate = 3 4",
        "rate\t= 1 2\n",
        "rate = 1 2\r\n",
        "rate = 1 2\rrate = 3 4\n",
        "rate = 1 2\x0crate = 3 4\n",
        "rate = 1 2\x1crate = 3 4\n",
        "rate = 1 2\u2028rate = 3 4\n",
        "RATE = 1 2\n",
        "rate = 1 2\nrelay = 3 4\n",
        "rate = 1 2 # note\n",
        "rate = 1 2#note\n",
        "rate  = 1 2\n",
        " rate = 1 2\n",
        "rate = 1 2 \n",
        "rate = 1 2\n\n",
        "rate = 1 q\n",
        "snr = 1 2\n",
        "rate = = 1\n",
        "rate = 1_0 2\n",
        "rate = 1 \u0661\n",
    ])
    def test_odd_layouts_are_left_to_the_line_parser(self, block):
        assert netfile._canonical_pairs(block) is None

    def test_comment_glued_to_a_number_reads_as_a_comment(self, monkeypatch):
        # a canonical-looking block whose last number fails float()
        monkeypatch.setattr(netfile, "_CHUNK", 16)
        text = "rate = 1 2\nrate = 3 4#x\nrate = 5 6\n" * 3
        assert loads(text).rates.r_d.tolist() == [2.0, 4.0, 6.0] * 3
        assert outcome(loads, text) == outcome(reference_parse, text)

    def test_bad_number_several_blocks_in_keeps_its_line(self, tmp_path, big_lines):
        lines = list(big_lines)
        lines[50000] = "relay = 1 q"
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError) as exc:
            load(path)
        assert str(exc.value) == "line 50001: could not convert string to float: 'q'"

    def test_pair_keys_in_different_blocks_still_mix(self, tmp_path, big_lines):
        lines = big_lines + [line.replace("relay", "rate") for line in big_lines[2:]]
        path = tmp_path / "mixed.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError) as exc:
            load(path)
        assert str(exc.value) == "file mixes 'relay' and 'rate' lines; pick one shape"

    def test_bulk_and_line_parsers_give_the_same_bits(self, big_lines):
        text = "\n".join(big_lines) + "\n"
        # a comment in every block sends the whole file through the line loop
        commented = text.replace("\n", "\n# c\n")
        assert outcome(loads, text) == outcome(loads, commented)
