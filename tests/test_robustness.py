"""A seeded robustness probe of the command line on mutated network files.

Each case writes a small network file (n <= 8, gains or rates form) with a
few of its tokens mutated: a number replaced by nan, inf, 1e308, a
subnormal, -0.0, ``1_0`` or ``0x10``, or a field dropped or doubled. Every
subcommand that reads a file then runs on it through ``cli.main``, in both
output formats. The exit code must be 0 or 2, no exception may escape (the
suite turns numpy's RuntimeWarnings into errors, so none may be raised
either), and machine output must be strict JSON, without NaN or Infinity.
"""

import contextlib
import io
import json

import numpy as np

from diamondnet import cli

SEED = 26
CASES = 200

# the replacement tokens for a number
SPECIAL = (
    "nan", "-nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "1e-310",
    "2.2250738585072014e-308", "-0.0", "0", "-1", "1_0", "0x10", "1e400",
)

COMMANDS = (
    ["omega"],
    ["omega", "--brute", "--counts"],
    ["select", "{k}"],
    ["select", "{k}", "--verify"],
    ["bounds"],
    ["af"],
    ["af", "--optimize"],
)


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def mutated_file(rng):
    """The text of a seeded network file with one or two mutated tokens,
    and its relay count before mutation."""
    n = int(rng.integers(1, 9))
    key = "relay" if rng.random() < 0.5 else "rate"
    lines = []
    if key == "relay" or rng.random() < 0.5:
        lines.append(["snr", "=", repr(float(rng.lognormal(0.0, 2.0)))])
    for _ in range(n):
        # continuous or small-integer numbers
        values = np.where(
            rng.random(2) < 0.5, rng.uniform(0.0, 5.0, 2), rng.integers(0, 4, 2)
        )
        lines.append([key, "=", *map(repr, values.tolist())])
    for _ in range(int(rng.integers(1, 3))):
        line = lines[int(rng.integers(len(lines)))]
        j = int(rng.integers(2, len(line))) if len(line) > 2 else 2
        what = rng.random()
        if what < 0.6 and len(line) > 2:
            line[j] = str(rng.choice(SPECIAL))
        elif what < 0.8 and len(line) > 2:
            del line[j]  # a dropped field
        else:
            line.insert(j, line[j] if j < len(line) else line[-1])  # a doubled one
    return "".join(" ".join(line) + "\n" for line in lines), n


def run(argv):
    """(exit code, stdout) of ``cli.main``; stderr is swallowed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def test_mutated_files_exit_0_or_2_with_strict_json(tmp_path):
    rng = np.random.default_rng(SEED)
    path = str(tmp_path / "net.txt")
    exits = set()
    for case in range(CASES):
        text, n = mutated_file(rng)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        k = str(int(rng.integers(1, n + 2)))
        for command in COMMANDS:
            argv = [command[0], path, *(a.format(k=k) for a in command[1:])]
            for fmt in ("text", "machine"):
                where = f"case {case}: {' '.join(argv)} --format {fmt}\n{text}"
                try:
                    code, out = run([*argv, "--format", fmt])
                    if fmt == "machine" and code == 0:
                        json.loads(out, parse_constant=_not_json)
                except Exception as exc:  # name the file that raised
                    raise AssertionError(where) from exc
                assert code in (0, 2), where
                assert code == 0 or out == "", where
                exits.add(code)
    assert exits == {0, 2}  # the mutations leave some files valid
