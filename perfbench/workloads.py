"""The three workloads: their seeded inputs, timed operations and output checks.

Each workload generates every input itself from the benchmark seed with its
own numpy RNG and writes network files into its own temporary directory;
the program receives only those files or tables. An operation is one call
into the program (a CLI command, a verification trial, one pass of the
library pipeline over one network). Its ``run`` is timed; its ``check``
runs afterwards, outside the timed region, and returns the list of
problems found (empty when the output is correct).

Why these three (see README.md for more):

* ``cli``    - what a command-line user pays per command; import cost
               dominates, and only ``bounds`` / ``omega --brute`` at n = 22
               give the exponential kernels a real share.
* ``verify`` - every module at desk scale (n <= 12); AF and the exhaustive
               subset oracle do most of the work, the parser none.
* ``scale``  - the parser, the data model and the O(n) scans at n = 1e5 and
               1e6; AF optimisation and the brute-force paths do none.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from reference import ProcessProbe, SignalProbe

LN2 = math.log(2.0)
INEQ_TOL = 1e-9  # the package's own verify tolerance for inequality checks


@dataclass
class Op:
    label: str  # what the op is, e.g. "omega" or "n1e6b"
    run: Callable[[], object]
    check: Callable[[object], list]
    work: int = 1  # commands, trials or relays this op processes
    span: str | None = None  # benchmark-level span name when traced


def size_tag(n):
    e = round(math.log10(n))
    return f"n1e{e}" if 10**e == n else f"n{n}"


def _num(x):
    return repr(float(x))


def gains_text(label, snr, gains):
    """Gains-form network file text in the package's canonical layout."""
    lines = [f"label = {label}", f"snr = {_num(snr)}"]
    lines += [f"relay = {a!r} {b!r}" for a, b in gains.tolist()]
    return "\n".join(lines) + "\n"


def rates_text(label, r_s, r_d):
    lines = [f"label = {label}"]
    lines += [f"rate = {a!r} {b!r}" for a, b in zip(r_s.tolist(), r_d.tolist())]
    return "\n".join(lines) + "\n"


def rayleigh_network(rng, n):
    snr = float(10.0 ** rng.uniform(0.0, 1.5))
    return snr, rng.rayleigh(scale=1.0, size=(n, 2))


def source_limited(gains):
    """Swap the columns so that the largest gain is on the destination side.

    Then the broadcast (empty) cut is the argmin, as the ``scale`` shape (a)
    intends; left to chance, half the seeds would instead make the full cut
    the argmin and build an n-member ``Cut``. The gains stay i.i.d. Rayleigh.
    """
    if gains[:, 0].max() >= gains[:, 1].max():
        return gains[:, ::-1].copy()
    return gains


def staircase(rng, n):
    """Rates-form staircase: r_s ascending, r_d descending in file order.

    Rates are multiples of a power-of-two step, so every sum is exact. The
    destination rate of relay m+1 (m drawn in [n/8, n/8 + n/100]) is lowered
    by half a step, which makes the suffix cut from relay m+1 the unique
    minimiser: omega = (n - 1/2) * step and the argmin cut holds the last
    n - m relays, about 7/8 of them.
    """
    step = 2.0 ** -(max(1, math.ceil(math.log2(n))) - 3)
    m = int(rng.integers(max(1, n // 8), n // 8 + n // 100 + 2))
    i = np.arange(n, dtype=np.float64)
    r_s = (i + 1.0) * step
    r_d = (n - i) * step
    r_d[m] -= step / 2.0
    return r_s, r_d, m, (n - 0.5) * step


def subset_omega(r_s, r_d):
    """Definitional omega of a small relay set: min over all 2**k cuts."""
    k = len(r_s)
    best = math.inf
    for mask in range(1 << k):
        d = max((r_d[i] for i in range(k) if mask >> i & 1), default=0.0)
        s = max((r_s[i] for i in range(k) if not mask >> i & 1), default=0.0)
        best = min(best, d + s)
    return best


def check_selection(problems, rt, k, omega, gamma, omega_gamma, comparisons):
    """Checks of one select result: size, value, guarantee and budget."""
    n = rt.n
    gamma = list(gamma)
    if not 1 <= len(gamma) <= k or len(set(gamma)) != len(gamma):
        problems.append(f"select k={k}: bad relay set {gamma}")
        return
    if any(not 1 <= g <= n for g in gamma):
        problems.append(f"select k={k}: relay index out of range")
        return
    idx = [g - 1 for g in gamma]
    want = subset_omega(rt.r_s[idx].tolist(), rt.r_d[idx].tolist())
    if omega_gamma != want:
        problems.append(f"select k={k}: omega_gamma {omega_gamma!r} != {want!r}")
    if omega_gamma < k / (k + 1) * omega - INEQ_TOL:
        problems.append(f"select k={k}: omega_gamma below k/(k+1) * omega")
    budget = 2 * n * k - (k - 1) * k // 2 + 2 * n
    if comparisons > budget:
        problems.append(f"select k={k}: {comparisons} comparisons > budget {budget}")


def package_env(root):
    """The environment for a child process that imports diamondnet from src/."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Workload:
    name = ""
    setup_reps = 3  # set-up is repeated and its median reported
    per_round = False  # an op_ref sample is a whole round rather than one op
    op_name = "op"
    rss_of_children = False  # peak RSS is that of child processes

    def __init__(self, pkg, root, seed, tmpdir):
        self.pkg = pkg
        self.root = root
        self.seed = seed
        self.tmpdir = tmpdir

    def setup(self):
        """Generate the inputs and call each timed function once."""
        raise NotImplementedError

    def make_probe(self):
        """The reference readings that normalise this workload's CPU times."""
        return SignalProbe()

    def ops(self, round_index, inprocess=False):
        """The operations of one round; the same round index gives the same ops."""
        raise NotImplementedError

    def _path(self, name):
        return os.path.join(self.tmpdir, name)

    def _write(self, name, text):
        path = self._path(name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

CLI_COMMANDS = ("omega", "select", "bounds", "af", "gen", "tight", "verify")

_CLI_SIZES = {"n22": 22, "n8": 8, "n64": 64, "n1000": 1000}


class CliWorkload(Workload):
    """A fixed mix of all seven subcommands, each run as its own process."""

    name = "cli"
    op_name = "command"
    rss_of_children = True

    def __init__(self, pkg, root, seed, tmpdir):
        super().__init__(pkg, root, seed, tmpdir)
        self.env = package_env(root)
        self._oracle_cache = {}

    def setup(self):
        rng = np.random.default_rng([self.seed, 1])
        self.files = {}
        for tag, n in _CLI_SIZES.items():
            snr, gains = rayleigh_network(rng, n)
            self.files[tag] = self._write(f"cli_{tag}.txt", gains_text(f"cli-{tag}", snr, gains))
        self.gen_seed = int(rng.integers(0, 2**31))
        self.gen_snr = float(rng.uniform(0.5, 8.0))
        self.verify_seed = int(rng.integers(0, 2**31))
        self.gen_out = self._path("cli_gen_out.txt")
        for op in self.ops(0):
            op.run()

    def make_probe(self):
        return ProcessProbe(self.env)

    def commands(self):
        """(argv, checker) for each command of the mix, in run order."""
        f = self.files
        fmt = ["--format", "machine"]
        return [
            (["omega", f["n22"], "--brute", "--counts", *fmt], self._check_omega_brute),
            (["bounds", f["n22"], *fmt], self._check_bounds),
            (["select", f["n8"], "2", "--verify", *fmt], self._check_select),
            (["af", f["n64"], "--optimize", *fmt], self._check_af),
            (["omega", f["n1000"], *fmt], self._check_omega),
            (["select", f["n1000"], "3", *fmt], self._check_select),
            (
                ["gen", "1000", "--seed", str(self.gen_seed), "--snr", repr(self.gen_snr),
                 "-o", self.gen_out],
                self._check_gen,
            ),
            (["tight", "3"], self._check_tight),
            (["verify", "--trials", "20", "--seed", str(self.verify_seed), *fmt],
             self._check_verify),
        ]

    def ops(self, round_index, inprocess=False):
        run = self._run_inprocess if inprocess else self._run_subprocess
        return [
            Op(
                label=argv[0],
                run=lambda argv=argv: run(argv),
                check=lambda out, argv=argv, checker=checker: self.check(argv, out, checker),
                span=f"cli.{argv[0]}",
            )
            for argv, checker in self.commands()
        ]

    def _run_subprocess(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "diamondnet.cli", *argv],
            env=self.env,
            cwd=self.tmpdir,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout

    def _run_inprocess(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.pkg.cli.main(list(argv))
        return code, buf.getvalue()

    def check(self, argv, out, checker):
        code, stdout = out
        if code != 0:
            return [f"{argv[0]}: exit code {code}"]
        try:
            return checker(argv, stdout)
        except (ValueError, KeyError, TypeError) as exc:  # malformed report
            return [f"{argv[0]}: unreadable output: {exc!r}"]

    # -- in-process oracles on the same files, computed once per run --------

    def _oracle(self, kind, path, compute):
        key = (kind, path)
        if key not in self._oracle_cache:
            self._oracle_cache[key] = compute()
        return self._oracle_cache[key]

    def _rates(self, path):
        return self._oracle("rates", path, lambda: self.pkg.netfile.load(path).to_rate_table())

    def _brute(self, path):
        return self._oracle(
            "brute", path, lambda: self.pkg.cuts.omega_bruteforce(self._rates(path)).value
        )

    def _fast(self, path):
        return self._oracle("fast", path, lambda: self.pkg.cuts.omega_fast(self._rates(path)).value)

    def _omega_common(self, problems, rt, rep, want):
        if rep["n"] != rt.n:
            problems.append(f"omega: n {rep['n']} != {rt.n}")
        if rep["omega"] != want:
            problems.append(f"omega: {rep['omega']!r} != oracle {want!r}")
        cut = self.pkg.cuts.Cut(rep["argmin_cut"])
        if self.pkg.cuts.cut_value(rt, cut) != rep["omega"]:
            problems.append("omega: argmin cut value differs from omega")

    def _check_omega_brute(self, argv, stdout):
        rep = json.loads(stdout)
        rt = self._rates(argv[1])
        want = self._brute(argv[1])
        problems = []
        self._omega_common(problems, rt, rep, want)
        if rep["brute_omega"] != want or rep["oracle_agrees"] is not True:
            problems.append("omega --brute: oracle disagreement reported")
        if rep["brute_comparisons"] != 3 * (1 << rt.n) - 3:
            problems.append("omega --brute: wrong brute comparison count")
        return problems

    def _check_omega(self, argv, stdout):
        rep = json.loads(stdout)
        problems = []
        self._omega_common(problems, self._rates(argv[1]), rep, self._fast(argv[1]))
        return problems

    def _check_bounds(self, argv, stdout):
        rep = json.loads(stdout)
        rt = self._rates(argv[1])
        problems = []
        if rep["omega"] != self._brute(argv[1]):
            problems.append(f"bounds: omega {rep['omega']!r} != brute-force oracle")
        om, lo, up, gap = rep["omega"], rep["lower"], rep["upper"], rep["gap"]
        if not (om <= lo + INEQ_TOL and lo <= up + INEQ_TOL and up <= om + gap + INEQ_TOL):
            problems.append("bounds: chain omega <= lower <= upper <= omega + gap broken")
        if gap != self.pkg.cuts.gap_constant(rt.n):
            problems.append("bounds: wrong gap constant")
        for model, tr in rep["tradeoff"].items():
            ks = [k for k, _ in tr["entries"]]
            if tr["best_k"] not in ks:
                problems.append(f"bounds: best_k of {model} not in its table")
        return problems

    def _check_select(self, argv, stdout):
        rep = json.loads(stdout)
        rt = self._rates(argv[1])
        k = int(argv[2])
        problems = []
        if rep["omega"] != self._fast(argv[1]):
            problems.append("select: omega differs from the in-process oracle")
        check_selection(
            problems, rt, k, rep["omega"], rep["gamma"], rep["omega_gamma"], rep["comparisons"]
        )
        if "--verify" in argv and rep.get("verified") is not True:
            problems.append("select --verify: not verified")
        return problems

    def _check_af(self, argv, stdout):
        rep = json.loads(stdout)

        def full_power_rate_and_cap():
            net = self.pkg.netfile.load(argv[1]).to_network()
            cap = self.pkg.af.af_upper_bound(self.pkg.model.rate_table(net))
            return self.pkg.af.af_rate(net, np.ones(net.n)), cap

        start, (bound, c1) = self._oracle("af", argv[1], full_power_rate_and_cap)
        problems = []
        if rep["within_bound"] is not True or rep["af_rate"] > rep["upper_bound"] + INEQ_TOL:
            problems.append("af: rate exceeds its cap")
        if rep["af_rate"] < start - INEQ_TOL:
            problems.append("af: optimised rate below the full-power start")
        if rep["c1"] != c1 or rep["upper_bound"] != bound:
            problems.append("af: cap differs from the in-process oracle")
        return problems

    def _check_gen(self, argv, stdout):
        nf = self.pkg.netfile.load(self.gen_out)
        want = int(argv[1])
        if nf.network is None or nf.n != want:
            return [f"gen: wrote a network with n={nf.n}, asked for {want}"]
        return []

    def _check_tight(self, argv, stdout):
        k = int(argv[1])
        rt = self.pkg.netfile.loads(stdout).to_rate_table()
        idx = np.arange(1, k + 2, dtype=np.float64)
        if not (np.array_equal(rt.r_s, idx) and np.array_equal(rt.r_d, k + 2 - idx)):
            return [f"tight: not the k={k} staircase"]
        return []

    def _check_verify(self, argv, stdout):
        rep = json.loads(stdout)
        want = int(argv[argv.index("--trials") + 1])
        problems = []
        if rep["trials"] != want:
            problems.append(f"verify: {rep['trials']} trials, asked for {want}")
        if rep["failures"]:
            problems.append(f"verify: {len(rep['failures'])} invariant failures")
        return problems


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

VERIFY_SEEDS = 4096
VERIFY_ROUND = 200


class VerifyWorkload(Workload):
    """One-trial ``run_verification`` calls over master seeds drawn from the seed."""

    name = "verify"
    op_name = "trial"
    setup_reps = 9  # a set-up takes ~40 ms, so more of them for a steady median

    def setup(self):
        rng = np.random.default_rng([self.seed, 2])
        self.seeds = rng.integers(0, 2**62, size=VERIFY_SEEDS).tolist()
        warm = self._trial(0)
        if not warm.ok:
            raise RuntimeError("warm-up verification failed")

    def ops(self, round_index, inprocess=False):
        start = round_index * VERIFY_ROUND
        return [
            Op(label="trial", run=lambda s=s: self._trial(s), check=self._check)
            for s in (
                self.seeds[(start + j) % len(self.seeds)] for j in range(VERIFY_ROUND)
            )
        ]

    def _trial(self, master_seed):
        return self.pkg.verify.run_verification(
            trials=1, nmax=12, kmode="all", seed=master_seed
        )

    @staticmethod
    def _check(report):
        problems = [f"{f.invariant} (seed {f.seed}): {f.details}" for f in report.failures]
        if report.trials != 1:
            problems.append(f"ran {report.trials} trials, asked for 1")
        return problems


# ---------------------------------------------------------------------------
# scale
# ---------------------------------------------------------------------------

SCALE_SIZES = (10**5, 10**6)
TRADEOFF_MAX_N = 10**5  # hybrid_tradeoff is an O(n) Python loop
SELECT_KS = (1, 4, 8)


@dataclass
class _Network:
    path: str
    n: int
    shape: str  # "a": i.i.d. Rayleigh gains, "b": rates-form staircase
    r_s: np.ndarray  # expected rate table
    r_d: np.ndarray
    omega: float | None = None  # known exactly for the staircase
    cut_start: int | None = None  # staircase argmin cut = relays cut_start..n


class ScaleWorkload(Workload):
    """The library pipeline (parse, rate table, omega, select, cap, tradeoff,
    write) on two input shapes at each size."""

    name = "scale"
    op_name = "round of four pipeline passes"
    per_round = True

    def __init__(self, pkg, root, seed, tmpdir, sizes=SCALE_SIZES):
        super().__init__(pkg, root, seed, tmpdir)
        self.sizes = sizes

    def _make(self, rng, n, shape, prefix):
        tag = size_tag(n)
        name = f"{prefix}_{tag}{shape}.txt"
        if shape == "a":
            snr, gains = rayleigh_network(rng, n)
            gains = source_limited(gains)
            text = gains_text(f"rayleigh-{tag}", snr, gains)
            sq = gains * gains
            r_s = np.log1p(snr * sq[:, 0]) / LN2
            r_d = np.log1p(snr * sq[:, 1]) / LN2
            return _Network(self._write(name, text), n, shape, r_s, r_d)
        r_s, r_d, m, omega = staircase(rng, n)
        text = rates_text(f"staircase-{tag}", r_s, r_d)
        return _Network(self._write(name, text), n, shape, r_s, r_d, omega, m + 1)

    def setup(self):
        rng = np.random.default_rng([self.seed, 3])
        self.networks = [
            self._make(rng, n, shape, "scale") for n in self.sizes for shape in "ab"
        ]
        warm_rng = np.random.default_rng([self.seed, 4])
        for shape in "ab":
            net = self._make(warm_rng, 1000, shape, "warm")
            out = self._pipeline(net)
            if self._check(net, out):
                raise RuntimeError("warm-up pipeline failed its checks")

    def ops(self, round_index, inprocess=False):
        return [
            Op(
                label=f"{size_tag(net.n)}{net.shape}",
                run=lambda net=net: self._pipeline(net),
                check=lambda out, net=net: self._check(net, out),
                work=net.n,
            )
            for net in self.networks
        ]

    def _pipeline(self, net):
        pkg = self.pkg
        nf = pkg.netfile.load(net.path)
        rt = nf.to_rate_table()
        om = pkg.cuts.omega_fast(rt)
        sels = [pkg.selection.select(rt, k, om.value) for k in SELECT_KS]
        cap = pkg.af.af_upper_bound(rt)
        tradeoff = (
            pkg.selection.hybrid_tradeoff(om.value, rt.n, "nnc")
            if rt.n <= TRADEOFF_MAX_N
            else None
        )
        text = nf.dumps()
        return rt, om, sels, cap, tradeoff, text

    def _check(self, net, out):
        rt, om, sels, cap, tradeoff, text = out
        pkg = self.pkg
        problems = []
        if rt.n != net.n:
            return [f"parsed n={rt.n}, wrote n={net.n}"]
        if net.shape == "b":
            if not (np.array_equal(rt.r_s, net.r_s) and np.array_equal(rt.r_d, net.r_d)):
                problems.append("rate table differs from the file")
        elif not (
            np.allclose(rt.r_s, net.r_s, rtol=1e-12, atol=0.0)
            and np.allclose(rt.r_d, net.r_d, rtol=1e-12, atol=0.0)
        ):
            problems.append("rate table differs from log2(1 + snr * g**2)")
        # loads(dumps(x)) == x: the inputs are written in the canonical
        # layout, so equal text is an exact round trip; otherwise re-parse.
        with open(net.path, encoding="utf-8") as fh:
            if text != fh.read():
                again = pkg.netfile.loads(text).to_rate_table()
                if again != rt:
                    problems.append("loads(dumps(x)) changed the rate table")
        if pkg.cuts.cut_value(rt, om.argmin_cut) != om.value:
            problems.append("cut_value(argmin cut) != omega")
        if net.omega is not None:
            members = om.argmin_cut.members
            if om.value != net.omega:
                problems.append(f"omega {om.value!r} != staircase omega {net.omega!r}")
            if len(members) != net.n - net.cut_start + 1 or min(members) != net.cut_start:
                problems.append("argmin cut is not the staircase's suffix cut")
        for k, sel in zip(SELECT_KS, sels):
            check_selection(
                problems, rt, k, om.value, sel.gamma, sel.omega_gamma, sel.comparisons
            )
        c1 = float(np.minimum(net.r_s, net.r_d).max())
        if not math.isclose(cap[1], c1, rel_tol=1e-12) or not math.isclose(
            cap[0], cap[1] + 2.0 * math.log2(net.n), rel_tol=1e-12
        ):
            problems.append("af_upper_bound differs from c1 + 2 log2 n")
        if tradeoff is not None:
            if len(tradeoff.entries) != net.n or not 1 <= tradeoff.best_k <= net.n:
                problems.append("hybrid_tradeoff table has the wrong shape")
            if tradeoff.baseline != max(0.0, om.value - 1.3 * net.n):
                problems.append("hybrid_tradeoff baseline != max(0, omega - 1.3 n)")
        return problems


WORKLOADS = {w.name: w for w in (CliWorkload, VerifyWorkload, ScaleWorkload)}
