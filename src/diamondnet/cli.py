"""Command-line interface.

Subcommands: omega, select, bounds, af, gen, tight, verify. Every command
reads the network file format documented in ``netfile`` and prints either
human-readable text (rates shown with 6 significant digits, counters as
exact integers) or machine-readable JSON via ``--format machine``. Output
is byte-identical across runs for identical command lines, except for the
elapsed-time field of ``verify``. No environment variables are read.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .af import AfCoefficients, af_optimize, af_rate, af_upper_bound
from .cuts import omega_bruteforce, omega_fast, sandwich
from .errors import ValidationError
from .generate import random_network
from .model import rate_table
from .netfile import from_network, from_rates, load
from .selection import (
    GAP_MODELS,
    guarantee,
    hybrid_tradeoff,
    select,
    tight_config,
    verify_selection,
)
from .verify import run_verification


def _fmt_rate(x: float) -> str:
    return f"{x:.6g}"


def _fmt_cut(members) -> str:
    return "{" + ", ".join(str(i) for i in sorted(members)) + "}"


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "machine":
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _load_rates(path):
    nf = load(path)
    return nf, nf.to_rate_table()


def cmd_omega(args) -> int:
    nf, rt = _load_rates(args.file)
    res = omega_fast(rt)
    payload = {
        "n": rt.n,
        "omega": res.value,
        "argmin_cut": list(res.argmin_cut.sorted_members()),
    }
    lines = [
        f"n = {rt.n}",
        f"omega = {_fmt_rate(res.value)}",
        f"argmin_cut = {_fmt_cut(res.argmin_cut.members)}",
    ]
    if args.counts:
        payload["comparisons"] = res.comparisons
        lines.append(f"comparisons = {res.comparisons}")
    status = 0
    if args.brute:
        oracle = omega_bruteforce(rt)
        agree = oracle.value == res.value
        payload["brute_omega"] = oracle.value
        payload["oracle_agrees"] = agree
        lines.append(f"brute_omega = {_fmt_rate(oracle.value)}")
        lines.append(f"oracle_agrees = {'true' if agree else 'false'}")
        if args.counts:
            payload["brute_comparisons"] = oracle.comparisons
            lines.append(f"brute_comparisons = {oracle.comparisons}")
        if not agree:
            status = 1
    _emit(args, payload, lines)
    return status


def cmd_select(args) -> int:
    nf, rt = _load_rates(args.file)
    omega = omega_fast(rt).value
    sel = select(rt, args.k, omega)
    ratio = sel.omega_gamma / omega if omega > 0.0 else float("nan")
    # omega is a safe stand-in for the cut-set bound here: the guarantee is
    # nondecreasing in it and omega never exceeds the true bound
    rep = guarantee(omega, min(args.k, rt.n), rt.n, args.gap_model)
    cert = sel.certificate
    payload = {
        "n": rt.n,
        "k": args.k,
        "omega": omega,
        "gamma": list(sel.gamma),
        "omega_gamma": sel.omega_gamma,
        "ratio": ratio,
        "comparisons": sel.comparisons,
        "certificate": None
        if cert is None
        else {"anchor_bin": cert.anchor_bin, "bins": list(cert.bins)},
        "gap_model": args.gap_model,
        "guaranteed_rate": rep.lower_bound,
    }
    lines = [
        f"n = {rt.n}",
        f"k = {args.k}",
        f"omega = {_fmt_rate(omega)}",
        f"gamma = {_fmt_cut(sel.gamma)}",
        f"omega_gamma = {_fmt_rate(sel.omega_gamma)}",
        f"ratio = {_fmt_rate(ratio)}",
        f"comparisons = {sel.comparisons}",
    ]
    if cert is None:
        lines.append("certificate = none")
    else:
        anchor = "none" if cert.anchor_bin is None else str(cert.anchor_bin)
        bins = ", ".join(str(b) for b in cert.bins)
        lines.append(f"certificate = anchor_bin {anchor}; bins ({bins})")
    lines.append(f"guaranteed_rate[{args.gap_model}] = {_fmt_rate(rep.lower_bound)}")
    status = 0
    if args.verify:
        ok = verify_selection(rt, sel, args.k, omega)
        payload["verified"] = ok
        lines.append(f"verified = {'true' if ok else 'false'}")
        if not ok:
            status = 1
    _emit(args, payload, lines)
    return status


def cmd_bounds(args) -> int:
    nf, rt = _load_rates(args.file)
    sw = sandwich(rt)
    models = {}
    for model in GAP_MODELS:
        tr = hybrid_tradeoff(sw.omega, rt.n, model)
        models[model] = tr
    payload = {
        "n": rt.n,
        "omega": sw.omega,
        "lower": sw.lower,
        "upper": sw.upper,
        "gap": sw.gap,
        "baseline": models["nnc"].baseline,
        "tradeoff": {
            model: {
                "best_k": tr.best_k,
                "entries": [[k, v] for k, v in tr.entries],
            }
            for model, tr in models.items()
        },
    }
    lines = [
        f"n = {rt.n}",
        f"omega = {_fmt_rate(sw.omega)}",
        f"lower = {_fmt_rate(sw.lower)}",
        f"upper = {_fmt_rate(sw.upper)}",
        f"gap = {_fmt_rate(sw.gap)}",
        f"baseline = {_fmt_rate(models['nnc'].baseline)}",
    ]
    for model, tr in models.items():
        best_val = dict(tr.entries)[tr.best_k]
        lines.append(
            f"best_k[{model}] = {tr.best_k} (rate {_fmt_rate(best_val)})"
        )
    lines.append("k nnc optimized")
    nnc = dict(models["nnc"].entries)
    opt = dict(models["optimized"].entries)
    for k in sorted(nnc):
        lines.append(f"{k} {_fmt_rate(nnc[k])} {_fmt_rate(opt[k])}")
    _emit(args, payload, lines)
    return 0


def cmd_af(args) -> int:
    nf = load(args.file)
    net = nf.to_network()
    rt = rate_table(net)
    bound, c1 = af_upper_bound(rt)
    if args.optimize:
        rep = af_optimize(net)
        rate, alpha = rep.rate, rep.alpha.alpha
        mode = "optimized"
    else:
        if args.alpha is not None:
            try:
                alpha = np.array([float(x) for x in args.alpha.split(",")])
            except ValueError as exc:
                raise ValidationError(f"bad --alpha value: {exc}") from None
        else:
            alpha = np.ones(net.n)
        alpha = AfCoefficients(alpha).alpha
        rate = af_rate(net, alpha)
        mode = "given"
    within = rate <= bound + 1e-9
    payload = {
        "n": net.n,
        "mode": mode,
        "alpha": [float(a) for a in alpha],
        "af_rate": rate,
        "c1": c1,
        "upper_bound": bound,
        "within_bound": within,
    }
    lines = [
        f"n = {net.n}",
        f"mode = {mode}",
        "alpha = [" + ", ".join(_fmt_rate(a) for a in alpha) + "]",
        f"af_rate = {_fmt_rate(rate)}",
        f"c1 = {_fmt_rate(c1)}",
        f"upper_bound = {_fmt_rate(bound)}",
        f"within_bound = {'true' if within else 'false'}",
    ]
    _emit(args, payload, lines)
    return 0 if within else 1


def cmd_gen(args) -> int:
    net = random_network(
        args.n,
        args.snr,
        args.seed,
        args.dist,
        sigma=args.sigma,
        lo=args.lo,
        hi=args.hi,
    )
    label = f"{args.dist}-n{args.n}-seed{args.seed}"
    text = from_network(net, label=label).dumps()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_tight(args) -> int:
    rt = tight_config(args.k, args.rate)
    label = f"staircase-k{args.k}"
    text = from_rates(rt, label=label).dumps()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    report = run_verification(
        trials=args.trials,
        nmax=args.nmax,
        kmode=args.kmode,
        seed=args.seed,
        tolerance=args.tolerance,
    )
    payload = {
        "trials": report.trials,
        "failures": [
            {"seed": f.seed, "invariant": f.invariant, "details": f.details}
            for f in report.failures
        ],
        "max_violation": report.max_violation,
        "elapsed_s": report.elapsed,
    }
    lines = [
        f"trials = {report.trials}",
        f"failures = {len(report.failures)}",
    ]
    for f in report.failures:
        lines.append(f"  seed {f.seed}: {f.invariant}: {f.details}")
    lines.append(f"max_violation = {report.max_violation:.3e}")
    lines.append(f"elapsed_s = {report.elapsed:.2f}")
    _emit(args, payload, lines)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diamondnet",
        description=(
            "Capacity approximation, relay selection and amplify-and-forward "
            "analysis for diamond relay networks"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format",
            choices=("text", "machine"),
            default="text",
            help="text report or machine-readable JSON",
        )

    p = sub.add_parser("omega", help="min-cut capacity approximation of a network")
    p.add_argument("file")
    p.add_argument("--brute", action="store_true", help="cross-check the oracle")
    p.add_argument("--counts", action="store_true", help="print comparison counters")
    add_format(p)
    p.set_defaults(func=cmd_omega)

    p = sub.add_parser("select", help="pick <= k relays carrying k/(k+1) of omega")
    p.add_argument("file")
    p.add_argument("k", type=int)
    p.add_argument("--verify", action="store_true", help="brute-force check the pick")
    p.add_argument("--gap-model", choices=GAP_MODELS, default="nnc")
    add_format(p)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("bounds", help="bracketing bounds and the per-k tradeoff")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("af", help="amplify-and-forward rate and its cap")
    p.add_argument("file")
    p.add_argument("--alpha", help="comma-separated coefficients in [0,1]")
    p.add_argument("--optimize", action="store_true")
    add_format(p)
    p.set_defaults(func=cmd_af)

    p = sub.add_parser("gen", help="generate a seeded random network file")
    p.add_argument("n", type=int)
    p.add_argument("--dist", choices=("rayleigh", "loguniform"), default="rayleigh")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--lo", type=float, default=0.1)
    p.add_argument("--hi", type=float, default=10.0)
    p.add_argument("--snr", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("tight", help="emit the exact k/(k+1) staircase network")
    p.add_argument("k", type=int)
    p.add_argument("rate", type=float, nargs="?", default=1.0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_tight)

    p = sub.add_parser("verify", help="run the cross-module invariant suite")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--nmax", type=int, default=12)
    p.add_argument("--kmode", choices=("all", "random"), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-9)
    add_format(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
