"""Command-line interface.

Subcommands: omega, select, bounds, af, gen, tight, verify. Every command
reads the network file format documented in ``netfile``; gen and tight
write one. Each other command builds one ordered payload dict, which
``_emit`` prints as strict JSON (``--format machine``) or as text, one
``key = value`` line per field, formatted by type (``_fmt``) unless the
field has a formatter in ``_TEXT``. Output is byte-identical across runs
for identical command lines, except for the elapsed-time field of
``verify``. No environment variables are read.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from .af import af_optimize, af_rate, af_upper_bound
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


def _fmt(value) -> str:
    """Default text of a value: true/false, 6 significant digits, none, str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return "none" if value is None else str(value)


def _join(values) -> str:
    return ", ".join(map(_fmt, values))


def _certificate(cert) -> str:
    if cert is None:
        return "certificate = none"
    anchor, bins = _fmt(cert["anchor_bin"]), _join(cert["bins"])
    return f"certificate = anchor_bin {anchor}; bins ({bins})"


def _tradeoff(tradeoff: dict) -> str:
    lines = []
    for model, tr in tradeoff.items():
        best_val = dict(tr["entries"])[tr["best_k"]]
        lines.append(f"best_k[{model}] = {tr['best_k']} (rate {_fmt(best_val)})")
    lines.append("k nnc optimized")
    # both models tabulate k = 1..n
    rows = zip(tradeoff["nnc"]["entries"], tradeoff["optimized"]["entries"])
    for (k, nnc), (_, opt) in rows:
        lines.append(f"{k} {_fmt(nnc)} {_fmt(opt)}")
    return "\n".join(lines)


def _failures(failures: list) -> str:
    lines = [f"failures = {len(failures)}"]
    for f in failures:
        lines.append(f"  seed {f['seed']}: {f['invariant']}: {f['details']}")
    return "\n".join(lines)


# The text of each field that is not ``key = <value by type>``, made from
# the value and the whole payload; None prints nothing.
_TEXT = {
    "argmin_cut": lambda v, p: f"argmin_cut = {{{_join(v)}}}",
    "gamma": lambda v, p: f"gamma = {{{_join(v)}}}",
    "alpha": lambda v, p: f"alpha = [{_join(v)}]",
    "certificate": lambda v, p: _certificate(v),
    "gap_model": lambda v, p: None,  # printed with guaranteed_rate
    "guaranteed_rate": lambda v, p: f"guaranteed_rate[{p['gap_model']}] = {_fmt(v)}",
    "tradeoff": lambda v, p: _tradeoff(v),
    "failures": lambda v, p: _failures(v),
    "max_violation": lambda v, p: f"max_violation = {v:.3e}",
    "elapsed_s": lambda v, p: f"elapsed_s = {v:.2f}",
}


def _emit(args, payload: dict, status: int = 0) -> int:
    """Print ``payload`` in the chosen format and return ``status``."""
    if args.format == "machine":
        print(json.dumps(payload))
        return status
    for key, value in payload.items():
        text = _TEXT[key](value, payload) if key in _TEXT else f"{key} = {_fmt(value)}"
        if text is not None:
            print(text)
    return status


def _write(args, nf) -> int:
    """Write a network file to ``--output``, or to stdout without one."""
    text = nf.dumps()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_omega(args) -> int:
    rt = load(args.file).to_rate_table()
    res = omega_fast(rt)
    payload = {
        "n": rt.n,
        "omega": res.value,
        "argmin_cut": list(res.argmin_cut.sorted_members()),
    }
    if args.counts:
        payload["comparisons"] = res.comparisons
    if not args.brute:
        return _emit(args, payload)
    oracle = omega_bruteforce(rt)
    agree = oracle.value == res.value
    payload["brute_omega"] = oracle.value
    payload["oracle_agrees"] = agree
    if args.counts:
        payload["brute_comparisons"] = oracle.comparisons
    return _emit(args, payload, 0 if agree else 1)


def cmd_select(args) -> int:
    rt = load(args.file).to_rate_table()
    omega = omega_fast(rt).value
    sel = select(rt, args.k, omega)
    # omega is a safe stand-in for the cut-set bound here: the guarantee is
    # nondecreasing in it and omega never exceeds the true bound
    rep = guarantee(omega, min(args.k, rt.n), rt.n, args.gap_model)
    payload = {
        "n": rt.n,
        "k": args.k,
        "omega": omega,
        "gamma": list(sel.gamma),
        "omega_gamma": sel.omega_gamma,
        # no ratio is defined when omega is 0
        "ratio": sel.omega_gamma / omega if omega > 0.0 else None,
        "comparisons": sel.comparisons,
        "certificate": None if sel.certificate is None else asdict(sel.certificate),
        "gap_model": args.gap_model,
        "guaranteed_rate": rep.lower_bound,
    }
    if not args.verify:
        return _emit(args, payload)
    ok = verify_selection(rt, sel, args.k, omega)
    payload["verified"] = ok
    return _emit(args, payload, 0 if ok else 1)


def cmd_bounds(args) -> int:
    rt = load(args.file).to_rate_table()
    sw = sandwich(rt)
    models = {model: hybrid_tradeoff(sw.omega, rt.n, model) for model in GAP_MODELS}
    payload = {
        "n": rt.n,
        "omega": sw.omega,
        "lower": sw.lower,
        "upper": sw.upper,
        "gap": sw.gap,
        "baseline": models["nnc"].baseline,
        "tradeoff": {
            model: {"best_k": tr.best_k, "entries": tr.entries}
            for model, tr in models.items()
        },
    }
    return _emit(args, payload)


def cmd_af(args) -> int:
    net = load(args.file).to_network()
    bound, c1 = af_upper_bound(rate_table(net))
    if args.optimize:
        rep = af_optimize(net)
        rate, alpha = rep.rate, rep.alpha.alpha
    else:
        if args.alpha is not None:
            try:
                alpha = np.array([float(x) for x in args.alpha.split(",")])
            except ValueError as exc:
                raise ValidationError(f"bad --alpha value: {exc}") from None
        else:
            alpha = np.ones(net.n)
        rate = af_rate(net, alpha)
    within = rate <= bound + 1e-9
    payload = {
        "n": net.n,
        "mode": "optimized" if args.optimize else "given",
        "alpha": [float(a) for a in alpha],
        "af_rate": rate,
        "c1": c1,
        "upper_bound": bound,
        "within_bound": within,
    }
    return _emit(args, payload, 0 if within else 1)


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
    return _write(args, from_network(net, label=label))


def cmd_tight(args) -> int:
    rt = tight_config(args.k, args.rate)
    return _write(args, from_rates(rt, label=f"staircase-k{args.k}"))


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
        "failures": [asdict(f) for f in report.failures],
        "max_violation": report.max_violation,
        "elapsed_s": report.elapsed,
    }
    return _emit(args, payload, 0 if report.ok else 1)


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
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--alpha", help="comma-separated coefficients in [0,1]")
    mode.add_argument("--optimize", action="store_true")
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
    except (ValidationError, OSError, MemoryError) as exc:
        # a bare MemoryError carries no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
