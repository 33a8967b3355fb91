"""diamondnet benchmark: one seeded workload per run, end-to-end or traced.

Run from the root of a source checkout (the package is imported from
``src/``, never from an installed copy):

    python3 perfbench/run.py --workload cli --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload scale --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --compare OLD NEW     # result files or directories

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. The lines before it are the full report. Every run also
writes its results (and, when traced, its spans) under perfbench/results/.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import report  # noqa: E402
from reference import SignalProbe, children_cpu  # noqa: E402
import tracing  # noqa: E402
from workloads import CLI_COMMANDS, WORKLOADS, package_env, size_tag  # noqa: E402

FLOOR_REPEATS = 7  # interpreter-floor and import probe pairs per traced run


def import_package(src):
    """Import diamondnet (and its CLI module) afresh from ``src``."""
    for name in [m for m in sys.modules if m == "diamondnet" or m.startswith("diamondnet.")]:
        del sys.modules[name]
    pkg = importlib.import_module("diamondnet")
    importlib.import_module("diamondnet.cli")
    if not Path(pkg.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"diamondnet imported from {pkg.__file__}, not from {src}")
    return pkg


def cpu_seconds():
    """CPU time of this process plus that of its finished children."""
    return time.process_time() + children_cpu()


class Sample(NamedTuple):
    round: int
    label: str
    start: float  # perf_counter at the start of the op
    wall: float  # seconds
    cpu: float  # CPU seconds, children included
    work: int
    ref: float  # reference-task CPU seconds measured around the op

    @property
    def cost(self):
        """CPU time in reference units."""
        return self.cpu / self.ref


def run_op(op, tracer=None, probe=None):
    """Time one operation, then check its output outside the timed region.

    Returns (start, wall seconds, CPU seconds, problems). CPU time includes
    finished children; wall and CPU time exclude reference readings taken
    during the op. With a tracer, its wrappers are installed just outside
    the timed call, the op's own span (if any) is opened inside it, and
    both are gone before the check runs.
    """
    clock = probe.clock if probe else time.perf_counter
    traced_span = tracer.span(op.span) if tracer and op.span else contextlib.nullcontext()
    with tracer.enabled() if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        spent = probe.spent if probe else 0.0
        c0 = cpu_seconds()
        t0 = clock()
        try:
            with traced_span:
                out = op.run()
        except Exception as exc:  # a failing op is counted, and the run goes on
            problems = [f"{op.label}: raised {exc!r}"]
        else:
            problems = None
        wall = clock() - t0
        cpu = cpu_seconds() - c0 - ((probe.spent - spent) if probe else 0.0)
    return start, wall, cpu, problems if problems is not None else op.check(out)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def another_round_fits(start, round_start, seconds):
    """Whether a round as long as the last one would still end within ``seconds``."""
    now = time.perf_counter()
    return (now - start) + (now - round_start) <= seconds


def measure(wl, seconds, tally):
    """Closed loop: whole rounds of ops, one at a time, for ``seconds``
    (at least one round; no round starts that would likely overrun).

    Reference readings (reference.py) are taken throughout, and each op's
    CPU time is divided by the mean reading around it.
    """
    probe = wl.make_probe()
    raw = []
    start = time.perf_counter()
    probe.start()
    try:
        r = 0
        while r == 0 or another_round_fits(start, round_start, seconds):
            round_start = time.perf_counter()
            for op in wl.ops(r):
                probe.between_ops()
                t0, wall, cpu, problems = run_op(op, probe=probe)
                tally.add(problems)
                raw.append((r, op.label, t0, wall, cpu, op.work))
            r += 1
    finally:
        probe.stop()
    samples = [Sample(*x, probe.around(x[2], x[2] + x[3])) for x in raw]
    return samples, probe


def _by_round(samples, field):
    rounds = {}
    for s in samples:
        rounds.setdefault(s.round, []).append(getattr(s, field))
    return list(rounds.values())


def op_percentile(wl, samples, field, q):
    """Percentile q of the per-op values.

    When the op is a whole round, over the round totals. Otherwise it is
    taken within each round and the median over rounds is reported: every
    round runs the same mix of ops, so the value does not jump with the
    number of rounds that fit into the run.
    """
    rounds = _by_round(samples, field)
    if wl.per_round:
        return report.percentile([sum(r) for r in rounds], q)
    return median([report.percentile(r, q) for r in rounds])


def _timing(name, values, unit_note, q):
    return (
        f"{name}.p50 = {median(values):.6f} s {unit_note}, "
        f"{name}.p{q} = {report.percentile(values, q):.6f} s (n={len(values)})"
    )


def end_to_end(wl, samples, probe, setup_cpu):
    """The end-to-end metrics of BENCHMARK.json plus the workload's own report.

    The gated metrics are CPU time (process plus children) in reference
    units (see reference.py); wall and CPU seconds are reported beside them.
    """
    work = sum(s.work for s in samples)
    cost = sum(s.cost for s in samples)
    cpu = sum(s.cpu for s in samples)
    wall = sum(s.wall for s in samples)
    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if wl.rss_of_children else resource.RUSAGE_SELF
    )
    metrics = {
        "setup_s": _metric(median(setup_cpu), "s"),
        "peak_rss_mb": _metric(usage.ru_maxrss / 1024.0, "MB"),
        "work_per_ref": _metric(work / cost, "1/ref"),
        "op_ref.p50": _metric(op_percentile(wl, samples, "cost", 50), "ref"),
        "op_ref.p90": _metric(op_percentile(wl, samples, "cost", 90), "ref"),
    }
    per_s = f"{work / wall:.6g} 1/s wall, {work / cpu:.6g} 1/s cpu"
    lines = [f"peak_rss_mb = {usage.ru_maxrss / 1024.0:.1f} MB"]
    if wl.name == "cli":
        lines += [
            _timing("cli_s", [s.wall for s in samples], "wall", 90),
            _timing("cli_cpu_s", [s.cpu for s in samples], "cpu", 90),
            f"cli_commands_per_s = {per_s}",
        ]
        for cmd in CLI_COMMANDS:
            ts = [s for s in samples if s.label == cmd]
            lines.append(
                f"cli_s.{cmd}.p50 = {median([s.wall for s in ts]):.6f} s wall, "
                f"{median([s.cpu for s in ts]):.6f} s cpu (n={len(ts)})"
            )
    elif wl.name == "verify":
        trial_wall = [s.wall for s in samples]
        trial_cpu = [s.cpu for s in samples]
        lines += [
            f"verify_trials_per_s = {per_s} (n={len(samples)} trials)",
            _timing("verify_trial_s", trial_wall, "wall", 95),
            _timing("verify_trial_cpu_s", trial_cpu, "cpu", 95),
        ]
    elif wl.name == "scale":
        lines.append(f"scale_relays_per_s = {per_s} ({work} relays)")
        rounds = sorted({s.round for s in samples})
        for n_relays in wl.sizes:
            tag = size_tag(n_relays)
            per_round = [
                sum(s.wall for s in samples if s.round == r and s.label[:-1] == tag)
                for r in rounds
            ]
            lines.append(
                f"scale_pipeline_s.{tag} = {median(per_round):.6f} s wall "
                f"(median of {len(per_round)} rounds, shapes a+b)"
            )
        for label in dict.fromkeys(s.label for s in samples):
            ts = [s for s in samples if s.label == label]
            lines.append(
                f"scale_pass_s.{label} = {median([s.wall for s in ts]):.6f} s wall, "
                f"{median([s.cpu for s in ts]):.6f} s cpu (n={len(ts)})"
            )
    lines += [
        f"op_s.p50 = {op_percentile(wl, samples, 'wall', 50):.6f} s wall, "
        f"{op_percentile(wl, samples, 'cpu', 50):.6f} s cpu (per {wl.op_name})",
        f"reference reading = {median(probe.cpu) * 1e3:.4f} ms cpu "
        f"(median of {len(probe.cpu)}; {probe.spent:.3f} s spent on readings)",
    ]
    return metrics, lines


def _probe_seconds(argv, env):
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, check=True, capture_output=True, timeout=120)
    return time.perf_counter() - t0


def interpreter_probes():
    """Median wall time of bare ``import numpy``, and the median extra time of
    ``import diamondnet.cli`` over it, from interleaved pairs of processes."""
    env = package_env(str(ROOT))
    floor, extra = [], []
    for _ in range(FLOOR_REPEATS):
        base = _probe_seconds([sys.executable, "-c", "import numpy"], env)
        full = _probe_seconds([sys.executable, "-c", "import diamondnet.cli"], env)
        floor.append(base)
        extra.append(full - base)
    return median(floor), median(extra)


def traced(wl, seconds, tally):
    """Alternate untraced and traced passes over the same rounds of ops.

    Both passes run in-process under the same reference readings; span
    clocks leave out the time the readings take.
    """
    probe = SignalProbe()
    # the op timing and the spans read the same clock, so spans nest in it
    tracer = tracing.Tracer(clock=lambda: round(probe.clock() * 1e9))
    wall = {False: 0.0, True: 0.0}
    cost = {False: 0.0, True: 0.0}
    ops_traced = 0
    start = time.perf_counter()
    probe.start()
    try:
        r = 0
        while r == 0 or another_round_fits(start, round_start, seconds):
            round_start = time.perf_counter()
            for with_trace in ((False, True) if r % 2 == 0 else (True, False)):
                for op in wl.ops(r, inprocess=True):
                    t0, op_wall, op_cpu, problems = run_op(
                        op, tracer if with_trace else None, probe
                    )
                    ops_traced += with_trace
                    wall[with_trace] += op_wall
                    cost[with_trace] += op_cpu / probe.around(t0, t0 + op_wall)
                    tally.add(problems)
            r += 1
    finally:
        probe.stop()
    floor_s, import_s = interpreter_probes()

    traced_ns = wall[True] * 1e9
    metrics = {}
    lines = [
        f"traced wall {wall[True]:.6f} s, untraced wall {wall[False]:.6f} s, "
        f"{ops_traced} traced ops"
    ]
    lines.append(f"{'span':34s} {'calls':>9s} {'self_s':>11s} {'incl_s':>11s} {'self%':>7s}")
    for name in tracing.SPAN_NAMES + tuple(f"cli.{c}" for c in CLI_COMMANDS):
        calls = tracer.calls.get(name, 0)
        self_ns = tracer.self_ns.get(name, 0)
        incl_ns = tracer.incl_ns.get(name, 0)
        pct = 100.0 * self_ns / traced_ns
        if not name.startswith("cli."):
            metrics[f"{name}.calls"] = _metric(calls / ops_traced, "count/op")
        metrics[f"{name}.self_pct"] = _metric(pct, "%")
        if calls:
            lines.append(
                f"{name:34s} {calls:9d} {self_ns / 1e9:11.6f} {incl_ns / 1e9:11.6f} {pct:7.2f}"
            )
    for name in tracing.COUNT_NAMES:
        value = tracer.counts[name]
        metrics[name] = _metric(value / ops_traced, "count/op")
        if value:
            label = " (computed from array sizes)" if name.endswith("bytes_computed") else ""
            lines.append(f"{name} = {value / ops_traced:.6g} per op{label}")
    if wl.name == "cli":
        for cmd in CLI_COMMANDS:
            per_run = tracer.incl_ns[f"cli.{cmd}"] / tracer.calls[f"cli.{cmd}"] / 1e9
            lines.append(f"cli.{cmd}_s = {per_run:.6f} s per in-process run")
    ratio = cost[True] / cost[False]
    metrics["trace_overhead_ratio"] = _metric(ratio, "ratio")
    metrics["cli.interpreter_floor_s"] = _metric(floor_s, "s")
    metrics["cli.import_s"] = _metric(import_s, "s")
    lines += [
        f"trace_overhead_ratio = {ratio:.4f} (traced / untraced CPU time in reference "
        f"units, same ops; raw wall {wall[True] / wall[False]:.4f})",
        f"cli.interpreter_floor_s = {floor_s:.6f} s "
        f"(python -c 'import numpy', median of {FLOOR_REPEATS})",
        f"cli.import_s = {import_s:.6f} s (import diamondnet.cli on top of the floor)",
        f"self times sum to {sum(tracer.self_ns.values()) / 1e9:.6f} s "
        f"of {wall[True]:.6f} s traced wall",
    ]
    return metrics, lines, tracer


def run(workload, seed, seconds, trace, out=None, wl_kwargs=None):
    """One benchmark run; returns the result dict (also written to ``out``)."""
    src = ROOT / "src"
    if not (src / "diamondnet" / "__init__.py").is_file():
        raise FileNotFoundError(f"no diamondnet package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    (HERE / "tmp").mkdir(exist_ok=True)
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=HERE / "tmp") as tmpdir:
        cls = WORKLOADS[workload]
        setup_wall, setup_cpu = [], []
        for _ in range(1 if trace else cls.setup_reps):
            c0 = cpu_seconds()
            t0 = time.perf_counter()
            pkg = import_package(src)
            wl = cls(pkg, str(ROOT), seed, tmpdir, **(wl_kwargs or {}))
            wl.setup()
            setup_wall.append(time.perf_counter() - t0)
            setup_cpu.append(cpu_seconds() - c0)
        samples, probe, tracer = [], None, None
        if trace:
            metrics, lines, tracer = traced(wl, seconds, tally)
        else:
            samples, probe = measure(wl, seconds, tally)
            metrics, lines = end_to_end(wl, samples, probe, setup_cpu)
    env = report.environment(pkg, seed)
    lines = [
        f"workload {workload} seed {seed} seconds {seconds} trace {trace}",
        "env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "note"),
        f"note: {env['note']}",
        f"setup_s = {median(setup_cpu):.6f} s cpu, {median(setup_wall):.6f} s wall "
        f"(median of {len(setup_cpu)})",
        f"fail_ratio = {tally.failed / tally.attempted:.6g} "
        f"({tally.failed} of {tally.attempted} ops)",
        *[f"problem: {p}" for p in tally.problems[:20]],
        *lines,
    ]
    if not trace:
        lines += [f"{k} = {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": env,
        "setup_wall_s": setup_wall,
        "setup_cpu_s": setup_cpu,
        "report": lines,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "samples": [s._asdict() for s in samples],
        "reference_cpu_s": probe.cpu.tolist() if probe else [],
        "reference_at_s": probe.times.tolist() if probe else [],
    }
    if out is not None:
        out = Path(out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
        if tracer is not None:
            tracer.dump(out.with_suffix(".spans.json"))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="results file (default under perfbench/results/)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)

    if args.compare:
        for line in report.compare(report.load_spec(ROOT), *args.compare):
            print(line)
        return 0
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    out = args.out or HERE / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, out)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in result["report"]:
        print(line)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
