"""Statistics, run environment and the compare mode of the benchmark."""

from __future__ import annotations

import importlib.util
import json
import math
import os
import platform
import statistics
from pathlib import Path

NOTE = (
    "shared machine: no CPU pinning, no frequency control and no cache "
    "dropping were used; timings include whatever else the machine ran"
)


def percentile(values, q):
    """Linear-interpolation percentile (numpy's default), q in [0, 100]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _l3_size():
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            if (index / "level").read_text().strip() == "3":
                return (index / "size").read_text().strip()
    except OSError:
        pass
    return "unknown"


def environment(pkg, seed):
    """Versions and machine facts that a reader needs to compare two runs."""
    import numpy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernels_backend": pkg.kernels.BACKEND,
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "numba_imported": bool(pkg.kernels.HAVE_NUMBA),
        "nproc": os.cpu_count(),
        "cpus_allowed": affinity,
        "l3_cache": _l3_size(),
        "platform": platform.platform(),
        "seed": seed,
        "note": NOTE,
    }


def load_spec(root):
    with open(Path(root) / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _result_files(path):
    path = Path(path)
    if path.is_dir():
        return sorted(p for p in path.glob("*.json") if not p.name.endswith(".spans.json"))
    return [path]


def _medians(path):
    """workload -> metric -> median value over the untraced result files."""
    values = {}
    for f in _result_files(path):
        with open(f, encoding="utf-8") as fh:
            res = json.load(fh)
        if res.get("trace"):
            continue
        per = values.setdefault(res["workload"], {})
        for name, m in res["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return {
        w: {k: (statistics.median(v), len(v)) for k, v in per.items()}
        for w, per in values.items()
    }


def verdict(old, new, better, bound):
    """better / worse when the median moved by more than the bound, else unresolved."""
    ratio = new / old
    gain = ratio < 1.0 - bound if better == "lower" else ratio > 1.0 + bound
    loss = ratio > 1.0 + bound if better == "lower" else ratio < 1.0 - bound
    return "better" if gain else "worse" if loss else "unresolved"


def compare(spec, old_path, new_path):
    """Lines comparing two result sets metric by metric, workload by workload."""
    old = _medians(old_path)
    new = _medians(new_path)
    lines = []
    for workload in sorted(set(old) & set(new)):
        for m in spec["end_to_end"]:
            name = m["name"]
            if name not in old[workload] or name not in new[workload]:
                continue
            (a, na), (b, nb) = old[workload][name], new[workload][name]
            lines.append(
                f"{workload:8s} {name:14s} old {a:.6g} {m['unit']} (n={na})  "
                f"new {b:.6g} {m['unit']} (n={nb})  new/old = {b / a:.4f} "
                f"(base: old)  bound {m['bound']:.0%} {m['better']} is better  "
                f"-> {verdict(a, b, m['better'], m['bound'])}"
            )
    return lines
