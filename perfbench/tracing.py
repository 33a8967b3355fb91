"""Span tracing installed from outside the package.

``Tracer.enabled()`` replaces each traced public function with a timing
wrapper on every name that binds it inside the ``diamondnet`` package (for
example ``diamondnet.verify.omega_fast`` as well as
``diamondnet.cuts.omega_fast``), and restores the originals on exit. No
file under ``src/`` changes; the wrappers exist only while the context is
open, so untraced runs pay nothing.

Spans (name, start, end, parent) are kept in memory as integer arrays and
written out by ``dump``. Self time is a span's duration minus the time its
child spans cover, computed as each span closes.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
import time
from array import array

_F8 = 8  # bytes per float64 / int64 element


def _count_loads(counts, args, kwargs, result):
    counts["netfile.loads.bytes"] += len(args[0])  # the files are ASCII


def _count_omega_fast(counts, args, kwargs, result):
    counts["cuts.omega_fast.comparisons"] += result.comparisons


def _count_select(counts, args, kwargs, result):
    counts["selection.select.comparisons"] += result.comparisons


def _count_omega_k(counts, args, kwargs, result):
    rt, k = args[0], (args[1] if len(args) > 1 else kwargs["k"])
    counts["selection.omega_k_bruteforce.subsets"] += math.comb(rt.n, int(k))


# Kernel work counts are computed from array shapes, not measured. Bytes are
# the arrays a kernel must read and write: its arguments, its result and,
# for the two lattice kernels, their 2**n-entry float64 tables (3 for
# brute_omega, 6 for sandwich_scan, as the numpy lane allocates them).


def _count_brute_omega(counts, args, kwargs, result):
    n = args[0].shape[0]
    counts["kernels.brute_omega.cells"] += 1 << n
    counts["kernels.brute_omega.bytes_computed"] += _F8 * (2 * n + 3 * (1 << n))


def _count_sandwich_scan(counts, args, kwargs, result):
    n = args[0].shape[0]
    counts["kernels.sandwich_scan.cells"] += 1 << n
    counts["kernels.sandwich_scan.bytes_computed"] += _F8 * (3 * n + 6 * (1 << n))


def _count_omega_rows(counts, args, kwargs, result):
    members = args[0]
    rows, k = members.shape
    counts["kernels.omega_rows.rows"] += rows
    # member indices, the gathered (r_s, r_d) pairs, one value per row
    counts["kernels.omega_rows.bytes_computed"] += members.nbytes + _F8 * rows * (2 * k + 1)


def _count_af_rate_batch(counts, args, kwargs, result):
    w, alphas = args[0], args[3]
    rows = alphas.shape[0]
    counts["kernels.af_rate_batch.rows"] += rows
    counts["kernels.af_rate_batch.bytes_computed"] += alphas.nbytes + _F8 * (2 * w.shape[0] + rows)


def _count_sorted_scan(counts, args, kwargs, result):
    n = args[0].shape[0]
    counts["kernels.omega_sorted_scan.rows"] += n
    counts["kernels.omega_sorted_scan.bytes_computed"] += _F8 * 2 * n


# (defining module, attribute path, span name, work counter or None). Span
# names are "<layer>.<function>"; the layer is the defining module.
TARGETS = (
    ("diamondnet.netfile", "loads", "netfile.loads", _count_loads),
    ("diamondnet.netfile", "NetworkFile.dumps", "netfile.dumps", None),
    ("diamondnet.model", "rate_table", "model.rate_table", None),
    ("diamondnet.generate", "random_network", "generate.random_network", None),
    ("diamondnet.cuts", "omega_fast", "cuts.omega_fast", _count_omega_fast),
    ("diamondnet.cuts", "omega_bruteforce", "cuts.omega_bruteforce", None),
    ("diamondnet.cuts", "sandwich", "cuts.sandwich", None),
    ("diamondnet.cuts", "cut_value", "cuts.cut_value", None),
    ("diamondnet.selection", "select", "selection.select", _count_select),
    ("diamondnet.selection", "omega_k_bruteforce", "selection.omega_k_bruteforce", _count_omega_k),
    ("diamondnet.selection", "verify_selection", "selection.verify_selection", None),
    ("diamondnet.selection", "hybrid_tradeoff", "selection.hybrid_tradeoff", None),
    ("diamondnet.af", "af_optimize", "af.af_optimize", None),
    ("diamondnet.af", "af_rate_batch", "af.af_rate_batch", None),
    ("diamondnet.af", "af_upper_bound", "af.af_upper_bound", None),
    ("diamondnet.kernels", "brute_omega", "kernels.brute_omega", _count_brute_omega),
    ("diamondnet.kernels", "sandwich_scan", "kernels.sandwich_scan", _count_sandwich_scan),
    ("diamondnet.kernels", "omega_rows", "kernels.omega_rows", _count_omega_rows),
    ("diamondnet.kernels", "af_rate_batch", "kernels.af_rate_batch", _count_af_rate_batch),
    ("diamondnet.kernels", "omega_sorted_scan", "kernels.omega_sorted_scan", _count_sorted_scan),
    ("diamondnet.verify", "run_verification", "verify.run_verification", None),
)

SPAN_NAMES = tuple(t[2] for t in TARGETS)

COUNT_NAMES = (
    "netfile.loads.bytes",
    "cuts.omega_fast.comparisons",
    "selection.select.comparisons",
    "selection.omega_k_bruteforce.subsets",
    "kernels.brute_omega.cells",
    "kernels.brute_omega.bytes_computed",
    "kernels.sandwich_scan.cells",
    "kernels.sandwich_scan.bytes_computed",
    "kernels.omega_rows.rows",
    "kernels.omega_rows.bytes_computed",
    "kernels.af_rate_batch.rows",
    "kernels.af_rate_batch.bytes_computed",
    "kernels.omega_sorted_scan.rows",
    "kernels.omega_sorted_scan.bytes_computed",
)


def _resolve(module_name, path):
    owner = sys.modules[module_name]
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


class Tracer:
    """In-memory span recorder with per-name call, self and inclusive totals."""

    def __init__(self, clock=time.perf_counter_ns):
        self._clock = clock  # nanoseconds
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self._stack: list[list[int]] = []  # [span index, start ns, child ns]
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.incl_ns: dict[str, int] = {}
        self.counts: dict[str, int] = {name: 0 for name in COUNT_NAMES}
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_ns[name] = 0
            self.incl_ns[name] = 0
        return nid

    def _open(self, nid):
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0)
        start = self._clock()
        self.span_start.append(start)
        self._stack.append([idx, start, 0])

    def _close(self):
        end = self._clock()
        idx, start, child_ns = self._stack.pop()
        self.span_end[idx] = end
        dur = end - start
        name = self.names[self.span_name[idx]]
        self.calls[name] += 1
        self.incl_ns[name] += dur
        self.self_ns[name] += dur - child_ns
        if self._stack:
            self._stack[-1][2] += dur

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around a call into a layer."""
        self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close()

    def _wrap(self, fn, name, counter):
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def enabled(self):
        """Install the wrappers on every binding in the package, then restore."""
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "diamondnet" or name.startswith("diamondnet."))
        ]
        try:
            for module_name, path, name, counter in TARGETS:
                owner, attr = _resolve(module_name, path)
                original = getattr(owner, attr)
                wrapper = self._wrap(original, name, counter)
                if isinstance(owner, type):
                    self._patch(owner, attr, original, wrapper)
                    continue
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, key, original, wrapper)
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def dump(self, path):
        """Write every span as parallel arrays (name ids index ``names``)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.span_name.tolist(),
                    "start_ns": self.span_start.tolist(),
                    "end_ns": self.span_end.tolist(),
                    "parent": self.span_parent.tolist(),
                },
                fh,
            )
