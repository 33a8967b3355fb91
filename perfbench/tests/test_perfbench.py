"""The benchmark's own tests, at tiny sizes: python3 -m pytest -q perfbench/tests"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import report  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
from workloads import CliWorkload, ScaleWorkload  # noqa: E402

SPEC = report.load_spec(ROOT)
TINY = {"scale": {"sizes": (200, 1000)}}


def _run(workload, trace, tmp_path):
    out = tmp_path / f"{workload}-{trace}.json"
    return bench.run(workload, 7, 0.01, trace, out, wl_kwargs=TINY.get(workload))


@pytest.mark.parametrize("workload", ["cli", "verify", "scale"])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    result = _run(workload, trace, tmp_path)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    report_text = "\n".join(result["report"])
    assert "fail_ratio = 0 " in report_text
    named = {
        "cli": ["cli_s.p50", "cli_s.p90"],
        "verify": ["verify_trials_per_s", "verify_trial_s.p50", "verify_trial_s.p95"],
        "scale": ["scale_relays_per_s", "scale_pipeline_s.n200", "scale_pipeline_s.n1e3"],
    }[workload]
    for name in named if not trace else ["trace_overhead_ratio"]:
        assert f"{name} = " in report_text


def test_traced_self_times_sum_to_no_more_than_the_traced_wall(tmp_path):
    result = _run("verify", 1, tmp_path)
    shares = [m["value"] for n, m in result["metrics"].items() if n.endswith(".self_pct")]
    assert 0.0 < sum(shares) <= 100.0
    spans = json.loads((tmp_path / "verify-1.spans.json").read_text())
    assert len(spans["name"]) == len(spans["start_ns"]) == len(spans["parent"])
    assert all(e >= s for s, e in zip(spans["start_ns"], spans["end_ns"]))


def test_tracer_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    assert tracer.calls == {"outer": 1, "inner": 1}
    assert tracer.self_ns["outer"] + tracer.self_ns["inner"] == tracer.incl_ns["outer"]
    assert list(tracer.span_parent) == [-1, 0]


def test_corrupted_cli_report_counts_in_fail_ratio(tmp_path, monkeypatch):
    original = CliWorkload._run_subprocess

    def corrupt_omega(self, argv):
        code, stdout = original(self, argv)
        if argv[0] == "omega":
            rep = json.loads(stdout)
            rep["omega"] = rep["omega"] * (1 + 1e-12)
            stdout = json.dumps(rep)
        return code, stdout

    monkeypatch.setattr(CliWorkload, "_run_subprocess", corrupt_omega)
    result = _run("cli", 0, tmp_path)
    assert not result["correct"]
    assert result["failed"] == 2 and result["attempted"] == 9  # two omega runs a round
    assert any(line.startswith("fail_ratio = 0.222222 ") for line in result["report"])


def test_scale_check_catches_a_broken_round_trip(tmp_path):
    pkg = bench.import_package((ROOT / "src").resolve())
    wl = ScaleWorkload(pkg, str(ROOT), 5, str(tmp_path), sizes=(300,))
    wl.setup()
    for op in wl.ops(0):
        rt, om, sels, cap, tradeoff, text = op.run()
        assert op.check((rt, om, sels, cap, tradeoff, text)) == []
        broken = text.replace("rate = ", "rate = 1", 1).replace("relay = ", "relay = 1", 1)
        assert op.check((rt, om, sels, cap, tradeoff, broken))


def test_compare_prints_ratio_and_verdict(tmp_path):
    def write(name, value):
        d = tmp_path / name
        d.mkdir()
        metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in SPEC["end_to_end"]}
        res = {"workload": "verify", "trace": 0, "metrics": metrics}
        (d / "r.json").write_text(json.dumps(res))
        return d

    lines = report.compare(SPEC, write("old", 1.0), write("new", 2.0))
    assert len(lines) == len(SPEC["end_to_end"])
    by_metric = {line.split()[1]: line for line in lines}
    assert "new/old = 2.0000 (base: old)" in by_metric["setup_s"]
    assert by_metric["setup_s"].endswith("-> worse")
    assert by_metric["work_per_ref"].endswith("-> better")
    assert report.verdict(1.0, 1.01, "lower", 0.1) == "unresolved"


def test_exits_nonzero_without_the_package(tmp_path):
    skip = shutil.ignore_patterns("results", "tmp", "__pycache__")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
