"""Self-test of the benchmark: python3 -m pytest bench/test_bench.py

Each workload runs once at smoke size (one pass) untraced and traced. The
tests check the contract of the result line, the correctness gates, the
layer predictions of NOTES.md, and that tracing leaves curvedks as it found it.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run_bench  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = sorted(run_bench.PASSES_AT_25S)


def _run(workload, trace, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "bench", "run_bench.py"),
                           "--workload", workload, "--seed", "7", "--seconds", "1",
                           "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


@pytest.fixture(scope="module", params=WORKLOADS)
def results(request):
    out = {}
    for trace in (0, 1):
        proc = _run(request.param, trace)
        assert proc.returncode == 0, proc.stderr
        out[trace] = (proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1]))
    return request.param, out


def test_benchmark_json_matches_run_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == ["flow", "fine", "coarse"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run_bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, *_ in run_bench.PER_LAYER]


def test_result_line_and_gates(results):
    workload, out = results
    for trace, names in ((0, run_bench.END_TO_END),
                         (1, [(n, u) for n, u, *_ in run_bench.PER_LAYER])):
        stdout, line = out[trace]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert [(k, v["unit"]) for k, v in line["metrics"].items()] == names
        for name, unit in names:
            assert f"{name} " in stdout   # printed by name, with its unit, for a reader
    end_to_end = out[0][1]["metrics"]
    assert all(v["value"] > 0 for v in end_to_end.values())
    assert "fail_frac" in out[0][0]
    assert "tracer_missing" not in out[1][0]


def test_layer_predictions(results):
    workload, out = results
    metrics = {k: v["value"] for k, v in out[1][1]["metrics"].items()}
    for name, _, nonzero_on, _ in run_bench.PER_LAYER:
        if workload in nonzero_on:
            assert metrics[name] > 0, name
    if workload != "coarse":
        assert metrics["potential.direct_pairs"] == 0
    for name, value in metrics.items():
        if name.split(".")[0] in ("flow", "sphere") or name.startswith("virial.solve_aux_pde"):
            owner = {"flow": "flow", "sphere": "fine", "virial": "coarse"}[name.split(".")[0]]
            assert (value != 0) == (workload == owner), name


def test_tracer_restores_every_binding():
    import numpy as np
    from curvedks import cli, domain, geometry, potential, stationary
    before = tracer.bindings()
    originals = (potential.newtonian_potential, stationary.newtonian_potential,
                 cli.newtonian_potential, stationary.DensityField.__init__)
    t = tracer.Tracer()
    t.install()
    try:
        assert potential.newtonian_potential is not originals[0]
        assert stationary.newtonian_potential is potential.newtonian_potential
        g = domain.CartesianGrid(center=(0.0, 0.0), half_width=4.0, n=16)
        stationary.DensityField(grid=g, samples=np.ones((16, 16)),
                                phi=geometry.ConformalFactor.zero()).potential(method="direct")
    finally:
        t.uninstall()
    assert t.missing == []
    assert tracer.bindings() == before
    assert (potential.newtonian_potential, stationary.newtonian_potential,
            cli.newtonian_potential, stationary.DensityField.__init__) == originals
    values = tracer.layer_values(t.record(), 1)
    assert values["potential.direct_pairs"] == 16 ** 4
    assert values["stationary.DensityField.calls"] == 1
    assert values["potential.newtonian_potential.calls"] == 1


def test_tail_percentile_has_ten_samples_beyond():
    value, pct, beyond = run_bench.tail(list(range(100)))
    assert (value, beyond) == (89, 10) and pct == 90.0


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("flow", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
