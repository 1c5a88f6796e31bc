"""curvedks benchmark: three workloads, each measured in its own process.

Run from the repository root (stdlib only here; the workload process needs
numpy and scipy):

    python3 bench/run_bench.py --workload flow --seed 1 --seconds 25 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced pass. Human-readable lines come first; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
Every file a run writes goes to a temporary directory under .bench_tmp/,
which is removed before this script exits. See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))

# Passes per run at the benchmark's run length of 25 s (other --seconds scale
# it). A fixed count makes every run of a workload do the same ops, so the
# median and the tail percentile land on the same group of like-sized ops
# each time rather than on the edge between two groups (see NOTES.md).
PASSES_AT_25S = {"flow": 8, "fine": 4, "coarse": 4}
SETUP_SAMPLES = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 170.0          # every workload process of a run ends within this

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("op_ms_p50", "ms"), ("op_ms_tail", "ms"),
    ("peak_rss_mb", "MB"), ("max_rel_err", "ratio"),
]

# (metric, unit, workloads where it must be nonzero, end-to-end metric it moves)
PER_LAYER = [
    ("potential.newtonian_potential.s", "s", ("flow", "fine", "coarse"), "wall_s on all"),
    ("potential.newtonian_potential.calls", "count", ("flow", "fine", "coarse"), "wall_s on all"),
    ("potential.lattice_potential.s", "s", ("flow", "fine", "coarse"), "wall_s on all"),
    ("potential.lattice_potential.calls", "count", ("flow", "fine", "coarse"), "wall_s on all"),
    ("potential.direct_pairs", "count", ("coarse",), "wall_s, op_ms_p50 on coarse"),
    ("potential.fft_cells", "count", ("flow", "fine"), "wall_s on flow, fine"),
    ("potential.kernel_builds", "count", ("flow", "fine"), "wall_s on fine, flow"),
    ("potential.estimate_tail.s", "s", ("flow", "fine", "coarse"), "op_ms_p50 on flow"),
    ("potential.estimate_tail.calls", "count", ("flow", "fine", "coarse"), "op_ms_p50 on flow"),
    ("flow.flow_step.self_s", "s", ("flow",), "op_ms_p50 on flow"),
    ("flow.flow_step.calls", "count", ("flow",), "op_ms_p50 on flow"),
    ("flow.flux_divergence.s", "s", ("flow",), "op_ms_p50 on flow"),
    ("flow.cfl_bound.s", "s", ("flow",), "op_ms_p50 on flow"),
    ("stationary.DensityField.s", "s", ("flow", "fine"), "op_ms_p50 on flow"),
    ("stationary.DensityField.calls", "count", ("flow", "fine"), "op_ms_p50 on flow"),
    ("stationary.reduced_residual.self_s", "s", ("fine", "coarse"), "wall_s on fine, coarse"),
    ("stationary.default_test_bank.s", "s", ("fine", "coarse"), "wall_s on fine, coarse"),
    ("geometry.ConformalFactor.on_grid.s", "s", ("flow", "fine", "coarse"),
     "op_ms_p50 on flow (curved runs), wall_s on coarse"),
    ("geometry.ConformalFactor.on_grid.calls", "count", ("flow", "fine", "coarse"),
     "op_ms_p50 on flow (curved runs), wall_s on coarse"),
    ("domain.CartesianGrid.meshes.s", "s", ("flow", "fine", "coarse"), "wall_s on all"),
    ("domain.CartesianGrid.meshes.calls", "count", ("flow", "fine", "coarse"), "wall_s on all"),
    ("profiles.ScaledCauchyProfile.on_grid.s", "s", ("fine", "coarse"), "wall_s on fine"),
    ("energy.free_energy.s", "s", ("flow", "fine"), "op_ms_p50 on flow (snapshots)"),
    ("energy.log_hls_deficit.s", "s", ("fine", "coarse"), "wall_s on fine, coarse"),
    ("energy.lambda_scan.self_s", "s", ("fine",), "wall_s on fine"),
    ("virial.potential_gradient.s", "s", ("fine", "coarse"), "wall_s on fine, coarse"),
    ("virial.assemble_virial.self_s", "s", ("fine", "coarse"), "wall_s on fine, coarse"),
    ("virial.WeightedEllipticProblem.build.s", "s", ("coarse",), "wall_s on coarse"),
    ("virial.solve_aux_pde.s", "s", ("coarse",), "wall_s on coarse"),
    ("virial.solve_aux_pde.iterations", "count", ("coarse",), "wall_s on coarse"),
    ("virial.solve_aux_pde.final_rel_residual", "ratio", ("coarse",), "max_rel_err on coarse"),
    ("sphere.nonexistence_certificate.self_s", "s", ("fine",), "wall_s, op_ms_tail on fine"),
    ("sphere.obstruction_integral.s", "s", ("fine",), "wall_s, op_ms_tail on fine"),
    ("sphere.transport_to_sphere.s", "s", ("fine",), "wall_s on fine"),
    ("sphere.kw_residual.s", "s", ("fine",), "wall_s on fine"),
    ("cli.main.self_s", "s", ("flow",), "wall_s on flow"),
    ("cli.csv_write.s", "s", ("flow",), "wall_s on flow"),
    ("cli.bytes_written", "bytes", ("flow",), "wall_s on flow"),
    ("trace.untraced_wall_s", "s", ("flow", "fine", "coarse"), "reference for the overhead"),
    ("trace.traced_wall_s", "s", ("flow", "fine", "coarse"), "reference for the overhead"),
    ("trace.overhead_s", "s", (), "tracing cost per pass, not a program metric"),
]

# a layer metric made of several spans
COMPOSITE = {"cli.csv_write.s": ("stationary.DensityField.to_csv.s", "flow.diagnostics_to_csv.s")}


def tail(latencies_ms):
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond); with fewer than eleven
    samples that is the maximum, with fewer than ten beyond it.
    """
    xs = sorted(latencies_ms)
    k = len(xs) - 11 if len(xs) >= 11 else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"     # leave no __pycache__ in src/
    env.pop("CURVEDKS_OUTPUT_DIR", None)     # it would override the ops' output dirs
    # one BLAS thread: the workload is then a plain single-threaded baseline
    # and the second core absorbs this process and other load; two threads did
    # not make a coarse pass faster on a 2-core box
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def run_child(args, tmp, env, passes, deadline, setup_only=False) -> dict:
    """Start one workload process, wait for it, and return its result file.

    The process is killed if it is still running at `deadline` (monotonic).
    """
    out = os.path.join(tmp, f"result-{time.monotonic_ns()}.json")
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--passes", str(passes),
           "--trace", str(args.trace), "--src", SRC, "--tmp", tmp, "--out", out]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, env=env, cwd=tmp, stdout=subprocess.DEVNULL)
    try:
        rc = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"the run did not end within {RUN_LIMIT_S:.0f} s")
    if rc != 0:
        raise RuntimeError(f"workload process exited with code {rc}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(args, tmp, env, deadline):
    passes = max(1, round(PASSES_AT_25S[args.workload] * args.seconds / 25.0))
    setups = [run_child(args, tmp, env, passes, deadline, setup_only=True)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    res = run_child(args, tmp, env, passes, deadline)
    setups.append(res["setup_s"])
    lat_ms = [1e3 * v for v in res["latencies"]]
    tail_ms, tail_pct, beyond = tail(lat_ms)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(res["walls"]),
        "op_ms_p50": statistics.median(lat_ms),
        "op_ms_tail": tail_ms,
        "peak_rss_mb": res["peak_rss_mb"],
        "max_rel_err": res["max_rel_err"],
    }
    remarks = {
        "setup_s": f"median of {len(setups)} process starts",
        "wall_s": f"median of {len(res['walls'])} passes",
        "op_ms_p50": f"median of {len(lat_ms)} ops",
        "op_ms_tail": f"p{tail_pct:.1f}, {beyond} of {len(lat_ms)} samples beyond",
        "peak_rss_mb": "ru_maxrss of the workload process",
        "max_rel_err": "worst error against the closed forms",
    }
    return metrics, remarks, res


def per_layer(args, tmp, env, deadline):
    passes = max(1, round(PASSES_AT_25S[args.workload] * args.seconds / 50.0))
    res = run_child(args, tmp, env, passes, deadline)
    sys.path.insert(0, HERE)
    sys.dont_write_bytecode = True   # leave no __pycache__ in bench/
    from tracer import layer_values
    values = layer_values(res["trace"], len(res["traced_walls"]))
    for name, parts in COMPOSITE.items():
        values[name] = sum(values.get(p, 0.0) for p in parts)
    untraced = statistics.median(res["walls"])
    traced = statistics.median(res["traced_walls"])
    values.update({"trace.untraced_wall_s": untraced, "trace.traced_wall_s": traced,
                   "trace.overhead_s": traced - untraced})
    metrics = {name: values.get(name, 0.0) for name, *_ in PER_LAYER}
    remarks = {"trace.overhead_s": f"{100 * (traced - untraced) / untraced:+.2f}% of a pass, "
                                   f"{len(res['traced_walls'])} traced and "
                                   f"{len(res['walls'])} untraced passes"}
    return metrics, remarks, res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="curvedks benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(PASSES_AT_25S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(SRC, "curvedks", "__init__.py")):
        print(f"no curvedks sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = child_env()
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, remarks, res = measure(args, tmp, env, deadline)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass
    units = dict(END_TO_END if not args.trace else [(n, u) for n, u, *_ in PER_LAYER])
    v = res["versions"]
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"# nproc={nproc} blas_threads={env['OPENBLAS_NUM_THREADS']} "
          f"python={v['python']} numpy={v['numpy']} scipy={v['scipy']} blas={v['blas']} "
          f"curvedks={v['curvedks']} git={git_sha()}")
    if res.get("trace", {}).get("missing"):
        print(f"# tracer_missing={','.join(res['trace']['missing'])}")
    for name, value in metrics.items():
        note = f"  ({remarks[name]})" if name in remarks else ""
        print(f"{name:42s} {value:.6g} {units[name]}{note}")
    failures = res["failures"]
    print(f"{'fail_frac':42s} {len(failures) / res['attempted']:.6g}  "
          f"({len(failures)} of {res['attempted']} gates failed)")
    for label, steps in sorted(res["notes"].get("steps", {}).items()):
        print(f"{'flow.steps[' + label + ']':42s} {steps} steps per run")
    for line in failures[:20]:
        print(f"FAILED GATE {line}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": res["attempted"],
                      "failed": len(failures),
                      "metrics": {n: {"value": val, "unit": units[n]}
                                  for n, val in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
