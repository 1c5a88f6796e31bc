"""Workload process of the curvedks benchmark: one workload, fresh interpreter.

run_bench.py starts this script once per measurement so that kernel caches
and peak RSS are per workload and start cold, as a command-line user's do.
It builds the seeded inputs, runs whole passes over the workload's ops,
checks every op's output against the paper's closed forms with the
acceptance suite's pinned tolerances, and writes one JSON result file.

Ops call the library through module attributes (`energy.lambda_scan`, not a
name imported into this file), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import numpy as np
import scipy

import curvedks
from curvedks import (cli, domain, energy, geometry, potential, profiles, sphere,
                      stationary, virial)

FLAT = geometry.ConformalFactor.zero()
LN8 = float(np.log(8.0))


class Gates:
    """Correctness gates: each attempt counts; max_rel_err tracks closed-form errors."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.max_rel_err = 0.0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)

    def rel(self, name: str, value: float, exact: float, tol: float | None) -> float:
        """Relative error of value against a closed form; gated when tol is given."""
        err = abs(value - exact) / abs(exact)
        if not np.isfinite(err):
            err = float("inf")
        self.max_rel_err = max(self.max_rel_err, err)
        if tol is not None:
            self.check(name, err <= tol, f"relative error {err:.3e} > {tol:g}")
        return err


class Op:
    """One timed library call (`run`) and its untimed output check (`check`)."""

    def __init__(self, name, run, check):
        self.name, self.run, self.check = name, run, check


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(v)) for v in values)


def _grid(half_width, n, center=(0.0, 0.0)):
    return domain.CartesianGrid(center=center, half_width=half_width, n=n)


def _critical(grid, phi=FLAT):
    return stationary.density_from_profile(8 * np.pi, 1.0, (0.0, 0.0), phi, grid)


def _cauchy_mixture(rng, grid, phi, m=8 * np.pi):
    """The acceptance suite's random deficit family: Cauchy bumps plus a Gaussian."""
    X, Y = grid.meshes()
    e2phi = np.exp(2.0 * phi(X, Y))
    rho = np.zeros_like(X)
    for _ in range(rng.integers(1, 4)):
        lam = float(rng.uniform(0.5, 3.0))
        cx, cy = rng.uniform(-4, 4, size=2)
        w = float(rng.uniform(0.2, 1.0))
        rho += w * profiles.ScaledCauchyProfile(lam=lam, x_star=(cx, cy))(X, Y)
    if rng.random() < 0.5:
        sx = float(rng.uniform(0.7, 2.0))
        rho += 0.3 * np.exp(-((X - rng.uniform(-2, 2)) ** 2 + Y**2) / (2 * sx**2))
    rho *= m / (np.sum(rho * e2phi) * grid.cell_area)
    return stationary.DensityField(grid=grid, samples=rho, phi=phi)


def _deficit_ops(label, fields):
    ops = []
    for k, fld in enumerate(fields):
        ops.append(Op(f"{label}[{k}]",
                      lambda fld=fld: energy.log_hls_deficit(fld, 1.0, (0.0, 0.0)),
                      lambda rep, g, k=k: g.check(f"{label}[{k}] >= -1e-3",
                                                  rep.deficit >= -1e-3,
                                                  f"deficit {rep.deficit:.3e}")))
    return ops


# ---------------------------------------------------------------------------
# flow: repeated in-process `curvedks flow` runs, flat and curved alternating

FLOW_MASS = 4 * np.pi
FLOW_N, FLOW_HALF_WIDTH = 128, 10.0
FLOW_T_END = 0.7            # about 200 CFL-limited steps
FLOW_SNAPSHOT_EVERY = 20    # 11 snapshots; the virial fit needs at least 10


def _read_diagnostics(path):
    rows = [line.split(",") for line in open(path, encoding="utf-8")
            if line[0].isdigit() or line[0] == "-"]
    return np.array(rows, dtype=float)   # columns t, mass, W, F


def build_flow(seed, tmp, tracer, notes):
    rng = np.random.default_rng(seed)
    h = 2 * FLOW_HALF_WIDTH / FLOW_N
    # the seed moves the lattice under the Gaussian by up to half a cell and
    # perturbs its width by up to 2%; the step count stays the same
    center = [float(v) for v in rng.uniform(-0.5 * h, 0.5 * h, size=2)]
    sigma = float(1.0 + 0.02 * rng.uniform(-1.0, 1.0))
    phis = {"flat": {"kind": "zero"},
            "curved": {"kind": "radial_bump", "amplitude": 0.1, "support_radius": 2.0}}
    expected = 4 * FLOW_MASS - FLOW_MASS**2 / (2 * np.pi)
    notes["steps"] = {}
    ops = []
    for label, phi in phis.items():
        outdir = os.path.join(tmp, f"flow-{label}")
        cfg_path = os.path.join(tmp, f"flow-{label}.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump({"grid": {"n": FLOW_N, "half_width": FLOW_HALF_WIDTH, "center": center},
                       "phi": phi, "initial": "gaussian", "mass": FLOW_MASS,
                       "sigma": sigma, "t_end": FLOW_T_END,
                       "snapshot_every": FLOW_SNAPSHOT_EVERY, "output_dir": outdir}, fh)

        def check(rc, g, label=label, outdir=outdir):
            g.check(f"flow[{label}] exit code", rc == 0, f"exit code {rc}")
            with open(os.path.join(outdir, "flow.json"), encoding="utf-8") as fh:
                out = json.load(fh)
            notes["steps"][label] = out["steps"]
            g.check(f"flow[{label}] mass drift <= 1e-10", out["mass_drift"] <= 1e-10,
                    f"drift {out['mass_drift']:.2e}")
            diag = _read_diagnostics(os.path.join(outdir, "flow_diagnostics.csv"))
            F = diag[:, 3]
            rise = float(np.max(np.diff(F))) if len(F) > 1 else 0.0
            g.check(f"flow[{label}] free energy non-increasing",
                    rise <= 1e-3 * float(np.max(np.abs(F))), f"max increase {rise:.2e}")
            if label == "flat":
                g.check("flow[flat] reports dW/dt", "dW_dt" in out)
                slope = out.get("dW_dt", float("nan"))
                tol = max(0.05 * abs(expected), 0.5) / abs(expected)
                g.rel("flow[flat] dW/dt vs 4m - m^2/2pi", slope, expected, tol)
            if tracer is not None and tracer.installed:
                tracer.count("cli.bytes_written",
                             sum(e.stat().st_size for e in os.scandir(outdir)))

        ops.append(Op(f"flow[{label}]",
                      lambda p=cfg_path: cli.main(["flow", "--config", p]), check))
    return ops


# ---------------------------------------------------------------------------
# fine: few large evaluations at the acceptance suite's production resolution

def build_fine(seed, tmp, tracer, notes):
    ops = []
    m8 = 8 * np.pi

    # criterion 1: entropy (n = 1024), potential probes (n = 1024), Coulomb (n = 512)
    for lam in (0.5, 1.0, 2.0):
        ge = _grid(250.0 * lam, 1024)
        vals = m8 * profiles.ScaledCauchyProfile(lam=lam).on_grid(ge)
        ops.append(Op(f"entropy[{lam}]",
                      lambda ge=ge, vals=vals: ge.integrate(vals * np.log(vals)),
                      lambda v, g, lam=lam: g.rel(f"entropy identity lam={lam}", v,
                                                  profiles.mu_entropy_identity(m8, lam), 1e-2)))
        gp = _grid(60.0 * max(1.0, lam), 1024)
        mu = profiles.ScaledCauchyProfile(lam=lam).on_grid(gp)

        def check_potential(c, g, lam=lam, gp=gp):
            j = int(np.argmin(np.abs(gp.y)))
            for rfrac in (1.5, 2.0, 3.0, 5.0, 8.0):
                i = int(np.argmin(np.abs(gp.x - lam * rfrac)))
                exact = profiles.mu_potential_identity(lam, (gp.x[i], gp.y[j]))
                g.rel(f"potential identity lam={lam} r={rfrac}lam", c.samples[i, j], exact, 1e-2)
        ops.append(Op(f"potential[{lam}]",
                      lambda mu=mu, gp=gp: potential.newtonian_potential(mu, FLAT, gp),
                      check_potential))
        gd = _grid(60.0 * lam, 512)
        mud = profiles.ScaledCauchyProfile(lam=lam).on_grid(gd)
        ops.append(Op(f"coulomb[{lam}]",
                      lambda mud=mud, gd=gd: potential.newtonian_potential(mud, FLAT, gd),
                      lambda c, g, lam=lam, mud=mud, gd=gd: g.rel(
                          f"coulomb identity lam={lam}",
                          float(np.sum(mud * c.samples) * gd.cell_area),
                          profiles.mu_coulomb_identity(lam), 1e-2)))

    # criterion 5: flat scan on lambda-scaled grids (one kernel per row), and
    # the curved plateau shift on a fixed grid against the flat scan there
    lams = list(np.geomspace(0.05, 5.0, 9))
    m4 = 4 * np.pi
    ops.append(Op("lambda_scan[flat]", lambda: energy.lambda_scan(m4, FLAT, lams),
                  lambda t, g: g.rel("scan slope vs (m/4pi)(m-8pi)", t.slope_fit,
                                     (m4 / (4 * np.pi)) * (m4 - 8 * np.pi), 0.05)))
    amp = 0.05
    bump = geometry.ConformalFactor.radial_bump(amp, 4.0, (0.0, 0.0))
    gfix = _grid(8.0, 512)
    lams_fix = list(np.geomspace(0.15, 15.0, 9))
    scans = {}
    ops.append(Op("lambda_scan[fixed flat]",
                  lambda: scans.__setitem__("flat", energy.lambda_scan(
                      m8, FLAT, lams_fix, grid=gfix, x_star=(0.0, 0.0))),
                  lambda _, g: g.check("fixed flat scan finite",
                                       _finite(scans["flat"].plateau))))

    def check_shift(_, g):
        shift = scans["curved"].plateau - scans["flat"].plateau
        target = -16 * np.pi * amp
        g.check("curved plateau shift within 5% of -16pi amp",
                abs(shift - target) <= 0.05 * abs(target), f"shift {shift:.4f} vs {target:.4f}")
    ops.append(Op("lambda_scan[fixed curved]",
                  lambda: scans.__setitem__("curved", energy.lambda_scan(
                      m8, bump, lams_fix, grid=gfix)), check_shift))

    # criteria 2-4 at n = 512
    crit40 = _critical(_grid(40.0, 512))
    ops.append(Op("reduced_residual[512]", lambda: stationary.reduced_residual(crit40),
                  lambda r, g: g.check("f_constant within 0.02 of ln 8",
                                       abs(r.f_constant - LN8) <= 0.02,
                                       f"f_constant {r.f_constant:.4f}")))
    g60 = _grid(60.0, 512)
    crit60 = _critical(g60)

    def check_virial(reps, g):
        last = reps[-1]
        g.rel("I2 vs -16pi", last.I2, -16 * np.pi, 0.02)
        g.check("virial closure <= 0.02 * 32pi", abs(last.closure) <= 0.02 * 32 * np.pi,
                f"closure {last.closure:.3f}")
    ops.append(Op("assemble_virial[512]",
                  lambda: virial.assemble_virial(crit60, [5.0, 10.0, 15.0, 20.0, 25.0]),
                  check_virial))
    ops.append(Op("decay_envelope[512]",
                  lambda: stationary.decay_envelope(crit60, domain.AnnulusSpec(R=20.0)),
                  lambda e, g: g.check("tail slope -4 +- 0.1 and K 8 +- 0.5",
                                       abs(e.tail_slope + 4) <= 0.1 and abs(e.K_best - 8) <= 0.5,
                                       f"slope {e.tail_slope:.3f}, K {e.K_best:.3f}")))

    # criterion 6: conformal covariance at the minimizer, and a seeded family
    bump6 = geometry.ConformalFactor.radial_bump(0.1, 3.0, (0.0, 0.0))
    exact6 = _critical(g60, bump6)

    def check_cov(cov, g):
        g.check("covariance difference <= 1e-8", abs(cov.difference) <= 1e-8,
                f"difference {cov.difference:.2e}")
        g.check("minimizer deficit <= 2e-2", cov.curved_deficit <= 2e-2,
                f"deficit {cov.curved_deficit:.2e}")
    ops.append(Op("covariance[512]",
                  lambda: energy.conformal_covariance_check(exact6, 1.0, (0.0, 0.0)), check_cov))
    # the family is the largest group of like-sized ops, which keeps the
    # median op inside it
    rng = np.random.default_rng(seed)
    g256 = _grid(50.0, 256)
    family = [_cauchy_mixture(rng, g256, (FLAT, bump6)[k % 2]) for k in range(24)]
    ops += _deficit_ops("deficit[256]", family)

    # criterion 7 and the sphere side: certificate at 1024 x 2048, transport,
    # a manufactured Kazdan-Warner residual, and the plane-side quadrature
    bump7 = geometry.ConformalFactor.radial_bump(0.05, 2.0, (0.0, 0.0))
    certs = {}

    def check_cert(c, g):
        certs["u=0"] = c.obstructions.get("u=0", float("nan"))
        g.check("certificate eligible", c.eligible, c.reason)
        g.check("|obstruction| >= 1e-3", c.min_magnitude >= 1e-3,
                f"min |obstruction| {c.min_magnitude:.2e}")
    ops.append(Op("nonexistence_certificate[1024x2048]",
                  lambda: sphere.nonexistence_certificate(bump7, lam=1.0, n_lat=1024, n_lon=2048),
                  check_cert))
    smap = sphere.StereographicMap(lam=1.0, x_star=(0.0, 0.0))
    sg = domain.SphereGrid(n_lat=256, n_lon=512)

    def check_transport(res, g):
        u, hf, rep = res
        g.check("transported critical profile: |u| < 0.05, h = 1, cap < 1%",
                float(np.max(np.abs(u.values))) < 0.05 and bool(np.all(hf.values == 1.0))
                and rep.cap_fraction < 0.01,
                f"max|u| {np.max(np.abs(u.values)):.3e}, cap {rep.cap_fraction:.2e}")
    ops.append(Op("transport_to_sphere[256x512]",
                  lambda: sphere.transport_to_sphere(crit60, FLAT, smap, sg), check_transport))
    T, P = sg.meshes()
    u_vals = 0.3 * np.sin(T) + 0.2 * np.cos(T) * np.cos(P) + 0.1 * (1.5 * np.sin(T) ** 2 - 0.5)
    lap = 2 * (0.3 * np.sin(T) + 0.2 * np.cos(T) * np.cos(P)) \
        + 6 * 0.1 * (1.5 * np.sin(T) ** 2 - 0.5)
    u_man = sphere.SphereField(grid=sg, values=u_vals, role="u")
    h_man = sphere.SphereField(grid=sg, values=(lap + 1.0) * np.exp(-2.0 * u_vals), role="h")
    ops.append(Op("kw_residual[256x512]", lambda: sphere.kw_residual(u_man, h_man),
                  lambda r, g: g.check("manufactured KW residual < 5e-3", r < 5e-3,
                                       f"residual {r:.2e}")))
    gplane = _grid(8.0, 512)
    zeros = np.zeros((gplane.n, gplane.n))

    def check_plane(v, g):
        g.check("plane-side |obstruction| >= 1e-3", abs(v) >= 1e-3, f"{v:.3e}")
        gap = abs(v - certs.get("u=0", float("nan"))) / abs(certs.get("u=0", float("nan")))
        g.check("plane and sphere obstructions agree within 1%", gap <= 0.01, f"gap {gap:.2%}")
    ops.append(Op("plane_side_obstruction[512]",
                  lambda: sphere.plane_side_obstruction(zeros, bump7, smap, gplane, 1),
                  check_plane))
    return ops


# ---------------------------------------------------------------------------
# coarse: small grids through method="auto", where the direct sums run

AUX_TOL = 1e-8


def aux_true_residual(problem, f) -> float:
    """||b - A f|| / ||b|| of the auxiliary equation, rebuilt from flat stencils.

    Interior rows: Delta0 f + grad f . grad c - 4 r phi_r e^{2 phi}; boundary
    rows: f itself (the solver imposes f = 0 there).
    """
    grid = problem.rho.grid
    b = problem.rhs * np.exp(2.0 * problem.phi.on_grid(grid))
    gfx, gfy = geometry.grad_flat(f, grid)
    gcx, gcy = geometry.grad_flat(problem.c.samples, grid)
    res = geometry.laplacian_flat(f, grid) + gfx * gcx + gfy * gcy - b
    edge = geometry.boundary_mask(grid)
    res[edge] = f[edge]
    b[edge] = 0.0
    return float(np.linalg.norm(res) / np.linalg.norm(b))


def build_coarse(seed, tmp, tracer, notes):
    ops = []
    bump = geometry.ConformalFactor.radial_bump(0.1, 2.0, (0.0, 0.0))
    g64 = _grid(20.0, 64)
    curved = _critical(g64, bump)
    state = {}

    def solve():
        state["sol"] = virial.solve_aux_pde(state["problem"], tol=AUX_TOL)
        return state["sol"]

    def check_solve(sol, g):
        rel = aux_true_residual(state["problem"], sol.f)
        g.check("aux solve true residual <= tol", rel <= AUX_TOL, f"residual {rel:.2e}")
    # the curved virial goes through the auxiliary solve; `curvedks virial`
    # would assemble I3 with f = 0
    ops.append(Op("WeightedEllipticProblem.build[64 curved]",
                  lambda: state.__setitem__("problem", virial.WeightedEllipticProblem.build(curved)),
                  lambda _, g: g.check("aux problem finite",
                                       _finite(state["problem"].c.samples, state["problem"].rhs))))
    ops.append(Op("solve_aux_pde[64 curved]", solve, check_solve))
    ops.append(Op("assemble_virial[64 curved]",
                  lambda: virial.assemble_virial(curved, [4.0, 8.0], f=state["sol"].f),
                  lambda reps, g: g.check("virial terms finite",
                                          _finite([(r.I1, r.I2, r.I3) for r in reps]))))
    ops.append(Op("reduced_residual[64 curved]", lambda: stationary.reduced_residual(curved),
                  lambda r, g: g.check("curved residual finite",
                                       _finite(r.f_constant, r.reduced_residual_L2,
                                               r.static_residual_L2))))
    for n in (64, 96):
        flat = _critical(_grid(20.0, n))
        ops.append(Op(f"reduced_residual[{n} flat]",
                      lambda flat=flat: stationary.reduced_residual(flat),
                      lambda r, g, n=n: g.rel(f"f_constant vs ln 8 (n={n})",
                                              r.f_constant, LN8, None)))
    curved96 = _critical(_grid(20.0, 96), bump)
    ops.append(Op("reduced_residual[96 curved]", lambda: stationary.reduced_residual(curved96),
                  lambda r, g: g.check("curved residual finite",
                                       _finite(r.f_constant, r.reduced_residual_L2,
                                               r.static_residual_L2))))
    # three n = 96 calls per pass make the slowest group large enough that
    # the tail percentile falls inside it
    rng = np.random.default_rng(seed)
    family = [_cauchy_mixture(rng, _grid(12.5, n), (FLAT, bump)[k % 2])
              for k, n in enumerate((64, 64, 96))]
    ops += _deficit_ops("deficit", family)
    return ops


WORKLOADS = {"flow": build_flow, "fine": build_fine, "coarse": build_coarse}


# ---------------------------------------------------------------------------

def run_pass(ops, gates, latencies) -> float:
    """Run every op once; return the summed op time (checks are not timed)."""
    wall = 0.0
    for op in ops:
        t = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # an op that raises is a failed gate
            result, failed = None, exc
        else:
            failed = None
        lat = time.perf_counter() - t
        latencies.append(lat)
        wall += lat
        if failed is not None:
            gates.check(f"{op.name} raised", False, repr(failed))
            continue
        try:
            op.check(result, gates)
        except Exception as exc:
            gates.check(f"{op.name} check raised", False, repr(exc))
    return wall


def _versions() -> dict:
    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except Exception:
        pass
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "curvedks": curvedks.__version__}


ARGS = argparse.ArgumentParser(description=__doc__.splitlines()[0])
ARGS.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
ARGS.add_argument("--seed", type=int, required=True)
ARGS.add_argument("--passes", type=int, required=True,
                  help="measured passes; with --trace 1, this many untraced and traced")
ARGS.add_argument("--trace", type=int, choices=(0, 1), default=0)
ARGS.add_argument("--setup-only", action="store_true",
                  help="stop after set-up; report only the set-up time")
ARGS.add_argument("--t0", type=float, required=True,
                  help="time.monotonic() of the parent just before it started this process")
ARGS.add_argument("--src", required=True, help="directory that must provide curvedks")
ARGS.add_argument("--tmp", required=True, help="directory for every file the ops write")
ARGS.add_argument("--out", required=True, help="result file")


def main() -> int:
    args = ARGS.parse_args()
    src = os.path.realpath(args.src)
    if not os.path.realpath(curvedks.__file__).startswith(src + os.sep):
        print(f"curvedks was imported from {curvedks.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracing
        tracer = tracing.Tracer()
    notes: dict = {}
    ops = WORKLOADS[args.workload](args.seed, args.tmp, tracer, notes)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "versions": _versions()}
    if not args.setup_only:
        gates, latencies, walls, traced_walls = Gates(), [], [], []
        for _ in range(args.passes):
            walls.append(run_pass(ops, gates, latencies))
            if tracer is None:
                continue
            before = tracing.bindings()
            tracer.install()
            try:
                traced_walls.append(run_pass(ops, gates, []))
            finally:
                tracer.uninstall()
            tracer.pass_id += 1
            gates.check("tracer restored every binding", tracing.bindings() == before)
        result.update(walls=walls, latencies=latencies, attempted=gates.attempted,
                      failures=gates.failures, max_rel_err=gates.max_rel_err,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                      notes=notes)
        if tracer is not None:
            result.update(traced_walls=traced_walls, trace=tracer.record())
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
