"""Experiment driver: every module behind a subcommand with a JSON config.

Configs are JSON key-value trees validated against per-subcommand schemas
before any command runs; unknown keys and out-of-range values are rejected,
never coerced. A subcommand computes and returns an Outcome; `main` alone
writes it into the output directory: its CSV tables (a `# config_hash=` line,
header row, '.' decimal, LF endings), then <command>.json (UTF-8, sorted keys,
stamped with the config hash and, where the schema has one, the grid; a
non-finite float is written as null). flow also streams its snapshot stack, a
float64 (k, n, n) .npy array whose slice k pairs with diagnostics row k. All
are byte-identical across reruns of the same config at any BLAS thread count
(fixed seeds, row-major reductions, no BLAS sum over a printed value's index).

Exit codes: 0 pass, 1 check failed, 2 invalid config (an unwritable output
included), 3 numerical failure. A command that ran prints its one summary line
on stdout, whatever its code; only a config error or a numerical failure prints,
on stderr, and then no output is written, or none after an unwritable one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field as dc_field
from functools import partial
from pathlib import Path

import numpy as np

from .domain import AnnulusSpec, CartesianGrid
from .energy import lambda_scan, log_hls_deficit
from .flow import (BlowUpDetected, CFLViolation, StepLimitReached, diagnostics_to_csv,
                   run_flow, snapshot_writer, virial_rate)
from .geometry import ConformalFactor, grid_geometry
from .potential import coulomb_energy, estimate_tail, newtonian_potential
from .profiles import (ScaledCauchyProfile, mu_coulomb_identity,
                       mu_entropy_identity, mu_potential_identity)
from .sphere import nonexistence_certificate
from .stationary import (DensityField, MaskedDensityError, decay_envelope,
                         density_from_profile, membership_check, reduced_residual,
                         rho_log_rho)
from .virial import (AuxSolveError, WeightedEllipticProblem, assemble_virial,
                     export_virial_csv, solve_aux_pde)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


# schema types beyond Python's: a list of exactly two numbers, and a number > 0
_POINT = "point"
_POSITIVE = "positive"

# per-subcommand schema: key -> (type, default); nested dicts spell out trees
_GRID_SCHEMA = {"half_width": (float, 60.0), "n": (int, 256),
                "center": (_POINT, [0.0, 0.0])}
_PHI_SCHEMA = {"kind": (str, "zero"), "amplitude": (float, 0.0),
               "support_radius": (float, 2.0), "center": (_POINT, [0.0, 0.0])}
_PROFILE_SCHEMA = {"lam": (float, 1.0), "x_star": (_POINT, [0.0, 0.0]),
                   "m": (float, 8.0 * np.pi)}

SCHEMAS = {
    "identities": {
        # grid: potential probes, on half_width * max(1, lambda); double_grid
        # (Coulomb) shares its centre and its half_width is per unit lambda
        "grid": {"half_width": (float, 60.0), "n": (int, 1024),
                 "center": (_POINT, [0.0, 0.0])},
        "double_grid": {"half_width": (float, 60.0), "n": (int, 512)},
        "lambdas": (list, [0.5, 1.0, 2.0]),
        "tolerance": (_POSITIVE, 1e-2),
        "output_dir": (str, "."),
    },
    "residual": {
        "grid": _GRID_SCHEMA,
        "phi": _PHI_SCHEMA,
        "profile": _PROFILE_SCHEMA,
        "probe_frac": (_POSITIVE, 0.4),
        "output_dir": (str, "."),
    },
    "energy-scan": {
        "grid": _GRID_SCHEMA,
        "phi": _PHI_SCHEMA,
        "m": (float, 8.0 * np.pi),
        "lambdas": (list, [0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0]),
        "output_dir": (str, "."),
    },
    "deficit": {
        "grid": _GRID_SCHEMA,
        "phi": _PHI_SCHEMA,
        "profile": _PROFILE_SCHEMA,
        "reference_lam": (float, 1.0),
        "output_dir": (str, "."),
    },
    "obstruction": {
        "phi": _PHI_SCHEMA,
        "lam": (float, 1.0),
        "n_lat": (int, 128),
        "threshold": (_POSITIVE, 1e-3),
        "output_dir": (str, "."),
    },
    "virial": {
        "grid": _GRID_SCHEMA,
        "phi": _PHI_SCHEMA,
        "profile": _PROFILE_SCHEMA,
        "radii": (list, [4.0, 8.0, 12.0, 14.0]),
        "output_dir": (str, "."),
    },
    "flow": {
        "grid": {"half_width": (float, 15.0), "n": (int, 128),
                 "center": (_POINT, [0.0, 0.0])},
        "phi": _PHI_SCHEMA,
        "initial": (str, "gaussian"),      # gaussian | profile
        "profile": _PROFILE_SCHEMA,
        "mass": (float, 4.0 * np.pi),
        "sigma": (_POSITIVE, 1.0),
        "t_end": (float, 0.05),
        # dt 0: DT_SAFETY x the CFL bound at t = 0, kept for the whole run, so a run whose
        # bound later falls below it exits 3; a dt < 0 is rejected
        "dt": (float, 0.0),
        "snapshot_every": (int, 10),
        "output_dir": (str, "."),
    },
    "envelope": {
        "grid": _GRID_SCHEMA,
        "phi": _PHI_SCHEMA,
        "profile": _PROFILE_SCHEMA,
        "annulus_R": (float, 20.0),
        "annulus_ratio": (float, 2.0),
        "output_dir": (str, "."),
    },
}


def _is_number(v) -> bool:
    """A finite JSON number; bools and strings are not numbers."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and abs(v) <= sys.float_info.max


def _checked(value, typ, where: str):
    """`value` as `typ`, or ConfigError; nothing is coerced across kinds.

    An int key takes only integral values; a float key also takes ints,
    because JSON `1` loads as int, and so does a _POSITIVE key, as a float
    above 0. Every list key holds numbers, kept as given so the config hash
    does not change; an empty list is rejected, and a _POINT key holds exactly
    two.
    """
    if typ is list or typ == _POINT:
        ok = isinstance(value, list) and all(_is_number(v) for v in value) \
            and (len(value) == 2 if typ == _POINT else len(value) > 0)
        want = "a point [x, y]" if typ == _POINT else "a non-empty list of numbers"
    elif typ is str:
        ok, want = isinstance(value, str), "str"
    elif typ == _POSITIVE:
        ok, want, typ = _is_number(value) and value > 0, "a positive number", float
    else:
        ok = _is_number(value) and (typ is float or value == int(value))
        want = typ.__name__
    if not ok:
        raise ConfigError(f"bad value for {where}: expected {want}, got {value!r}")
    return list(value) if typ == _POINT else typ(value)


def _validate(config: dict, schema: dict, path: str = "") -> dict:
    """Fill absent keys' defaults (a present null is mistyped); reject unknown keys and
    mistyped values anywhere in the tree."""
    if not isinstance(config, dict):
        raise ConfigError(f"expected an object at {path[:-1] or 'top level'}, got {config!r}")
    out = {}
    for key, spec in schema.items():
        if isinstance(spec, dict):
            out[key] = _validate(config.get(key, {}), spec, f"{path}{key}.")
        else:
            typ, default = spec
            out[key] = _checked(config[key], typ, f"{path}{key}") if key in config else default
    unknown = set(config) - set(schema)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(path + k for k in unknown)}")
    return out


def load_config(path: str | None, subcommand: str) -> tuple[dict, str]:
    raw = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc.strerror}") from exc
    cfg = _validate(raw, SCHEMAS[subcommand])
    # the hash identifies the experiment; where outputs land is not part of it
    canon = json.dumps({k: v for k, v in cfg.items() if k != "output_dir"},
                       sort_keys=True, separators=(",", ":")).encode()
    return cfg, hashlib.sha256(canon).hexdigest()[:16]


def _outdir(cfg: dict) -> str:
    """The output directory, made if missing; ConfigError if it cannot be made."""
    d = cfg["output_dir"]
    try:
        os.makedirs(d, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {d!r}: {exc.strerror}") from exc
    return d


def _grid(cfg: dict) -> CartesianGrid:
    g = cfg["grid"]
    return CartesianGrid(center=tuple(g["center"]), half_width=g["half_width"], n=g["n"])


def _phi(cfg: dict) -> ConformalFactor:
    p = cfg["phi"]
    if p["kind"] not in ("zero", "radial_bump"):
        raise ConfigError(f"unsupported phi kind in configs: {p['kind']!r}")
    if p["kind"] == "zero" and p["amplitude"] != 0.0:    # kind zero is the amplitude-0 bump
        raise ConfigError(f"phi.amplitude must be 0 for phi kind 'zero', got {p['amplitude']!r}")
    return ConformalFactor.radial_bump(p["amplitude"], p["support_radius"], tuple(p["center"]))


def _density(cfg: dict) -> DensityField:
    prof = cfg["profile"]
    return density_from_profile(prof["m"], prof["lam"], tuple(prof["x_star"]), _phi(cfg),
                                _grid(cfg))


def _plain(o):
    """o with numpy scalars as Python ones and each non-finite float as None (JSON null)."""
    if isinstance(o, dict):
        return {k: _plain(v) for k, v in o.items()}
    if isinstance(o, list):
        return [_plain(v) for v in o]
    if isinstance(o, np.generic):
        o = o.item()
    return None if isinstance(o, float) and not np.isfinite(o) else o


@dataclass(frozen=True)
class Outcome:
    """What a subcommand returns for `main` to write, print and exit with."""
    payload: dict     # <command>.json before `main` stamps the config hash and grid in
    line: str         # the one summary line, printed on stdout
    code: int = EXIT_OK
    tables: dict = dc_field(default_factory=dict)    # CSV file name -> write(path, meta)


# ---------------------------------------------------------------------------
# subcommands

def cmd_identities(cfg: dict, outdir: str) -> Outcome:
    grid = _grid(cfg)
    dg = cfg["double_grid"]
    tol = cfg["tolerance"]
    results = []
    for lam in cfg["lambdas"]:
        lam = float(lam)
        mu = ScaledCauchyProfile(lam=lam)
        m = 8.0 * np.pi

        # mu ln mu decays only like r^-4 ln r, so the entropy grid spans 250 lambda
        egrid = CartesianGrid(center=grid.center, half_width=250.0 * lam, n=1024)
        closed_e = mu_entropy_identity(m, lam)
        numeric_e = float(np.sum(rho_log_rho(m * mu.on_grid(egrid))) * egrid.cell_area)

        # the probes reach 8 lambda, so the probe grid widens with lambda above 1
        pgrid = CartesianGrid(grid.center, grid.half_width * max(1.0, lam), grid.n)
        samples = mu.on_grid(pgrid)
        cfield = newtonian_potential(samples, ConformalFactor.zero(), pgrid)
        probes = []
        j = int(np.argmin(np.abs(pgrid.y - 0.0)))
        for rfrac in (1.5, 2.0, 3.0, 5.0, 8.0):
            i = int(np.argmin(np.abs(pgrid.x - lam * rfrac)))
            closed_p = float(mu_potential_identity(lam, (pgrid.x[i], pgrid.y[j])))
            probes.append((closed_p, float(cfield.samples[i, j])))

        dgrid = CartesianGrid(center=grid.center, half_width=dg["half_width"] * lam, n=dg["n"])
        dsamples = mu.on_grid(dgrid)
        numeric_c = coulomb_energy(dsamples * dgrid.cell_area, dgrid)
        closed_c = mu_coulomb_identity(lam)

        entry = {
            "lambda": lam,
            "entropy": {"closed_form": closed_e, "numeric": numeric_e,
                        "error": abs(numeric_e - closed_e) / max(abs(closed_e), 1e-30)},
            "potential_probes": [
                {"closed_form": cp, "numeric": nu,
                 "error": abs(nu - cp) / max(abs(cp), 1e-30)}
                for cp, nu in probes],
            "probe_tail_bound": estimate_tail(samples, pgrid).bound,
            "coulomb": {"closed_form": closed_c, "numeric": numeric_c,
                        "error": abs(numeric_c - closed_c) / max(abs(closed_c), 1e-30)},
        }
        errs = [entry["entropy"]["error"], entry["coulomb"]["error"]] \
            + [p["error"] for p in entry["potential_probes"]]
        entry["pass"] = bool(max(errs) <= tol)
        results.append(entry)
    payload = {"double_grid": dg, "tolerance": tol, "identities": results}
    worst = [r["lambda"] for r in results if not r["pass"]]
    if worst:
        return Outcome(payload, f"FAIL identities at lambda {worst}", EXIT_CHECK_FAILED)
    return Outcome(payload, "identities: all within tolerance")


def cmd_residual(cfg: dict, outdir: str) -> Outcome:
    field = _density(cfg)
    rep = reduced_residual(field, probe_frac=cfg["probe_frac"])
    mem = membership_check(field, rep.tail)
    return Outcome({"reduced_residual_L2": rep.reduced_residual_L2,
                    "f_constant": rep.f_constant, "f_variation": rep.f_variation,
                    "static_residual_L2": rep.static_residual_L2,
                    "n_masked_low": rep.n_masked_low,
                    "tail_bound": rep.tail.bound,
                    "membership": {"mass": mem.mass, "entropy": mem.entropy,
                                   "verdict": mem.verdict}},
                   f"residual: f_constant={rep.f_constant:.6f} "
                   f"f_variation={rep.f_variation:.3e}")


def cmd_energy_scan(cfg: dict, outdir: str) -> Outcome:
    phi = _phi(cfg)
    # a flat factor scans on lambda-scaled per-row grids (grid None): they give clean slopes
    table = lambda_scan(cfg["m"], phi, cfg["lambdas"], None if phi.is_flat else _grid(cfg),
                        scaled_half_width=cfg["grid"]["half_width"], scaled_n=cfg["grid"]["n"])
    return Outcome({"m": cfg["m"], "slope_fit": table.slope_fit,
                    "predicted_slope": table.predicted_slope,
                    "plateau": table.plateau,
                    "predicted_plateau": table.predicted_plateau},
                   f"energy-scan: slope={table.slope_fit:.4f} "
                   f"(predicted {table.predicted_slope:.4f})",
                   tables={"energy_scan.csv": table.to_csv})


def cmd_deficit(cfg: dict, outdir: str) -> Outcome:
    rep = log_hls_deficit(_density(cfg), cfg["reference_lam"],
                          tuple(cfg["profile"]["x_star"]))
    return Outcome({"lhs": rep.lhs, "rhs": rep.rhs, "deficit": rep.deficit, "mass": rep.mass},
                   f"deficit: {rep.deficit:.6e}",
                   EXIT_CHECK_FAILED if rep.deficit < -1e-3 else EXIT_OK)


# what a NONZERO OBSTRUCTION verdict rules out, written into every obstruction.json
OBSTRUCTION_SCOPE = ("rules out only stationary solutions whose transported sphere metric "
                     "is smooth at the pole, where the Kazdan-Warner identity applies; "
                     "it does not rule out stationary solutions of every mass")


def cmd_obstruction(cfg: dict, outdir: str) -> Outcome:
    phi = _phi(cfg)
    cert = nonexistence_certificate(phi, lam=cfg["lam"], n_lat=cfg["n_lat"])
    verdict, code = "REFUSED", EXIT_BAD_CONFIG
    if cert.eligible and cert.min_magnitude >= cfg["threshold"]:
        verdict, code = "NONZERO OBSTRUCTION", EXIT_OK
    elif cert.eligible:
        verdict, code = "INCONCLUSIVE", EXIT_CHECK_FAILED
    return Outcome({"phi": cfg["phi"], "lam": cfg["lam"],
                    "eligible": cert.eligible, "reason": cert.reason,
                    "flank_sign": cert.flank_sign,
                    "obstructions": cert.obstructions, "verdict": verdict,
                    "scope": OBSTRUCTION_SCOPE},
                   f"obstruction: {verdict}", code)


def cmd_virial(cfg: dict, outdir: str) -> Outcome:
    field = _density(cfg)
    # a curved factor closes I3 through the auxiliary solve; flat leaves f = 0
    f = None if field.phi.is_flat else solve_aux_pde(WeightedEllipticProblem.build(field)).f
    reports = assemble_virial(field, cfg["radii"], f=f)
    last = reports[-1]
    return Outcome({"R": last.R_used, "I1": last.I1, "I2": last.I2, "I3": last.I3,
                    "closure": last.closure},
                   f"virial: closure at R={last.R_used:g} is {last.closure:.4f}",
                   tables={"virial.csv": partial(export_virial_csv, reports)})


def cmd_flow(cfg: dict, outdir: str) -> Outcome:
    if cfg["initial"] == "gaussian":
        grid, phi = _grid(cfg), _phi(cfg)
        cx, cy = grid.center
        sigma = cfg["sigma"]
        rho = cfg["mass"] / (2.0 * np.pi * sigma**2) * np.exp(
            -((grid.x[:, None] - cx) ** 2 + (grid.y[None, :] - cy) ** 2) / (2.0 * sigma**2))
        geometry = grid_geometry(phi, grid)    # held, so the field below shares it
        rho *= cfg["mass"] / (np.sum(rho * geometry.e2phi) * grid.cell_area)
        field = DensityField(grid=grid, samples=rho, phi=phi)
    elif cfg["initial"] == "profile":
        field = _density(cfg)
    else:
        raise ConfigError(f"unknown initial condition {cfg['initial']!r}")
    dt = None if cfg["dt"] == 0 else cfg["dt"]    # a negative dt is rejected by run_flow
    with snapshot_writer(os.path.join(outdir, "flow_snapshots.npy"), field.grid.n) as append:
        final, diag = run_flow(field, cfg["t_end"], dt=dt, snapshot_every=cfg["snapshot_every"],
                               on_snapshot=lambda s: append(s.field.samples))
    payload = {"steps": final.step_count, "t_final": final.t,
               "mass_drift": diag.mass_drift}
    if diag.phi_is_flat and len(diag.t) >= 10:
        slope, expected = virial_rate(diag)
        payload["dW_dt"] = slope
        payload["dW_dt_expected"] = expected
    return Outcome(payload, f"flow: {final.step_count} steps to t={final.t:.4f}, "
                            f"mass drift {diag.mass_drift:.2e}",
                   tables={"flow_diagnostics.csv": partial(diagnostics_to_csv, diag)})


def cmd_envelope(cfg: dict, outdir: str) -> Outcome:
    ann = AnnulusSpec(R=cfg["annulus_R"], ratio=cfg["annulus_ratio"])
    rep = decay_envelope(_density(cfg), ann)
    return Outcome({"K_best": rep.K_best, "tail_slope": rep.tail_slope, "n_cells": rep.n_cells},
                   f"envelope: K={rep.K_best:.4f} slope={rep.tail_slope:.4f}")


COMMANDS = {
    "identities": cmd_identities,
    "residual": cmd_residual,
    "energy-scan": cmd_energy_scan,
    "deficit": cmd_deficit,
    "obstruction": cmd_obstruction,
    "virial": cmd_virial,
    "flow": cmd_flow,
    "envelope": cmd_envelope,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="curvedks",
        description="Keller-Segel numerical laboratory on conformally flat planes")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
    args = parser.parse_args(argv)
    try:
        cfg, cfg_hash = load_config(args.config, args.command)
        outdir = _outdir(cfg)    # an unusable output directory fails before any computation
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out = COMMANDS[args.command](cfg, outdir)
        payload = {**out.payload, "config_hash": cfg_hash}
        if "grid" in cfg:
            payload["grid"] = cfg["grid"]
        # serialised whole before main opens a file: a non-finite float _plain missed raises here
        text = json.dumps(_plain(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"
        for name, write in out.tables.items():
            write(os.path.join(outdir, name), meta=f"config_hash={cfg_hash}")
        Path(outdir, f"{args.command.replace('-', '_')}.json").write_text(
            text, encoding="utf-8", newline="\n")
    except (CFLViolation, BlowUpDetected, StepLimitReached, AuxSolveError,
            MaskedDensityError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:    # an output that cannot be written, as a directory in its place
        print(f"config error: cannot write into {outdir!r}: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except ValueError as exc:   # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    print(out.line)
    return out.code


if __name__ == "__main__":
    sys.exit(main())
