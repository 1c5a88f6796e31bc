import ast
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_cli
from curvedks import cli, flow
from curvedks.cli import EXIT_BAD_CONFIG, EXIT_CHECK_FAILED, EXIT_OK, load_config, main
from curvedks.flow import BlowUpDetected, CFLViolation, StepLimitReached, run_flow
from curvedks.virial import AuxSolveError


FAST_IDENTITIES = {
    "grid": {"half_width": 60.0, "n": 256},
    "double_grid": {"half_width": 60.0, "n": 128},
    "lambdas": [1.0],
    "tolerance": 5e-2,
}


def test_identities_pass(tmp_path):
    rc, outdir = run_cli(tmp_path, "identities", FAST_IDENTITIES)
    assert rc == EXIT_OK
    payload = json.loads((outdir / "identities.json").read_text())
    assert payload["identities"][0]["pass"]
    assert "config_hash" in payload


def test_identities_fail_on_coarse_grid(tmp_path):
    bad = dict(FAST_IDENTITIES)
    bad["grid"] = {"half_width": 400.0, "n": 64}
    bad["double_grid"] = {"half_width": 400.0, "n": 64}
    bad["tolerance"] = 1e-3
    rc, outdir = run_cli(tmp_path, "identities", bad)
    assert rc == EXIT_CHECK_FAILED
    payload = json.loads((outdir / "identities.json").read_text())
    assert not payload["identities"][0]["pass"]


def test_identities_coulomb_value_at_lambda_e(tmp_path):
    cfg = dict(FAST_IDENTITIES)
    cfg["lambdas"] = [float(np.e)]
    rc, outdir = run_cli(tmp_path, "identities", cfg)
    payload = json.loads((outdir / "identities.json").read_text())
    got = payload["identities"][0]["coulomb"]["closed_form"]
    assert got == pytest.approx(-0.238732, abs=1e-6)


def test_unknown_key_rejected(tmp_path):
    cfg = dict(FAST_IDENTITIES)
    cfg["lambduhs"] = [1.0]
    rc, _ = run_cli(tmp_path, "identities", cfg)
    assert rc == EXIT_BAD_CONFIG


def test_invalid_json_rejected(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["identities", "--config", str(p)]) == EXIT_BAD_CONFIG


def test_residual_subcommand(tmp_path):
    rc, outdir = run_cli(tmp_path, "residual",
                         {"grid": {"half_width": 30.0, "n": 128}})
    assert rc == EXIT_OK
    payload = json.loads((outdir / "residual.json").read_text())
    assert payload["f_constant"] == pytest.approx(np.log(8.0), abs=0.05)


def test_residual_fits_the_tail_once(tmp_path, monkeypatch):
    # the membership check reuses the tail that the residual's potential fitted
    from curvedks import potential, stationary
    calls = []

    def counted(rho, grid):
        calls.append(grid.n)
        return potential.TruncationReport(1.0, 1.0)
    monkeypatch.setattr(potential, "estimate_tail", counted)
    monkeypatch.setattr(stationary, "estimate_tail", counted)
    rc, outdir = run_cli(tmp_path, "residual", {"grid": {"half_width": 10.0, "n": 32}})
    assert rc == EXIT_OK
    assert calls == [32]
    assert json.loads((outdir / "residual.json").read_text())["tail_bound"] == 1.0


def test_residual_subcommand_on_a_coarse_grid(tmp_path):
    # at n = 16 three bank fields reach the outer cell rings; the bank drops them
    rc, outdir = run_cli(tmp_path, "residual", {"grid": {"half_width": 10.0, "n": 16}})
    assert rc == EXIT_OK
    payload = json.loads((outdir / "residual.json").read_text())
    assert np.isfinite(payload["static_residual_L2"])


def test_obstruction_verdict(tmp_path):
    rc, outdir = run_cli(tmp_path, "obstruction",
                         {"phi": {"kind": "radial_bump", "amplitude": 0.05,
                                  "support_radius": 2.0},
                          "n_lat": 64})
    assert rc == EXIT_OK
    payload = json.loads((outdir / "obstruction.json").read_text())
    assert payload["verdict"] == "NONZERO OBSTRUCTION"
    assert payload["scope"] == cli.OBSTRUCTION_SCOPE
    assert "smooth at the pole" in payload["scope"]


@pytest.mark.parametrize("threshold", [-1, 0])
def test_obstruction_rejects_nonpositive_threshold(tmp_path, threshold):
    # obstructions of about 1e-8 must not pass a threshold that admits anything
    rc, outdir = run_cli(tmp_path, "obstruction",
                         {"phi": {"kind": "radial_bump", "amplitude": 1e-9,
                                  "support_radius": 2.0},
                          "n_lat": 32, "threshold": threshold})
    assert rc == EXIT_BAD_CONFIG
    assert not (outdir / "obstruction.json").exists()


def test_obstruction_refuses_flat(tmp_path):
    rc, outdir = run_cli(tmp_path, "obstruction", {"phi": {"kind": "zero"}})
    assert rc == EXIT_BAD_CONFIG
    payload = json.loads((outdir / "obstruction.json").read_text())
    assert payload["verdict"] == "REFUSED"


def test_envelope_subcommand(tmp_path):
    rc, outdir = run_cli(tmp_path, "envelope",
                         {"grid": {"half_width": 60.0, "n": 256},
                          "annulus_R": 20.0})
    assert rc == EXIT_OK
    payload = json.loads((outdir / "envelope.json").read_text())
    assert payload["tail_slope"] == pytest.approx(-4.0, abs=0.15)


def test_virial_subcommand(tmp_path):
    rc, outdir = run_cli(tmp_path, "virial",
                         {"grid": {"half_width": 40.0, "n": 256},
                          "radii": [5.0, 10.0, 15.0]})
    assert rc == EXIT_OK
    lines = (outdir / "virial.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "R,I1,I2,I3,closure"
    assert len(lines) == 5


def test_virial_curved_factor_closes_i3(tmp_path):
    # I3 needs f from the auxiliary solve; with f = 0 it sits near -3.8 here
    rc, outdir = run_cli(tmp_path, "virial",
                         {"grid": {"half_width": 16.0, "n": 64},
                          "phi": {"kind": "radial_bump", "amplitude": 0.1,
                                  "support_radius": 2.0},
                          "radii": [4.0]})
    assert rc == EXIT_OK
    payload = json.loads((outdir / "virial.json").read_text())
    assert abs(payload["I3"]) < 0.1


def _spy_run_flow(monkeypatch):
    """Record the initial field and the states that each run_flow call of the CLI
    hands to its on_snapshot, passing them on to the CLI's own callback."""
    calls = []

    def spy(field, *args, on_snapshot, **kwargs):
        snaps = []
        calls.append((field, snaps))
        return run_flow(field, *args, **kwargs,
                        on_snapshot=lambda s: (snaps.append(s), on_snapshot(s)))

    monkeypatch.setattr(cli, "run_flow", spy)
    return calls


def _diagnostic_rows(path):
    return [line for line in path.read_text().splitlines()
            if line and not line.startswith(("#", "t,"))]


def test_flow_subcommand(tmp_path, monkeypatch):
    calls = _spy_run_flow(monkeypatch)
    rc, outdir = run_cli(tmp_path, "flow",
                         {"grid": {"half_width": 12.0, "n": 96},
                          "t_end": 0.02, "snapshot_every": 2})
    assert rc == EXIT_OK
    payload = json.loads((outdir / "flow.json").read_text())
    assert payload["mass_drift"] <= 1e-10
    diag_lines = (outdir / "flow_diagnostics.csv").read_text().splitlines()
    assert diag_lines[0].startswith("# config_hash=")
    stack = np.load(outdir / "flow_snapshots.npy")
    assert stack.dtype == np.float64
    assert stack.shape == (len(_diagnostic_rows(outdir / "flow_diagnostics.csv")), 96, 96)
    (initial, _), = calls
    assert np.array_equal(stack[0], initial.samples)


def test_flow_gaussian_is_centred_on_the_grid(tmp_path):
    # the initial Gaussian sits at the grid centre wherever the grid is: off the
    # origin it peaks at the centre cells and matches the centred run's density
    stacks = []
    for centre in ([0.0, 0.0], [40.0, 0.0]):
        rc, outdir = run_cli(tmp_path / str(centre[0]), "flow",
                             {"grid": {"center": centre, "n": 32}, "t_end": 0.001})
        assert rc == EXIT_OK
        stacks.append(np.load(outdir / "flow_snapshots.npy")[0])
    peak = np.unravel_index(np.argmax(stacks[1]), stacks[1].shape)
    assert set(peak) <= {15, 16}
    assert np.allclose(stacks[1], stacks[0], rtol=1e-9, atol=0.0)


def test_flow_snapshots_are_the_run_states_and_rerun_identically(tmp_path, monkeypatch):
    # slice k is snapshot k, bit for bit, paired with diagnostics row k, and a
    # rerun of the same config writes the same bytes
    calls = _spy_run_flow(monkeypatch)
    cfg = {"grid": {"half_width": 10.0, "n": 64},
           "phi": {"kind": "radial_bump", "amplitude": 0.1, "support_radius": 2.0},
           "t_end": 0.03, "snapshot_every": 3}
    blobs = []
    for run in ("a", "b"):
        rc, outdir = run_cli(tmp_path / run, "flow", cfg)
        assert rc == EXIT_OK
        blobs.append((outdir / "flow_snapshots.npy").read_bytes())
        rows = _diagnostic_rows(outdir / "flow_diagnostics.csv")
        stack = np.load(outdir / "flow_snapshots.npy")
        snaps = calls[-1][1]
        assert len(stack) == len(rows) == len(snaps)
        for k, (s, row) in enumerate(zip(snaps, rows)):
            assert np.array_equal(stack[k].view(np.uint64), s.field.samples.view(np.uint64))
            assert float(row.split(",")[0]) == pytest.approx(s.t, rel=1e-11, abs=1e-15)
    assert blobs[0] == blobs[1]


def test_failed_flow_publishes_no_snapshot_stack(tmp_path, monkeypatch):
    # the run fails after 3 of its snapshots were streamed to the partial file:
    # exit 3, no stack and no partial file are left, and a stack from an
    # earlier run in the same place is kept
    n = 32
    cfg = {"grid": {"half_width": 12.0, "n": n}, "t_end": 0.02, "dt": 1e-3,
           "snapshot_every": 2}
    partial = tmp_path / "out" / "flow_snapshots.npy.partial"
    real_step = flow.flow_step

    def failing_run(step_budget):
        steps, streamed = [], []

        def step(state):
            if len(steps) == step_budget:
                streamed.append(partial.stat().st_size)
                raise BlowUpDetected("more than half the mass sits in one cell")
            steps.append(1)
            return real_step(state)

        monkeypatch.setattr(flow, "flow_step", step)
        rc, outdir = run_cli(tmp_path, "flow", cfg)
        assert streamed and streamed[0] > 3 * n * n * 8
        return rc, outdir

    rc, outdir = failing_run(5)
    assert rc == 3
    assert list(outdir.iterdir()) == []
    monkeypatch.setattr(flow, "flow_step", real_step)
    rc, _ = run_cli(tmp_path, "flow", cfg)
    assert rc == EXIT_OK
    earlier = (outdir / "flow_snapshots.npy").read_bytes()
    assert len(np.load(outdir / "flow_snapshots.npy")) > 3
    rc, _ = failing_run(5)
    assert rc == 3
    assert (outdir / "flow_snapshots.npy").read_bytes() == earlier
    assert not partial.exists()


def test_flow_memory_does_not_grow_with_the_snapshot_count(tmp_path):
    # a run that records every step holds no more than one that records only
    # its initial state: each snapshot goes to disk when it is taken
    n, counts, peaks = 64, {}, {}
    cfg = {"grid": {"half_width": 10.0, "n": n}, "t_end": 0.035, "dt": 1e-3}
    run_cli(tmp_path, "flow", {**cfg, "snapshot_every": 1})    # warm the caches
    for every in (1, 10**6):
        tracemalloc.start()
        rc, outdir = run_cli(tmp_path, "flow", {**cfg, "snapshot_every": every})
        peaks[every] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert rc == EXIT_OK
        counts[every] = len(np.load(outdir / "flow_snapshots.npy"))
    assert counts[1] >= 30 and counts[10**6] == 1
    assert abs(peaks[1] - peaks[10**6]) < 2 * n * n * 8


def test_flow_virial_rate_reported(tmp_path):
    rc, outdir = run_cli(tmp_path, "flow",
                         {"grid": {"half_width": 15.0, "n": 256},
                          "mass": 4 * np.pi, "t_end": 0.05,
                          "snapshot_every": 2})
    assert rc == EXIT_OK
    payload = json.loads((outdir / "flow.json").read_text())
    assert payload["dW_dt_expected"] == pytest.approx(8 * np.pi, rel=1e-12)
    assert payload["dW_dt"] == pytest.approx(8 * np.pi, rel=0.05)


def test_energy_scan_subcommand(tmp_path):
    rc, outdir = run_cli(tmp_path, "energy-scan",
                         {"m": 4 * np.pi,
                          "lambdas": [0.05, 0.2, 0.8, 3.2, 12.8]})
    assert rc == EXIT_OK
    payload = json.loads((outdir / "energy_scan.json").read_text())
    assert payload["slope_fit"] == pytest.approx(-4 * np.pi, rel=0.05)


def test_zero_amplitude_bump_scans_as_the_flat_factor(tmp_path):
    # an amplitude-0 bump is flat: lambda-scaled grids, and the rows of kind "zero"
    rows = []
    for i, phi in enumerate(({"kind": "zero"},
                             {"kind": "radial_bump", "amplitude": 0.0, "support_radius": 2.0})):
        rc, outdir = run_cli(tmp_path / str(i), "energy-scan",
                             {"grid": {"half_width": 30.0, "n": 64}, "phi": phi,
                              "lambdas": [0.05, 0.5, 5.0]})
        assert rc == EXIT_OK
        lines = (outdir / "energy_scan.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        rows.append(lines[1:])
    assert rows[0] == rows[1] and len(rows[0]) == 4


def test_zero_amplitude_bump_virial_skips_the_aux_solve(tmp_path, monkeypatch):
    def refuse(problem, *args, **kwargs):
        raise AssertionError("a flat factor needs no auxiliary solve")

    monkeypatch.setattr(cli, "solve_aux_pde", refuse)
    rc, outdir = run_cli(tmp_path, "virial",
                         {"grid": {"half_width": 16.0, "n": 64},
                          "phi": {"kind": "radial_bump", "amplitude": 0.0, "support_radius": 2.0},
                          "radii": [4.0]})
    assert rc == EXIT_OK
    assert json.loads((outdir / "virial.json").read_text())["I3"] == 0.0


def test_deficit_subcommand(tmp_path):
    rc, outdir = run_cli(tmp_path, "deficit",
                         {"grid": {"half_width": 50.0, "n": 256}})
    assert rc == EXIT_OK
    payload = json.loads((outdir / "deficit.json").read_text())
    assert abs(payload["deficit"]) < 2e-2


def test_flow_cfl_failure_exit_code(tmp_path):
    # a dt far above the stability bound is a numerical failure (exit 3)
    rc, _ = run_cli(tmp_path, "flow",
                    {"grid": {"half_width": 12.0, "n": 96},
                     "t_end": 0.02, "dt": 1.0})
    assert rc == 3


@pytest.mark.parametrize("bad", [{"snapshot_every": 0}, {"snapshot_every": -2},
                                 {"t_end": 0.0}, {"t_end": -0.01}, {"dt": -1e-4}])
def test_flow_rejects_bad_run_settings(tmp_path, bad):
    # no division by zero, no empty run, no negative dt silently made automatic
    rc, outdir = run_cli(tmp_path, "flow", {"grid": {"half_width": 12.0, "n": 32},
                                            "t_end": 0.001, **bad})
    assert rc == EXIT_BAD_CONFIG
    assert not (outdir / "flow.json").exists()


@pytest.mark.parametrize("command, config, key", [
    ("flow", {"sigma": -1.0}, "sigma"), ("flow", {"sigma": 0}, "sigma"),
    ("residual", {"probe_frac": 0}, "probe_frac"), ("residual", {"probe_frac": -0.4}, "probe_frac"),
    ("identities", {"tolerance": 0}, "tolerance"), ("identities", {"tolerance": -1e-2}, "tolerance"),
])
def test_nonpositive_settings_are_config_errors(tmp_path, capsys, command, config, key):
    # a negative sigma would run, sigma 0 divided by zero, probe_frac <= 0 masked
    # every probe cell (exit 3), a tolerance <= 0 failed every check (exit 1);
    # the schema refuses each while loading, before any command runs
    small = {"grid": {"half_width": 12.0, "n": 32}}
    rc, outdir = run_cli(tmp_path, command, {**small, **config})
    assert rc == EXIT_BAD_CONFIG
    assert key in capsys.readouterr().err
    assert not outdir.exists() or not any(outdir.iterdir())
    direct = tmp_path / "direct.json"
    direct.write_text(json.dumps({**small, **config, "output_dir": str(tmp_path / "direct")}))
    with pytest.raises(cli.ConfigError, match=key):
        load_config(str(direct), command)


@pytest.mark.parametrize("amplitude", [400.0, -400.0])
@pytest.mark.parametrize("command", sorted(c for c in cli.SCHEMAS if "phi" in cli.SCHEMAS[c]))
def test_overflowing_amplitude_is_a_config_error(tmp_path, capsys, command, amplitude):
    # e^{2|phi|} overflows past |amplitude| = 354.89: it used to surface as "density must
    # have positive mass" (exit 2) or as NaN in obstruction.json (exit 1)
    config = {"phi": {"kind": "radial_bump", "amplitude": amplitude}}
    if "grid" in cli.SCHEMAS[command]:
        config["grid"] = {"half_width": 4.0, "n": 32}
    rc, outdir = run_cli(tmp_path, command, config)
    assert rc == EXIT_BAD_CONFIG
    assert "overflows" in capsys.readouterr().err
    assert not outdir.exists() or not any(outdir.iterdir())


@pytest.mark.parametrize("command, extra", [("residual", {}), ("envelope", {"annulus_R": 5.0})])
def test_masked_density_is_numerical_failure(tmp_path, command, extra):
    # a profile centred 1e76 away is floored on every cell near the grid:
    # the data, not the config, is what fails (exit 3, not 2)
    rc, _ = run_cli(tmp_path, command, {"grid": {"half_width": 20.0, "n": 64},
                                        "profile": {"x_star": [1e76, 0.0]}, **extra})
    assert rc == 3


def test_flow_step_limit_exit_code(tmp_path, monkeypatch):
    def out_of_steps(*args, **kwargs):
        raise StepLimitReached("10 steps reached t = 0.01, short of t_end = 0.02")

    monkeypatch.setattr(cli, "run_flow", out_of_steps)
    rc, _ = run_cli(tmp_path, "flow", {"grid": {"half_width": 12.0, "n": 96}, "t_end": 0.02})
    assert rc == 3


def test_virial_aux_solve_failure_exit_code(tmp_path, monkeypatch):
    def above_tolerance(*args, **kwargs):
        raise AuxSolveError("relative residual 1.000e-06 above tolerance 1.0e-08")

    monkeypatch.setattr(cli, "solve_aux_pde", above_tolerance)
    rc, _ = run_cli(tmp_path, "virial",
                    {"grid": {"half_width": 16.0, "n": 64},
                     "phi": {"kind": "radial_bump", "amplitude": 0.1, "support_radius": 2.0},
                     "radii": [4.0]})
    assert rc == 3


@pytest.mark.parametrize("where", ["directory", "missing file"])
def test_unreadable_config_is_a_config_error(tmp_path, capsys, where):
    # a config path that cannot be opened is invalid config: exit 2 naming the path
    path = tmp_path if where == "directory" else tmp_path / "absent.json"
    assert main(["residual", "--config", str(path)]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(path) in err
    assert "Traceback" not in err


def test_unusable_output_dir_fails_before_computing(tmp_path, monkeypatch, capsys):
    # an output directory below a regular file cannot be made: exit 2 before the command runs
    blocker = tmp_path / "file"
    blocker.write_text("")
    called = []
    monkeypatch.setitem(cli.COMMANDS, "residual", lambda cfg, outdir: called.append(cfg))
    cfg = tmp_path / "residual.json"
    cfg.write_text(json.dumps({"output_dir": str(blocker / "out")}))
    assert main(["residual", "--config", str(cfg)]) == EXIT_BAD_CONFIG
    assert called == []
    err = capsys.readouterr().err
    assert "output directory" in err and str(blocker / "out") in err


@pytest.mark.parametrize("command, blocked", [("envelope", "envelope.json"),
                                              ("energy-scan", "energy_scan.csv"),
                                              ("flow", "flow_snapshots.npy")])
def test_unwritable_output_is_a_config_error(tmp_path, capsys, command, blocked):
    # a directory where an output file goes is an unusable output_dir: exit 2 with one
    # line on stderr naming the file, not a traceback and exit 1 (a failed check)
    (tmp_path / "out" / blocked).mkdir(parents=True)
    rc, _ = run_cli(tmp_path, command, _CONTRACT[command][0])
    out = capsys.readouterr()
    assert rc == EXIT_BAD_CONFIG
    assert out.out == "" and out.err.startswith("config error: cannot write")
    assert len(out.err.splitlines()) == 1 and blocked in out.err


@pytest.mark.parametrize("config, key", [
    ({"probe_frac": None}, "probe_frac"),          # top-level scalar
    ({"grid": {"n": None}}, "grid.n"),             # nested scalar
    ({"grid": None}, "grid"),                      # nested object
])
def test_explicit_null_is_rejected_not_defaulted(tmp_path, capsys, config, key):
    # only an absent key takes its default; a present null is invalid config:
    # exit 2 naming the key, no output
    rc, outdir = run_cli(tmp_path, "residual", config)
    assert rc == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert f"{key}:" in err or f"at {key}," in err
    assert "None" in err
    assert not outdir.exists() or not any(outdir.iterdir())


@pytest.mark.parametrize("command, config", [
    ("virial", {"radii": []}), ("virial", {"radii": [0]}), ("virial", {"radii": [-4]}),
    ("identities", {"lambdas": []}),
])
def test_degenerate_lists_rejected(tmp_path, command, config):
    # an empty list checks nothing and a cutoff radius <= 0 means nothing: exit 2, no output
    rc, outdir = run_cli(tmp_path, command, config)
    assert rc == EXIT_BAD_CONFIG
    assert not outdir.exists() or not any(outdir.iterdir())


def test_energy_scan_needs_two_resolved_lambdas(tmp_path, capsys):
    # on this grid (h = 0.46875) only lambda = 1 lies in 2h <= lambda <= half_width / 8,
    # so no slope can be fitted: exit 2 naming the window, no output
    config = {"grid": {"n": 128, "half_width": 30.0},
              "phi": {"kind": "radial_bump", "amplitude": 0.1, "support_radius": 2.0},
              "lambdas": [0.1, 1.0, 10.0]}
    rc, outdir = run_cli(tmp_path, "energy-scan", config)
    assert rc == EXIT_BAD_CONFIG
    assert not outdir.exists() or not any(outdir.iterdir())
    assert "0.9375 <= lambda <= 3.75" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    {"radii": "abc"},                              # string for a list
    {"grid": {"center": ["a", 0.0]}},              # string inside a list
    {"radii": [4.0, float("nan")]},
    {"grid": {"n": True}},                         # bool for an int
    {"grid": {"half_width": False}},               # bool for a float
    {"grid": {"n": 64.7}},                         # non-integral int
    {"grid": {"half_width": float("nan")}},
    {"grid": {"half_width": float("inf")}},
    {"grid": {"half_width": -float("inf")}},
    {"grid": {"n": "64"}},                         # string for a number
    {"output_dir": 5},                             # number for a string
])
def test_validate_rejects_instead_of_coercing(config):
    with pytest.raises(cli.ConfigError):
        cli._validate(config, cli.SCHEMAS["virial"])


@pytest.mark.parametrize("point", [[0.5], [0.0, 1.0, 5.0]])
@pytest.mark.parametrize("command, key", [
    ("flow", "grid.center"), ("flow", "phi.center"), ("deficit", "profile.x_star"),
    ("identities", "grid.center"),
])
def test_point_keys_hold_two_numbers(tmp_path, capsys, command, key, point):
    # a point with one coordinate or with a third one is invalid config: exit 2
    # naming the key, no output
    section, name = key.split(".")
    rc, outdir = run_cli(tmp_path, command, {section: {name: point}})
    assert rc == EXIT_BAD_CONFIG
    assert key in capsys.readouterr().err
    assert not outdir.exists() or not any(outdir.iterdir())


_EDGE_NUMBERS = [float("inf"), -float("inf"), float("nan"), 2**1100, -0.0, 1e308]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids,
                                                              max_size=3),
    max_leaves=10)


def _config_trees(schema):
    """Objects shaped like `schema`: any subset of its keys, now and then a stray
    key, each value well-typed for its key or an arbitrary JSON value."""
    values = {}
    for key, spec in schema.items():
        if isinstance(spec, dict):
            values[key] = _config_trees(spec) | _JSON
        else:
            typ, default = spec
            number = st.integers() | st.floats() | st.sampled_from(_EDGE_NUMBERS)
            if typ == cli._POSITIVE:
                number |= st.sampled_from([0, -0.0, -1, -1e-300])
            typed = st.text(max_size=4) if typ is str else (
                number if typ in (int, float, cli._POSITIVE) else st.lists(number, max_size=4))
            values[key] = st.just(default) | typed | _JSON
    stray = st.sampled_from([0, 0, 0, 1]).flatmap(
        lambda k: st.dictionaries(st.text(max_size=4), _JSON, min_size=k, max_size=k))
    return st.builds(lambda known, extra: {**extra, **known},
                     st.fixed_dictionaries({}, optional=values), stray)


def _same_keys(cfg, schema):
    return set(cfg) == set(schema) and all(
        _same_keys(cfg[k], spec) for k, spec in schema.items() if isinstance(spec, dict))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data(), command=st.sampled_from(sorted(cli.SCHEMAS)))
def test_validate_survives_fuzzing(data, command):
    # every JSON tree is either a config with exactly the schema's keys or a ConfigError
    schema = cli.SCHEMAS[command]
    try:
        cfg = cli._validate(data.draw(_config_trees(schema)), schema)
    except cli.ConfigError:
        return
    assert _same_keys(cfg, schema)
    assert all(isinstance(cfg[k], float) and cfg[k] > 0
               for k, spec in schema.items()
               if not isinstance(spec, dict) and spec[0] == cli._POSITIVE)


_COLD_START = """
import json, sys
import numpy as np
import curvedks
from curvedks import cli
rc = cli.main(["flow", "--config", sys.argv[1]])
loaded = sorted(m for m in sys.modules if m.startswith("scipy.sparse"))
from curvedks import virial
from curvedks.domain import CartesianGrid
from curvedks.geometry import ConformalFactor
from curvedks.stationary import density_from_profile
field = density_from_profile(8 * np.pi, 1.0, (0.0, 0.0),
                             ConformalFactor.radial_bump(0.1, 2.0),
                             CartesianGrid(center=(0.0, 0.0), half_width=8.0, n=32))
sol = virial.solve_aux_pde(virial.WeightedEllipticProblem.build(field))
print(json.dumps({"rc": rc, "before_solve": loaded, "residual": sol.residual_trace,
                  "after_solve": "scipy.sparse.linalg" in sys.modules}))
"""


def test_scipy_sparse_loads_only_for_the_aux_solve(tmp_path):
    # a fresh process runs `flow` without importing scipy.sparse; the auxiliary
    # solve imports it on first use and still meets its residual tolerance
    src = str(Path(__file__).resolve().parents[1] / "src")
    cfg = tmp_path / "flow.json"
    cfg.write_text(json.dumps({"grid": {"half_width": 8.0, "n": 32}, "t_end": 0.01,
                               "snapshot_every": 5, "output_dir": str(tmp_path / "out")}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _COLD_START, str(cfg)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["rc"] == EXIT_OK
    assert got["before_solve"] == []
    assert got["after_solve"]
    bnorm, res = got["residual"]
    assert 0.0 < bnorm and res <= 1e-8 * bnorm


_ALL_AT_DEFAULTS = """
import json, os, sys
from curvedks.cli import COMMANDS, main
root = sys.argv[1]
# obstruction refuses its default flat factor before it builds a sphere grid, so a curved run
# is added: the one that solves for the Gauss-Legendre nodes (a LAPACK eigensolve)
bump = {"kind": "radial_bump", "amplitude": 0.1, "support_radius": 2.0}
runs = [(command, command, {}) for command in COMMANDS]
runs.append(("obstruction-curved", "obstruction", {"phi": bump}))
for name, command, extra in runs:
    cfg = os.path.join(root, name + ".config")
    with open(cfg, "w") as fh:
        json.dump({"output_dir": os.path.join(root, name), **extra}, fh)
    print(name, main([command, "--config", cfg]))
"""


def test_default_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # every command at its defaults, and obstruction on a curved factor, in a process with one
    # BLAS thread and in one with two (never more): each prints the same lines and writes the
    # same bytes, so one config gives one output on machines whose core counts differ
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for threads in ("1", "2"):
        root = tmp_path / threads
        root.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _ALL_AT_DEFAULTS, str(root)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        files = {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*"))
                 if p.is_file() and p.suffix != ".config"}
        runs.append((proc.stdout, files))
    (out1, files1), (out2, files2) = runs
    assert out1 == out2
    assert sorted(files1) == sorted(files2)
    assert len(files1) == 13    # each run's JSON, three CSVs and flow's snapshot stack
    assert "obstruction-curved 0" in out1.splitlines()    # NONZERO OBSTRUCTION
    assert [name for name in files1 if files1[name] != files2[name]] == []


def test_readme_examples_are_valid_configs():
    # each ```json block of README.md, led by "Example (`<command>`):", loads under that
    # command's schema
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    examples = re.findall(r"Example \(`([a-z-]+)`\):\n\n```json\n(.*?)```", readme, re.S)
    assert len(examples) == readme.count("```json")
    for command, block in examples:
        cli._validate(json.loads(block), cli.SCHEMAS[command])


def test_validate_takes_int_for_float():
    cfg = cli._validate({"grid": {"half_width": 20, "n": 64}}, cli.SCHEMAS["virial"])
    assert cfg["grid"]["half_width"] == 20.0
    assert isinstance(cfg["grid"]["half_width"], float)


def test_default_config_loads():
    cfg, h = load_config(None, "identities")
    assert cfg["tolerance"] == 1e-2
    assert len(h) == 16


_BUMP = {"kind": "radial_bump", "amplitude": 0.1, "support_radius": 2.0}
# a small config for each command, and the files besides <command>.json it writes
_CONTRACT = {
    "identities": ({"grid": {"half_width": 20.0, "n": 64}, "double_grid": {"n": 64},
                    "lambdas": [1.0]}, set()),
    "residual": ({"grid": {"half_width": 10.0, "n": 32}}, set()),
    "energy-scan": ({"grid": {"half_width": 30.0, "n": 64}, "lambdas": [0.05, 0.5, 5.0]},
                    {"energy_scan.csv"}),
    "deficit": ({"grid": {"half_width": 20.0, "n": 64}}, set()),
    "obstruction": ({"phi": _BUMP, "n_lat": 32}, set()),
    "virial": ({"grid": {"half_width": 16.0, "n": 64}, "phi": _BUMP, "radii": [4.0]},
               {"virial.csv"}),
    "flow": ({"grid": {"half_width": 8.0, "n": 32}, "t_end": 0.01, "snapshot_every": 5},
             {"flow_diagnostics.csv", "flow_snapshots.npy"}),
    "envelope": ({"grid": {"half_width": 20.0, "n": 64}, "annulus_R": 5.0}, set()),
}


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_every_command_keeps_the_output_contract(tmp_path, capsys, command):
    # one line on stdout and none on stderr; <command>.json stamped with load_config's
    # hash, and with the grid exactly when the schema has one; exactly its tables
    config, tables = _CONTRACT[command]
    rc, outdir = run_cli(tmp_path, command, config)
    out = capsys.readouterr()
    assert rc in (EXIT_OK, EXIT_CHECK_FAILED)
    assert len(out.out.splitlines()) == 1 and out.err == ""
    name = command.replace("-", "_")
    payload = json.loads((outdir / f"{name}.json").read_text())
    _, cfg_hash = load_config(str(tmp_path / f"{name}.json"), command)
    assert payload["config_hash"] == cfg_hash
    assert ("grid" in payload) == ("grid" in cli.SCHEMAS[command])
    assert {p.name for p in outdir.iterdir()} == {f"{name}.json"} | tables
    for table in tables - {"flow_snapshots.npy"}:
        assert (outdir / table).read_text().startswith(f"# config_hash={cfg_hash}\n")


def _raise(exc):
    def raiser(*args, **kwargs):
        raise exc
    return raiser


@pytest.mark.parametrize("command, target, exc, code", [
    ("virial", "solve_aux_pde", AuxSolveError("relative residual above tolerance"), 3),
    ("flow", "run_flow", CFLViolation("dt exceeds CFL bound"), 3),
    ("energy-scan", "lambda_scan", ValueError("no two resolved lambdas"), EXIT_BAD_CONFIG),
])
def test_a_command_that_raises_writes_nothing(tmp_path, monkeypatch, capsys, command, target,
                                              exc, code):
    monkeypatch.setattr(cli, target, _raise(exc))
    rc, outdir = run_cli(tmp_path, command, _CONTRACT[command][0])
    out = capsys.readouterr()
    assert rc == code
    assert out.out == "" and str(exc) in out.err
    assert list(outdir.iterdir()) == []


def test_no_command_writes_or_prints_for_itself():
    # the commands return an Outcome; only main prints, makes the directory and writes JSON
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    commands = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name.startswith("cmd_")]
    assert len(commands) == len(cli.COMMANDS)
    for fn in commands:
        assert [a.arg for a in fn.args.args] == ["cfg", "outdir"], fn.name
        named = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
        assert named.isdisjoint({"print", "_outdir", "json", "cfg_hash"}), fn.name


def _no_constant(name):
    raise AssertionError(f"{name} is not valid JSON")


@pytest.mark.parametrize("command, config, code, keys", [
    ("residual", {"grid": {"n": 64, "half_width": 12.0}, "profile": {"lam": 100.0}}, EXIT_OK,
     [("tail_bound",)]),
    ("identities", {"grid": {"n": 64, "half_width": 1.0}, "double_grid": {"n": 64},
                    "lambdas": [50.0]}, EXIT_CHECK_FAILED,
     [("identities", 0, "probe_tail_bound")]),
])
def test_non_finite_values_are_written_as_null(tmp_path, command, config, code, keys):
    # NaN and Infinity are not JSON (RFC 8259): each such value is written as null
    rc, outdir = run_cli(tmp_path, command, config)
    assert rc == code
    text = (outdir / f"{command.replace('-', '_')}.json").read_text()
    payload = json.loads(text, parse_constant=_no_constant)
    for path in keys:
        value = payload
        for k in path:
            value = value[k]
        assert value is None, path


def test_floating_point_errors_are_numerical_failures(tmp_path, capsys):
    # m = 1e300 overflows the scan's energies: exit 3 with one line on stderr and no
    # output, where the scan used to exit 0 with nan slopes and numpy warnings on stderr
    rc, outdir = run_cli(tmp_path, "energy-scan", {"m": 1e300, "grid": {"n": 64}})
    out = capsys.readouterr()
    assert rc == 3
    assert out.out == "" and out.err.startswith("numerical failure:")
    assert len(out.err.splitlines()) == 1
    assert not outdir.exists() or not any(outdir.iterdir())


def test_zero_phi_refuses_an_amplitude(tmp_path, capsys):
    # kind "zero" is the flat plane: an amplitude it would ignore is invalid config,
    # where the scan used to run as the flat plane and exit 0
    rc, outdir = run_cli(tmp_path, "energy-scan", {"phi": {"kind": "zero", "amplitude": 0.3}})
    assert rc == EXIT_BAD_CONFIG
    assert "phi.amplitude" in capsys.readouterr().err
    assert not outdir.exists() or not any(outdir.iterdir())


# a small curved config for each command: its contract config, with the bump as phi
_CURVED = {command: dict(config, phi=_BUMP) if "phi" in cli.SCHEMAS[command] else dict(config)
           for command, (config, _) in _CONTRACT.items()}
_CURVED["identities"]["tolerance"] = 0.1               # passes: its worst error is 0.074
_CURVED["energy-scan"]["lambdas"] = [0.02, 2.0, 3.5]   # resolved: 1.875 <= lambda <= 3.75
_CURVED["flow"]["snapshot_every"] = 1                  # records its one step
# alternatives for the keys whose default nudge (_nudged) is refused or changes nothing
_ALTERNATIVES = {
    ("identities", "tolerance"): 1e-9,                # every identity fails: exit 1
    ("obstruction", "threshold"): 1e3,                # INCONCLUSIVE: exit 1
    ("flow", "dt"): 1e-3,                             # 1.5 x 0 is 0; 0.5 breaks the CFL bound
    ("energy-scan", "grid.half_width"): 32.0,         # resolves 2 <= lambda <= 4
    ("energy-scan", "lambdas"): [0.02, 2.5, 3.5],
}
# the pin's cases: each command's curved config, and flow once more per other initial value
_PIN_CASES = {command: (command, config) for command, config in _CURVED.items()}
_PIN_CASES["flow-profile"] = ("flow", dict(_CURVED["flow"], initial="profile"))
# keys that reach no output of their case's config, each for its reason
UNREACHED_KEYS = {
    ("flow", "profile.lam"): "initial: gaussian reads no profile",
    ("flow", "profile.m"): "initial: gaussian reads no profile",
    ("flow", "profile.x_star"): "initial: gaussian reads no profile",
    ("flow-profile", "mass"): "initial: profile reads neither mass nor sigma",
    ("flow-profile", "sigma"): "initial: profile reads neither mass nor sigma",
    ("obstruction", "phi.center"): "the certificate is translation-invariant: it works on "
                                   "the factor moved to the origin",
}


def _leaves(schema, prefix=""):
    """(dotted key, type) of every non-string leaf of a schema; output_dir is a string."""
    for key, spec in schema.items():
        if isinstance(spec, dict):
            yield from _leaves(spec, f"{prefix}{key}.")
        elif spec[0] is not str:
            yield f"{prefix}{key}", spec[0]


def _nudged(value, typ):
    """Another value of type typ: an int + 2, a point + 0.5, a list or float x 1.5 (0 -> 0.5)."""
    if typ is int:
        return value + 2
    if typ == cli._POINT:
        return [v + 0.5 for v in value]
    if typ is list:
        return [1.5 * v for v in value]
    return 1.5 * value if value else 0.5


def _observed(tmp_path, capsys, command, config):
    """The exit code, stdout and output files of one run, less the config hash and the
    top-level keys of <command>.json that echo a config key."""
    rc, outdir = run_cli(tmp_path, command, config)
    files = {}
    for path in sorted(outdir.iterdir()):
        if path.name == f"{command.replace('-', '_')}.json":
            files[path.name] = {k: v for k, v in json.loads(path.read_text()).items()
                                if k != "config_hash" and k not in cli.SCHEMAS[command]}
        else:
            files[path.name] = [line for line in path.read_bytes().splitlines(True)
                                if not line.startswith(b"# config_hash=")]
    return rc, capsys.readouterr().out, files


@pytest.mark.parametrize("case", sorted(_PIN_CASES))
def test_every_config_key_reaches_an_output(tmp_path, capsys, case):
    # each setting, moved to one valid alternative, changes the exit code, the stdout
    # line or the bytes of an output file, or is listed in UNREACHED_KEYS with its reason
    command, base = _PIN_CASES[case]
    full = cli._validate(base, cli.SCHEMAS[command])
    reference = _observed(tmp_path / "base", capsys, command, base)
    assert reference[0] in (EXIT_OK, EXIT_CHECK_FAILED)
    unreached = set()
    for i, (key, typ) in enumerate(_leaves(cli.SCHEMAS[command])):
        *parents, leaf = key.split(".")
        config = json.loads(json.dumps(base))
        node, current = config, full
        for p in parents:
            node, current = node.setdefault(p, {}), current[p]
        node[leaf] = _ALTERNATIVES.get((command, key), _nudged(current[leaf], typ))
        got = _observed(tmp_path / str(i), capsys, command, config)
        assert got[0] in (EXIT_OK, EXIT_CHECK_FAILED), (key, node[leaf], got[1])
        if got == reference:
            unreached.add(key)
    assert unreached == {key for c, key in UNREACHED_KEYS if c == case}
