import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvedks.domain import AnnulusSpec, CartesianGrid, SphereGrid, write_lattice_csv
from curvedks.geometry import ConformalFactor
from curvedks.profiles import ScaledCauchyProfile
from curvedks.stationary import density_from_profile


def test_spacing_forced_by_definition():
    g = CartesianGrid((0, 0), 1.0, 8)
    assert g.h == 0.25


def test_constant_integrates_to_square_area():
    g = CartesianGrid((0, 0), 5.0, 32)
    assert g.integrate(np.ones((32, 32))) == pytest.approx(100.0, rel=1e-14)


def test_cell_areas_sum_exactly():
    g = CartesianGrid((1.0, -2.0), 3.0, 16)
    assert g.cell_area * g.n**2 == pytest.approx((2 * 3.0) ** 2, rel=1e-14)


@pytest.mark.parametrize("bad", [7, 6, 9, 0, -8])
def test_rejects_odd_or_tiny_n(bad):
    with pytest.raises(ValueError):
        CartesianGrid((0, 0), 1.0, bad)


def test_rejects_nonpositive_half_width():
    with pytest.raises(ValueError):
        CartesianGrid((0, 0), 0.0, 16)


def test_unit_mass_profile_integral():
    # truncation tail of the unit-mass profile is lam^2/(pi R^2)-order;
    # at half_width 200 that is ~8e-6, far below the 1e-3 target
    g = CartesianGrid((0, 0), 200.0, 2048)
    mu = ScaledCauchyProfile(lam=1.0)
    total = g.integrate(mu.on_grid(g))
    assert total == pytest.approx(1.0, abs=1e-3)


def test_midpoint_refinement_order_on_gaussian():
    # order-2 midpoint convergence: refining by 2x gains >= 3.5x on a Gaussian.
    # The square is cut where the Gaussian is still visible so the h^2
    # boundary terms dominate; the reference is the erf closed form.
    from scipy.special import erf
    exact = np.pi * erf(3.0) ** 2
    errs = []
    for n in [32, 64, 128]:
        g = CartesianGrid((0, 0), 3.0, n)
        X, Y = g.meshes()
        val = g.integrate(np.exp(-(X**2 + Y**2)))
        errs.append(abs(val - exact))
    assert errs[0] / errs[1] >= 3.5
    assert errs[1] / errs[2] >= 3.5


def test_grid_weights_positive():
    g = CartesianGrid((0, 0), 2.0, 16)
    assert g.cell_area > 0


def test_sphere_weights_sum_to_4pi():
    sg = SphereGrid(8, 16)
    assert sg.integrate(np.ones((8, 16))) == pytest.approx(4 * np.pi, rel=1e-12)


def test_sphere_odd_harmonic_integrates_to_zero():
    sg = SphereGrid(16, 32)
    T, _ = sg.meshes()
    assert abs(sg.integrate(np.sin(T))) <= 1e-12


def test_sphere_sin_squared():
    sg = SphereGrid(16, 32)
    T, _ = sg.meshes()
    assert sg.integrate(np.sin(T) ** 2) == pytest.approx(4 * np.pi / 3, abs=1e-10)


def test_sphere_grids_share_read_only_nodes():
    a, b = SphereGrid(48, 96), SphereGrid(48, 16)
    for name in ("glw", "theta"):
        assert getattr(a, name) is getattr(b, name)
        with pytest.raises(ValueError):
            getattr(a, name)[0] = 0.0
    assert SphereGrid(50, 96).glw is not a.glw
    t, glw = np.polynomial.legendre.leggauss(48)
    assert np.array_equal(a.glw, glw) and np.array_equal(a.theta, np.arcsin(t))


@pytest.mark.parametrize("n_lat,n_lon", [(3, 16), (8, 7), (8, 9)])
def test_sphere_rejects_undersized_or_odd(n_lat, n_lon):
    with pytest.raises(ValueError):
        SphereGrid(n_lat, n_lon)


def test_annulus_validation_and_mask():
    with pytest.raises(ValueError):
        AnnulusSpec(R=-1.0)
    with pytest.raises(ValueError):
        AnnulusSpec(R=1.0, ratio=0.5)
    g = CartesianGrid((0, 0), 10.0, 64)
    ann = AnnulusSpec(R=3.0)
    mask = ann.mask(g)
    r = g.radius()
    assert np.all(r[mask] >= 3.0) and np.all(r[mask] <= 6.0)
    with pytest.raises(ValueError):
        AnnulusSpec(R=6.0).mask(g)  # outer radius 12 leaves the grid


def _per_cell_csv(header, A, B, values, meta=None):
    """Reference: one formatted row per cell from the full coordinate meshes."""
    lines = [f"# {meta}\n"] if meta else []
    lines.append(header + "\n")
    for a, b, v in zip(A.ravel(), B.ravel(), values.ravel()):
        lines.append(f"{a:.12g},{b:.12g},{v:.17g}\n")
    return "".join(lines)


def test_lattice_csv_writer_matches_per_cell_rows(tmp_path):
    g = CartesianGrid((0.3, 5.0), 7.0, 32)
    phi = ConformalFactor.radial_bump(0.2, 3.0, (0.3, 5.0))
    fld = density_from_profile(8 * np.pi, 1.0, (0.3, 5.0), phi, g)
    X, Y = g.meshes()
    cases = [
        (lambda p: fld.to_csv(p, meta="t=0.1"),
         _per_cell_csv("x,y,rho", X, Y, fld.samples, meta="t=0.1")),
        (fld.to_csv, _per_cell_csv("x,y,rho", X, Y, fld.samples)),
    ]
    for write, expected in cases:
        p = tmp_path / "field.csv"
        write(p)
        assert p.read_bytes() == expected.encode()


def test_row_csv_writers_match_per_row_format(tmp_path):
    from curvedks.energy import ScanRow, ScanTable
    from curvedks.flow import FlowDiagnostics, diagnostics_to_csv
    from curvedks.virial import VirialReport, export_virial_csv
    diag = FlowDiagnostics(t=[0.0, 0.1 / 3], mass=[4 * np.pi, -0.0],
                           second_moment=[1e-300, 2.5], free_energy=[np.nan, -np.inf])
    table = ScanTable(rows=[ScanRow(0.05, -1 / 3, True, 1.23456789e-7),
                            ScanRow(5.0, np.pi, False, np.inf)],
                      slope_fit=np.nan, predicted_slope=0.0, plateau=0.0, predicted_plateau=0.0)
    reports = [VirialReport(R_used=2.5, I1=np.pi, I2=-1e-17, I3=0.0)]
    cases = [
        (lambda p: diagnostics_to_csv(diag, p, meta="config_hash=ab"),
         "# config_hash=ab\nt,mass,W,F\n" + "".join(
             f"{t:.12g},{m:.17g},{w:.17g},{F:.17g}\n" for t, m, w, F in
             zip(diag.t, diag.mass, diag.second_moment, diag.free_energy))),
        (table.to_csv, "lambda,F,resolved,slope_fit,tail_bound\n" + "".join(
            f"{r.lam:.12g},{r.value:.17g},{int(r.resolved)},{table.slope_fit:.17g},"
            f"{r.tail_bound:.17g}\n" for r in table.rows)),
        (lambda p: export_virial_csv(reports, p, meta="m"), "# m\nR,I1,I2,I3,closure\n" + "".join(
            f"{r.R_used:.12g},{r.I1:.17g},{r.I2:.17g},{r.I3:.17g},{r.closure:.17g}\n"
            for r in reports)),
    ]
    for write, expected in cases:
        p = tmp_path / "rows.csv"
        write(p)
        assert p.read_bytes() == expected.encode()


@settings(derandomize=True, max_examples=30, deadline=None)
@given(k=st.integers(4, 48), cx=st.floats(-100.0, 100.0), cy=st.floats(-100.0, 100.0),
       half_width=st.floats(0.01, 100.0), seed=st.integers(0, 2**32 - 1))
def test_lattice_csv_roundtrip_property(k, cx, cy, half_width, seed):
    # values over 1e-200..1e200 and labels at any centre: the row-template
    # writer emits the same bytes as one per-cell format per node
    g = CartesianGrid(center=(cx, cy), half_width=half_width, n=2 * k)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((g.n, g.n)) * 10.0 ** rng.uniform(-200, 200, (g.n, g.n))
    X, Y = np.meshgrid(g.x, g.y, indexing="ij")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "lattice.csv")
        write_lattice_csv(path, "x,y,value", g.x, g.y, values, meta="lattice")
        with open(path, "rb") as fh:
            written = fh.read()
    assert written == _per_cell_csv("x,y,value", X, Y, values, meta="lattice").encode()
