import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import direct_gradient, lstsq_order, radial_derivative
from curvedks.domain import CartesianGrid
from curvedks.geometry import (ConformalFactor, _bump_profile, boundary_mask, grad_flat,
                               laplacian_flat)
from curvedks.stationary import DensityField, density_from_profile
from curvedks.virial import (AuxSolveError, WeightedEllipticProblem, _stencil_operators,
                             assemble_virial, cutoff_function, dilation_source,
                             potential_gradient, solve_aux_pde)


@pytest.fixture(scope="module")
def virial_grid():
    return CartesianGrid(center=(0, 0), half_width=60.0, n=512)


@pytest.fixture(scope="module")
def exact_field(virial_grid, flat_phi):
    return density_from_profile(8 * np.pi, 1.0, (0.0, 0.0), flat_phi, virial_grid)


@pytest.fixture(scope="module")
def curved_problem():
    phi = ConformalFactor.radial_bump(0.1, 3.0)
    g = CartesianGrid(center=(0, 0), half_width=20.0, n=96)
    fld = density_from_profile(8 * np.pi, 1.0, (0.0, 0.0), phi, g)
    return WeightedEllipticProblem.build(fld)


def test_dilation_source_is_taken_about_the_grid_centre():
    # 4 (x - x_g) . grad phi about the grid centre x_g, not 4 r phi_r about the bump's:
    # off centre it converges to the differenced field, centred it is 4 r phi_r
    phi = ConformalFactor.radial_bump(0.1, 2.0, (3.0, 1.0))
    ns, errs = (256, 512), []
    for n in ns:
        g = CartesianGrid(center=(0, 0), half_width=8.0, n=n)
        X, Y = g.meshes()
        gx, gy = grad_flat(phi.on_grid(g), g)
        errs.append(np.max(np.abs(dilation_source(phi, g) - 4.0 * (X * gx + Y * gy))))
    assert lstsq_order(ns, errs) >= 1.5
    g = CartesianGrid(center=(3.0, 1.0), half_width=3.0, n=64)
    r = g.radius()
    expected = 4.0 * r * radial_derivative(phi, r)
    assert np.max(np.abs(dilation_source(phi, g) - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_cutoff_plateau_and_support(virial_grid):
    chi = cutoff_function(10.0, virial_grid)
    r = virial_grid.radius()
    assert np.all(chi[r <= 10.0 - virial_grid.h] == 1.0)
    assert np.all(chi[r >= 20.0 + virial_grid.h] == 0.0)


def test_cutoff_gradient_bound(virial_grid):
    from curvedks.geometry import grad_flat
    R, K = 10.0, 1.5
    chi = cutoff_function(R, virial_grid)
    gx, gy = grad_flat(chi, virial_grid)
    slope = np.sqrt(gx**2 + gy**2).max() * R / K
    assert slope <= 1.0 + 5 * virial_grid.h


def test_cutoff_mass_converges(exact_field):
    masses = [np.sum(cutoff_function(R, exact_field.grid) * exact_field.samples)
              * exact_field.grid.cell_area for R in (5.0, 10.0, 20.0)]
    assert masses[0] < masses[1] < masses[2] < 8 * np.pi
    assert masses[2] == pytest.approx(8 * np.pi, rel=0.02)


def test_cutoff_too_large_rejected(virial_grid):
    with pytest.raises(ValueError):
        cutoff_function(40.0, virial_grid)


def test_flat_rhs_gives_zero_solution(flat_phi):
    g = CartesianGrid(center=(0, 0), half_width=20.0, n=64)
    fld = density_from_profile(8 * np.pi, 1.0, (0.0, 0.0), flat_phi, g)
    sol = solve_aux_pde(WeightedEllipticProblem.build(fld))
    assert np.all(sol.f == 0.0)
    assert sol.iterations == 0


def _true_residual(problem, f):
    """||b - A f|| / ||b||, rebuilt from the flat stencils rather than the solver's matrix.

    Interior rows: Delta0 f + grad f . grad c - 4 r phi_r e^{2 phi}; boundary
    rows: f itself (the solve imposes f = 0 there).
    """
    grid = problem.rho.grid
    b = problem.rhs * np.exp(2.0 * problem.phi.on_grid(grid))
    gfx, gfy = grad_flat(f, grid)
    gcx, gcy = grad_flat(problem.c.samples, grid)
    res = laplacian_flat(f, grid) + gfx * gcx + gfy * gcy - b
    edge = boundary_mask(grid)
    res[edge] = f[edge]
    b[edge] = 0.0
    return float(np.linalg.norm(res) / np.linalg.norm(b))


def test_aux_solve_is_one_direct_solve(curved_problem):
    sol = solve_aux_pde(curved_problem, tol=1e-8)
    assert sol.iterations == 1
    assert _true_residual(curved_problem, sol.f) <= 1e-12
    bnorm, res = sol.residual_trace
    assert res / bnorm <= 1e-12
    assert np.all(np.isfinite(sol.f)) and np.any(sol.f != 0.0)


@pytest.mark.parametrize("n, half_width", [(48, 16.0), (96, 20.0)])
def test_aux_factor_exchanges_no_rows(n, half_width):
    # with the cell Peclet number |grad c| h / 2 at most 1 the diagonal leads its column, so
    # the LU that solve_aux_pde takes exchanges no row and keeps the fill-reducing order:
    # its fill is that of the same order pivoting on the diagonal alone
    from scipy.sparse.linalg import splu
    g = CartesianGrid(center=(0, 0), half_width=half_width, n=n)
    problem = WeightedEllipticProblem.build(density_from_profile(
        8 * np.pi, 1.0, (0.0, 0.0), ConformalFactor.radial_bump(0.1, 2.0), g))
    gcx, gcy = grad_flat(problem.c.samples, g)
    assert np.max(np.hypot(gcx, gcy)) * g.h / 2 <= 1.0
    A = _stencil_operators(problem)
    lu = splu(A, permc_spec="MMD_AT_PLUS_A")
    assert np.array_equal(lu.perm_r, lu.perm_c)
    on_diagonal = splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0)
    assert lu.L.nnz + lu.U.nnz == on_diagonal.L.nnz + on_diagonal.U.nnz


@settings(derandomize=True, max_examples=30, deadline=None)
@given(n=st.integers(16, 32).map(lambda k: 2 * k),
       amplitude=st.floats(-0.2, 0.2).filter(lambda a: abs(a) > 1e-3),
       radius=st.floats(1.0, 4.0), offset=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
def test_aux_solve_satisfies_discrete_equation(n, amplitude, radius, offset):
    phi = ConformalFactor.radial_bump(amplitude, radius, offset)
    g = CartesianGrid(center=(0, 0), half_width=16.0, n=n)
    problem = WeightedEllipticProblem.build(
        density_from_profile(8 * np.pi, 1.0, (0.0, 0.0), phi, g))
    sol = solve_aux_pde(problem)
    assert _true_residual(problem, sol.f) <= 1e-12


def _norm_sq(problem, psi):
    """|| psi ||^2 = || grad psi ||^2_{L2(g_phi)} + 1/2 || sqrt(rho) psi ||^2_{L2(g_phi)}.

    The gradient part is conformally invariant in two dimensions, so it is the
    flat Dirichlet energy; the zeroth-order part carries e^{2 phi}.
    """
    grid = problem.rho.grid
    gx, gy = grad_flat(psi, grid)
    dirichlet = np.sum(gx**2 + gy**2) * grid.cell_area
    w = problem.rho.geometry.weights
    return float(dirichlet + 0.5 * np.sum(problem.rho.samples * psi**2 * w))


def _bilinear(problem, f, psi):
    """B(f, psi) = <d psi, d f>_{L2(g_phi)} + int psi g_phi(df, dc) dA_phi."""
    grid = problem.rho.grid
    gfx, gfy = grad_flat(f, grid)
    gpx, gpy = grad_flat(psi, grid)
    gcx, gcy = grad_flat(problem.c.samples, grid)
    first = np.sum(gpx * gfx + gpy * gfy) * grid.cell_area
    second = np.sum(psi * (gfx * gcx + gfy * gcy)) * grid.cell_area
    return float(first + second)


def _functional(problem, psi):
    """Phi(psi) = int psi (4 r phi_r) dA_phi."""
    return float(np.sum(psi * problem.rhs * problem.rho.geometry.weights))


def test_aux_solve_satisfies_weak_form(curved_problem):
    # B(f, psi) == Phi(psi) up to discretization for interior probe fields
    sol = solve_aux_pde(curved_problem, tol=1e-10)
    g = curved_problem.rho.grid
    X, Y = g.meshes()
    psi = np.exp(-((X / 6) ** 2 + (Y / 6) ** 2) * 2)
    psi[g.radius() > 0.8 * g.half_width] = 0.0
    b_val = _bilinear(curved_problem, sol.f, psi)
    phi_val = _functional(curved_problem, psi)
    assert b_val == pytest.approx(phi_val, rel=0.05)


def test_aux_solve_rejects_bad_tolerance(curved_problem):
    with pytest.raises(ValueError):
        solve_aux_pde(curved_problem, tol=-1.0)


def test_aux_solve_residual_above_tolerance_raises(curved_problem):
    with pytest.raises(AuxSolveError):
        solve_aux_pde(curved_problem, tol=1e-30)


def _bumps(grid):
    """Fixed compactly supported probes, each overlapping the support of phi."""
    X, Y = grid.meshes()
    return [_bump_profile((X - px) / width) * _bump_profile((Y - py) / width)
            for px, py, width in ((0.0, 0.0, 3.0), (1.3, -0.7, 5.0), (-4.0, 2.5, 6.5))]


def test_coercivity_ratios_near_one(curved_problem):
    # B(psi, psi) = ||psi||^2, since int psi grad psi . grad c = 1/2 int psi^2 e^{2 phi} rho
    for psi in _bumps(curved_problem.rho.grid):
        assert _bilinear(curved_problem, psi, psi) == \
            pytest.approx(_norm_sq(curved_problem, psi), rel=0.05)


def test_continuity_bounded_by_envelope_constant(curved_problem):
    # |Phi(psi)| <= sqrt(2 int (4 r phi_r)^2 / rho dA_phi) ||psi||
    rho = curved_problem.rho
    K = np.sqrt(2.0 * np.sum(curved_problem.rhs**2 / rho.samples * rho.geometry.weights))
    for psi in _bumps(rho.grid):
        assert abs(_functional(curved_problem, psi)) <= K * np.sqrt(_norm_sq(curved_problem, psi))


@pytest.mark.parametrize("amplitude", [0.0, 0.1], ids=["flat", "curved"])
def test_virial_terms_are_invariant_under_translation(amplitude):
    # moving the grid, the density and the factor together moves no term: I2 is taken
    # about the grid centre, as the cutoff and the dilation source are
    reports = []
    for shift in (0.0, 5.0, 50.0):
        c = (shift, -0.5 * shift)
        g = CartesianGrid(center=c, half_width=40.0, n=256)
        phi = ConformalFactor.radial_bump(amplitude, 2.0, (c[0] + 1.0, c[1]))
        fld = density_from_profile(8 * np.pi, 1.0, (c[0] + 3.0, c[1]), phi, g)
        reports.append(assemble_virial(fld, [10.0])[0])
    for rep in reports[1:]:
        for term in ("I1", "I2", "I3", "closure"):
            assert getattr(rep, term) == pytest.approx(getattr(reports[0], term), rel=1e-9)


def test_virial_closure_flat_exact(exact_field):
    reports = assemble_virial(exact_field, [5.0, 10.0, 15.0, 20.0, 25.0])
    last = reports[-1]
    assert abs(last.closure) <= 0.02 * 32 * np.pi
    assert last.I2 == pytest.approx(-16 * np.pi, rel=0.02)
    assert last.I3 == 0.0
    # closure trend improves with R
    assert abs(reports[0].closure) > abs(last.closure)


def test_virial_i1_approaches_mass(exact_field):
    reports = assemble_virial(exact_field, [25.0])
    assert reports[0].I1 == pytest.approx(8 * np.pi, rel=0.01)


def test_i3_identically_zero_when_flat(exact_field):
    reports = assemble_virial(exact_field, [10.0])
    assert reports[0].I3 == 0.0


def test_potential_gradient_fft_matches_direct(flat_phi):
    g = CartesianGrid(center=(0, 0), half_width=12.0, n=48)
    fld = density_from_profile(8 * np.pi, 1.0, (0.0, 0.0), flat_phi, g)
    gxd, gyd = direct_gradient(fld)
    gxf, gyf = potential_gradient(fld)
    scale = np.max(np.abs(gxd)) + np.max(np.abs(gyd))
    assert np.max(np.abs(gxd - gxf)) <= 1e-10 * scale
    assert np.max(np.abs(gyd - gyf)) <= 1e-10 * scale


@pytest.mark.parametrize("n, center, half_width", [(8, (0.7, -1.3), 3.0),
                                                   (10, (-2.1, 0.4), 6.5)])
def test_direct_gradient_matches_pairwise_loop(n, center, half_width, bump_phi):
    # the gradient oracle itself, against the kernel summed pair by pair
    g = CartesianGrid(center=center, half_width=half_width, n=n)
    fld = DensityField(grid=g, samples=np.random.default_rng(n).random((n, n)), phi=bump_phi)
    qf = (fld.samples * fld.geometry.weights).ravel()
    pts = [(x, y) for x in g.x for y in g.y]   # row-major, like qf
    expect = np.zeros((2, n * n))
    for i, (xi, yi) in enumerate(pts):
        for j, (xj, yj) in enumerate(pts):
            if j != i:
                r2 = (xi - xj) ** 2 + (yi - yj) ** 2
                expect[:, i] -= np.array([xi - xj, yi - yj]) / (2 * np.pi * r2) * qf[j]
    got = np.stack([c.ravel() for c in direct_gradient(fld)])
    assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))


def i2_double_sum(rho, antisymmetrized=False):
    """Direct O(N^2) evaluation of the uncut I2 kernel sum.

    The kernel -x.(x-y)/(2pi |x-y|^2) is x . grad G, so the sum is
    sum_i q_i x_i . (grad c)_i with grad c from the direct lattice sum.
    With antisymmetrized=True the kernel x.(x-y)/|x-y|^2 is replaced by its
    antisymmetric part 1/2, which collapses the sum to -(sum q)^2 minus the
    diagonal; agreement between the two confirms the cancellation used in
    the closed-form limit.
    """
    q = (rho.samples * rho.geometry.weights).ravel()
    if antisymmetrized:
        total = float(q.sum())
        return -(total * total - float(q @ q)) / (4.0 * np.pi)
    gx, gy = direct_gradient(rho)
    X, Y = rho.grid.meshes()
    return float(q @ (X * gx + Y * gy).ravel())


def test_i2_double_sum_matches_pair_loop(bump_phi):
    g = CartesianGrid(center=(0.4, -0.3), half_width=6.0, n=16)
    fld = density_from_profile(8 * np.pi, 1.0, (0.5, 0.2), bump_phi, g)
    # the kernel -x.(x-y) / (2pi |x-y|^2) summed over all pairs, as one dense matrix
    q = (fld.samples * fld.geometry.weights).ravel()
    X, Y = g.meshes()
    px, py = X.ravel(), Y.ravel()
    dx = px[:, None] - px[None, :]
    dy = py[:, None] - py[None, :]
    r2 = dx**2 + dy**2
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.where(r2 > 0, -(px[:, None] * dx + py[:, None] * dy) / (2.0 * np.pi * r2), 0.0)
    assert i2_double_sum(fld) == pytest.approx(float(q @ (k @ q)), rel=1e-12)


def test_antisymmetrization_oracle(flat_phi):
    g = CartesianGrid(center=(0, 0), half_width=20.0, n=64)
    fld = density_from_profile(8 * np.pi, 1.0, (0.0, 0.0), flat_phi, g)
    direct = i2_double_sum(fld, antisymmetrized=False)
    anti = i2_double_sum(fld, antisymmetrized=True)
    assert abs(direct - anti) <= 1e-6 * abs(anti)


def test_scaled_mass_family_quadratic(flat_phi, virial_grid):
    # closure(s) tracks 4 s m - (s m)^2 / 2pi: vanishes only at s in {0, 1}
    base = density_from_profile(8 * np.pi, 1.0, (0.0, 0.0), flat_phi, virial_grid)
    m = 8 * np.pi
    for s in (0.5, 1.0, 1.5):
        from curvedks.stationary import DensityField
        fld = DensityField(grid=virial_grid, samples=s * base.samples, phi=flat_phi)
        rep = assemble_virial(fld, [25.0])[0]
        predicted = 4 * s * m - (s * m) ** 2 / (2 * np.pi)
        assert rep.closure == pytest.approx(predicted, abs=0.03 * 32 * np.pi)
        if s != 1.0:
            assert abs(rep.closure) > 0.1 * 32 * np.pi


def test_curved_i3_small_with_solved_f(curved_problem):
    sol = solve_aux_pde(curved_problem, tol=1e-9)
    reports = assemble_virial(curved_problem.rho, [6.0, 8.0], f=sol.f)
    for rep in reports:
        assert abs(rep.I3) < 0.1


def test_virial_csv_export(tmp_path, exact_field):
    from curvedks.virial import export_virial_csv
    reports = assemble_virial(exact_field, [10.0, 20.0])
    p = tmp_path / "virial.csv"
    export_virial_csv(reports, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "R,I1,I2,I3,closure"
    assert len(lines) == 3
