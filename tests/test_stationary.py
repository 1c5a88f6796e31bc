import numpy as np
import pytest

from conftest import lstsq_order, radial_derivative
from curvedks import stationary
from curvedks.domain import AnnulusSpec, CartesianGrid
from curvedks.geometry import ConformalFactor, _bump_profile, boundary_mask, grad_flat
from curvedks.potential import estimate_tail, newtonian_potential
from curvedks.stationary import (RHO_FLOOR, DensityField, decay_envelope, default_test_bank,
                                 density_from_profile, membership_check, reduced_residual,
                                 rho_log_rho, static_weak_residual)


@pytest.fixture(scope="module")
def exact_field(flat_phi):
    g = CartesianGrid(center=(0, 0), half_width=40.0, n=256)
    return density_from_profile(8 * np.pi, 1.0, (0.0, 0.0), flat_phi, g)


def test_density_field_validation(grid64, flat_phi):
    with pytest.raises(ValueError):
        DensityField(grid=grid64, samples=-np.ones((grid64.n, grid64.n)), phi=flat_phi)
    with pytest.raises(ValueError):
        DensityField(grid=grid64, samples=np.zeros((grid64.n, grid64.n)), phi=flat_phi)


def test_profile_density_has_curved_mass_m(grid128):
    phi = ConformalFactor.radial_bump(0.2, 3.0)
    fld = density_from_profile(8 * np.pi, 1.0, (0.0, 0.0), phi, grid128)
    # int m mu e^{-2phi} dA_phi = int m mu dA0 structurally
    flat = density_from_profile(8 * np.pi, 1.0, (0.0, 0.0), ConformalFactor.zero(), grid128)
    assert fld.mass == pytest.approx(flat.mass, rel=1e-12)


def test_reduced_residual_exact_solution(exact_field):
    rep = reduced_residual(exact_field)
    assert rep.f_constant == pytest.approx(np.log(8.0), abs=0.02)
    assert rep.f_variation < 0.03
    assert rep.reduced_residual_L2 < 0.1


def test_reduced_residual_curved_minimizer_not_a_solution():
    # the curved-family minimizer fails the reduced equation by exactly -2 dphi,
    # so the weighted residual approaches sqrt( int rho |2 dphi|^2 dA0 )
    phi = ConformalFactor.radial_bump(0.2, 3.0)
    g = CartesianGrid(center=(0, 0), half_width=40.0, n=256)
    fld = density_from_profile(8 * np.pi, 1.0, (0.0, 0.0), phi, g)
    rep = reduced_residual(fld)
    r = g.radius()
    dphi = radial_derivative(phi, r)
    predicted = np.sqrt(np.sum(fld.samples * 4.0 * dphi**2) * g.cell_area)
    flat_rep = reduced_residual(density_from_profile(
        8 * np.pi, 1.0, (0.0, 0.0), ConformalFactor.zero(), g))
    assert rep.reduced_residual_L2 > 3 * flat_rep.reduced_residual_L2
    assert rep.reduced_residual_L2 == pytest.approx(predicted, rel=0.4)
    assert rep.f_variation > 0.3  # ~ 2 * amplitude spread of phi


def test_reduced_residual_gaussian_far_from_solution(flat_phi):
    g = CartesianGrid(center=(0, 0), half_width=40.0, n=256)
    X, Y = g.meshes()
    m = 8 * np.pi
    rho = m / (2 * np.pi) * np.exp(-(X**2 + Y**2) / 2)
    fld = DensityField(grid=g, samples=rho, phi=flat_phi)
    rep = reduced_residual(fld)
    assert rep.f_variation > 0.5


def test_reduced_residual_convergence_order(flat_phi):
    # primary refinement law for the exact family, two scales and two centers
    for lam, center in [(1.0, (0.0, 0.0)), (0.5, (0.0, 0.0)), (2.0, (3.0, -2.0))]:
        errs, ns = [], [64, 128, 256]
        for n in ns:
            g = CartesianGrid(center=center, half_width=30.0, n=n)
            fld = density_from_profile(8 * np.pi, lam, center, flat_phi, g)
            errs.append(reduced_residual(fld).reduced_residual_L2)
        assert lstsq_order(ns, errs) >= 1.5, (lam, center, errs)


def test_f_constant_stable_under_refinement(flat_phi):
    vals = []
    for n in [128, 256]:
        g = CartesianGrid(center=(0, 0), half_width=40.0, n=n)
        fld = density_from_profile(8 * np.pi, 1.0, (0.0, 0.0), flat_phi, g)
        vals.append(reduced_residual(fld).f_constant)
    assert abs(vals[0] - vals[1]) < 0.01


def test_scaling_coherence(flat_phi):
    # ln(s rho) - c_{s rho} = ln s + (1 - s) c_rho + (ln rho - c_rho) pointwise
    g = CartesianGrid(center=(0, 0), half_width=20.0, n=96)
    fld = density_from_profile(8 * np.pi, 1.0, (0.0, 0.0), flat_phi, g)
    s = 1.7
    c1 = newtonian_potential(fld.samples, flat_phi, g).samples
    c2 = newtonian_potential(s * fld.samples, flat_phi, g).samples
    lhs = np.log(s * fld.samples) - c2
    rhs = np.log(s) + (1 - s) * c1 + (np.log(fld.samples) - c1)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def _grad_f(fld):
    """Flat gradient of f = ln rho - c, the field reduced_residual hands the weak residual."""
    low = fld.samples <= RHO_FLOOR
    f = np.where(low, 0.0, np.log(np.maximum(fld.samples, RHO_FLOOR)))
    return grad_flat(f - fld.potential().samples, fld.grid)


def test_weak_residual_zero_test_field(exact_field):
    zero = (np.zeros((1, 256)), np.zeros((1, 256)))
    assert static_weak_residual(exact_field, zero, _grad_f(exact_field)) == 0.0


def test_weak_residual_small_for_exact_solution(exact_field):
    bank = default_test_bank(exact_field.grid)
    assert static_weak_residual(exact_field, bank, _grad_f(exact_field)) < 0.05


def test_weak_residual_grows_with_noise(flat_phi):
    # smooth band-limited multiplicative noise so the linear response is
    # visible above the quadrature baseline
    g = CartesianGrid(center=(0, 0), half_width=30.0, n=128)
    rng = np.random.default_rng(11)
    X, Y = g.meshes()
    noise = np.zeros((g.n, g.n))
    for _ in range(5):
        kx, ky = rng.uniform(0.2, 0.8, size=2)
        ph = rng.uniform(0, 2 * np.pi)
        noise += np.sin(kx * X + ky * Y + ph)
    bank = default_test_bank(g)
    rho = density_from_profile(8 * np.pi, 1.0, (0.0, 0.0), flat_phi, g).samples
    vals = []
    for amp in [0.01, 0.03, 0.09]:
        fld = DensityField(grid=g, samples=rho * np.clip(1 + amp * noise, 0.1, None),
                           phi=flat_phi)
        vals.append(static_weak_residual(fld, bank, _grad_f(fld)))
    assert vals[0] < vals[1] < vals[2]


def test_weak_residual_rejects_boundary_supported_test(exact_field):
    bad = (np.ones((1, 256)), np.ones((1, 256)))
    with pytest.raises(ValueError):
        static_weak_residual(exact_field, bad, _grad_f(exact_field))


def test_weak_residual_rejects_empty_bank(exact_field):
    # a maximum over no test field would report 0 having checked nothing
    with pytest.raises(ValueError, match="empty test bank"):
        static_weak_residual(exact_field, (np.zeros((0, 256)), np.zeros((0, 256))),
                             _grad_f(exact_field))


def _mesh_test_bank(grid):
    """Reference: the bank as full 2-D fields, each bump evaluated on the coordinate meshes."""
    rng = np.random.default_rng(0)
    X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
    cx, cy = grid.center
    hw = grid.half_width
    offsets = np.linspace(-0.5 * hw, 0.5 * hw, 3)
    bank = []
    for s in (0.10, 0.18, 0.30):
        width = s * hw
        for ox in offsets:
            for oy in offsets:
                px = cx + ox + 0.05 * hw * rng.uniform(-1, 1)
                py = cy + oy + 0.05 * hw * rng.uniform(-1, 1)
                bank.append(_bump_profile((X - px) / width) * _bump_profile((Y - py) / width))
    return bank


@pytest.mark.parametrize("n", [20, 64, 96, 128, 256])
@pytest.mark.parametrize("phi", [ConformalFactor.zero(), ConformalFactor.radial_bump(0.2, 3.0)],
                         ids=["flat", "curved"])
def test_factored_weak_residual_matches_per_field_formula(n, phi):
    g = CartesianGrid(center=(1.0, -0.5), half_width=30.0, n=n)
    fld = density_from_profile(8 * np.pi, 1.0, (1.0, -0.5), phi, g)
    bank = default_test_bank(g)
    fields = _mesh_test_bank(g)
    assert len(bank[0]) == len(bank[1]) == len(fields) == 27
    for a, b, T in zip(*bank, fields):
        assert np.array_equal(np.outer(a, b), T)
    # per-field reference: 2-D gradients of each field, 2-D sums
    f = np.log(fld.samples) - fld.potential().samples
    gfx, gfy = grad_flat(f, g)
    worst = 0.0
    for T in fields:
        gtx, gty = grad_flat(T, g)
        energy = np.sqrt(np.sum(gtx**2 + gty**2) * g.cell_area)
        val = abs(np.sum(fld.samples * (gtx * gfx + gty * gfy)) * g.cell_area) / energy
        worst = max(worst, float(val))
    assert worst > 0.0
    assert static_weak_residual(fld, bank, (gfx, gfy)) == pytest.approx(worst, rel=1e-12, abs=0.0)


def test_default_bank_vanishes_near_the_boundary_on_every_grid(flat_phi):
    # coarse grids drop the fields that reach the two outer cell rings; from n = 20
    # on none is dropped, and the kept fields are the reference bank's
    for n in range(8, 66, 2):
        g = CartesianGrid(center=(1.0, -0.5), half_width=30.0, n=n)
        bank = default_test_bank(g)
        ring = boundary_mask(g, layers=2)
        kept = [T for T in _mesh_test_bank(g) if not T[ring].any()]
        assert len(bank[0]) == len(bank[1]) == len(kept) > 0
        assert n < 20 or len(bank[0]) == 27
        for a, b, T in zip(*bank, kept):
            assert np.array_equal(np.outer(a, b), T)
        fld = density_from_profile(8 * np.pi, 1.0, (1.0, -0.5), flat_phi, g)
        assert np.isfinite(static_weak_residual(fld, bank, _grad_f(fld)))


def test_default_bank_is_one_bump_evaluation_per_axis(monkeypatch):
    calls = []

    def counted(s):
        calls.append(np.shape(s))
        return _bump_profile(s)

    monkeypatch.setattr(stationary, "_bump_profile", counted)
    default_test_bank(CartesianGrid(center=(0.0, 0.0), half_width=20.0, n=64))
    assert calls == [(27, 64), (27, 64)]


def test_decay_envelope_critical_profile(flat_phi):
    g = CartesianGrid(center=(0, 0), half_width=60.0, n=512)
    fld = density_from_profile(8 * np.pi, 1.0, (0.0, 0.0), flat_phi, g)
    rep = decay_envelope(fld, AnnulusSpec(R=20.0))
    assert rep.tail_slope == pytest.approx(-4.0, abs=0.1)
    assert rep.K_best == pytest.approx(8.0, abs=0.5)


def test_decay_envelope_slope_across_scales(flat_phi):
    # slope -m/2pi = -4 within 3% for the exact family at three scales
    g = CartesianGrid(center=(0, 0), half_width=60.0, n=512)
    for lam in (0.5, 1.0, 2.0):
        fld = density_from_profile(8 * np.pi, lam, (0.0, 0.0), flat_phi, g)
        rep = decay_envelope(fld, AnnulusSpec(R=20.0))
        assert rep.tail_slope == pytest.approx(-4.0, rel=0.03)


def test_decay_envelope_gaussian_diverges(flat_phi):
    g = CartesianGrid(center=(0, 0), half_width=24.0, n=256)
    X, Y = g.meshes()
    rho = np.exp(-(X**2 + Y**2) / 2) + 1e-280
    fld = DensityField(grid=g, samples=rho, phi=flat_phi)
    k_small = decay_envelope(fld, AnnulusSpec(R=4.0)).K_best
    k_large = decay_envelope(fld, AnnulusSpec(R=8.0)).K_best
    assert k_large > 10 * k_small


def test_membership_exact_profile(exact_field):
    rep = membership_check(exact_field, estimate_tail(exact_field.samples, exact_field.grid))
    assert rep.verdict
    assert rep.mass == pytest.approx(8 * np.pi, rel=0.01)


def test_membership_zero_mass_fails(flat_phi, grid64):
    # all-floored field: positive-mass construction refused upstream
    with pytest.raises(ValueError):
        DensityField(grid=grid64, samples=np.zeros((grid64.n, grid64.n)), phi=flat_phi)


def test_membership_flags_log_divergent_mass(flat_phi):
    masses = []
    for hw in [20.0, 80.0]:
        g = CartesianGrid(center=(0, 0), half_width=hw, n=256)
        X, Y = g.meshes()
        rho = 1.0 / (1.0 + X**2 + Y**2)
        fld = DensityField(grid=g, samples=rho, phi=flat_phi)
        rep = membership_check(fld, estimate_tail(rho, g))
        masses.append(rep.mass)
        assert not rep.potential_defined  # envelope slope ~ -2: tail infinite
    assert masses[1] > masses[0] + 1.0  # mass grows with the grid radius


@pytest.mark.parametrize("with_ref", [False, True])
def test_rho_log_rho_equals_the_gather_formula(with_ref):
    # the masked ufuncs give the boolean-gather formula bit for bit, signed
    # zeros included, on a field with floored cells, cells at the floor and
    # cells where the log is exactly zero
    g = CartesianGrid(center=(0, 0), half_width=30.0, n=64)
    X, Y = g.meshes()
    rho = 3.0 * np.exp(-(X**2 + Y**2) / 2.0)          # underflows to 0 far out
    rho[0, :4] = [RHO_FLOOR, 2 * RHO_FLOOR, 1.0, 5e-324]
    ref = np.where(np.arange(64) % 3 == 0, rho, 0.5 + np.abs(X)) if with_ref else None
    live = rho > RHO_FLOOR
    assert (~live).sum() > 100
    want = np.zeros_like(rho)
    r = rho[live]
    want[live] = r * np.log(r if ref is None else r / ref[live])
    got = rho_log_rho(rho, ref)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
