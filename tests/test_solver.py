"""Order-by-order deformation solver: series algebra, per-order solves,
input-family preconditions and finite-parameter verification."""

import numpy as np
import pytest
import scipy.linalg

import genkahler.clifford as cl
import genkahler.fields as gf
import genkahler.hodge as gh
import genkahler.solver as sol
import genkahler.structures as gs


def symmetric_mode(field_like, k, value):
    """Add value * exp(i<k,x>) plus its mirror so the field stays real."""
    field_like.coeffs[k] = field_like.coeffs.get(k, 0) + np.asarray(value, dtype=complex)
    mk = tuple(-v for v in k)
    field_like.coeffs[mk] = field_like.coeffs.get(mk, 0) + np.asarray(value, dtype=complex).conj()


def two_frequency_one_form():
    xi = gf.FourierField(4, 4)
    symmetric_mode(xi, (1, 0, 0, 0), 0.5 * np.array([0.0, 0.3, -0.2, 0.1]))
    symmetric_mode(xi, (0, 1, 1, 0), 0.5j * np.array([0.15, 0.0, 0.1, -0.25]))
    assert xi.is_real()
    return xi


def holomorphic_bivector_exponent(pair):
    """Constant so element from a (2,0) bivector of the first structure."""
    base = -pair.J1[: pair.m, : pair.m]
    proj = 0.5 * (np.eye(pair.m) - 1j * base)
    u = np.linalg.svd(proj)[0][:, : pair.m // 2]
    biv = np.outer(u[:, 0], u[:, 1]) - np.outer(u[:, 1], u[:, 0])
    alpha = cl.bivector_so((biv + biv.conj()).real)
    assert cl.so_residual(alpha) < 1e-12
    return alpha


@pytest.fixture(scope="module")
def pair():
    return gs.standard_kahler_pair(4)


@pytest.fixture(scope="module")
def bfield_family(pair):
    """Transverse exponent family reproducing a closed two-form conjugation."""
    xi = two_frequency_one_form()
    C = gf.one_form_differential(xi).map_values(cl.two_form_so)
    target = sol.conjugated_structure_series(C, pair.J1, 3)
    return sol.extract_transverse_family(pair.J1, target, 3)


@pytest.fixture(scope="module")
def bfield_report(pair, bfield_family):
    return sol.run_deformation(bfield_family, pair, order_cap=3)


# ---------------------------------------------------------------------------
# series containers and the exponential action


def test_zero_family_returns_seed(pair):
    psi0 = pair.canonical_generator(2)
    out = sol.series_exp_action(sol.SeriesSoField.zero(4), None, psi0, 3)
    np.testing.assert_allclose(out.term(0)[(0, 0, 0, 0)], psi0, atol=1e-15)
    assert all(out.term(j).coeff_norm() == 0.0 for j in range(1, 4))


def test_constant_exponent_matches_hand_expansion(pair):
    rng = np.random.default_rng(11)
    alpha = 0.3 * cl.random_so_element(rng, 4)
    psi0 = pair.canonical_generator(2)
    out = sol.series_exp_action(sol.SeriesSoField.linear(4, alpha), None, psi0, 2)
    S = cl.spin_lie_action(alpha)
    zero = (0, 0, 0, 0)
    np.testing.assert_allclose(out.term(1)[zero], S @ psi0, atol=1e-13)
    np.testing.assert_allclose(out.term(2)[zero], 0.5 * S @ S @ psi0, atol=1e-13)


def test_series_action_matches_pointwise_exponentials(pair):
    """Truncation error against the exact product of exponentials is O(t^{K+1})."""
    rng = np.random.default_rng(3)

    def so_field(freq, scale):
        f = gf.FourierOperatorField(4, 8)
        symmetric_mode(f, freq, scale * cl.random_so_element(rng, 4))
        return f

    A = sol.SeriesSoField(4, [None, so_field((1, 0, 0, 0), 0.4), 0.5 * so_field((0, 0, 1, 0), 0.3)])
    B = sol.SeriesSoField(4, [None, so_field((0, 1, 0, 0), 0.3)])
    psi0 = pair.canonical_generator(2)
    series = sol.series_exp_action(A, B, psi0, 3)

    t = 1e-3
    pts = gf.uniform_points(rng, 5, 4)
    va, vb = A.evaluate(t, pts), B.evaluate(t, pts)
    exact = np.stack(
        [
            scipy.linalg.expm(cl.spin_lie_action(va[p]))
            @ scipy.linalg.expm(cl.spin_lie_action(vb[p]))
            @ psi0
            for p in range(len(pts))
        ]
    )
    assert np.abs(series.evaluate(t, pts) - exact).max() < 1e-9


def test_factor_order_is_left_to_right(pair):
    rng = np.random.default_rng(8)
    A = 0.4 * cl.random_so_element(rng, 4)
    B = 0.4 * cl.random_so_element(rng, 4)
    psi0 = pair.canonical_generator(2)
    famA = sol.SeriesSoField.linear(4, A)
    famB = sol.SeriesSoField.linear(4, B)
    out = sol.series_exp_action([famA, famB], None, psi0, 2)
    Sa, Sb = cl.spin_lie_action(A), cl.spin_lie_action(B)
    want = (0.5 * Sa @ Sa + Sa @ Sb + 0.5 * Sb @ Sb) @ psi0
    np.testing.assert_allclose(out.term(2)[(0, 0, 0, 0)], want, atol=1e-13)
    # the reversed composition differs when the exponents do not commute
    flipped = sol.series_exp_action([famB, famA], None, psi0, 2)
    assert (flipped.term(2) - out.term(2)).coeff_norm() > 1e-3


def test_series_family_validation():
    rng = np.random.default_rng(1)
    alpha = cl.random_so_element(rng, 4)
    with pytest.raises(ValueError):
        sol.SeriesSoField(4, [alpha])  # does not vanish at t = 0
    with pytest.raises(ValueError):
        sol.SeriesSoField(4, [None, np.eye(8)])  # not so(m,m)
    with pytest.raises(ValueError):
        sol.SeriesSoField(4, [None, 1j * alpha])  # not a real field
    fam = sol.SeriesSoField(4, [None, alpha, 0.5 * alpha])
    assert fam.order_cap == 2
    assert fam.truncate(1).term(2).coeff_norm() == 0.0
    np.testing.assert_allclose(fam.conj().term(1)[(0, 0, 0, 0)], alpha, atol=1e-14)
    grown = fam.with_term(4, gf.FourierOperatorField.constant(4, alpha))
    assert grown.order_cap == 4 and fam.order_cap == 2


def test_support_closure_counts():
    base = [(1, (1, 0, 0, 0)), (1, (-1, 0, 0, 0)), (1, (0, 1, 0, 0)), (1, (0, -1, 0, 0))]
    assert len(sol.support_closure(base, 4, 4)) == 41
    # order-2 sources can only be used twice within a cap of 4
    axis = sol.support_closure([(2, (1, 0, 0, 0)), (2, (-1, 0, 0, 0))], 4, 4)
    assert axis == tuple((k, 0, 0, 0) for k in range(-2, 3))


# ---------------------------------------------------------------------------
# preconditions on the input family


def test_defects_flag_modulated_bivector(pair):
    """A cosine-modulated bivector breaks integrability; a constant one does not."""
    biv = holomorphic_bivector_exponent(pair)
    mod = gf.FourierOperatorField(4, 8)
    symmetric_mode(mod, (0, 0, 1, 0), 0.5 * biv)
    bad = sol.SeriesSoField(4, [None, mod])
    defects = sol.first_structure_defects(bad, pair, None, 2)
    assert defects[0] < 1e-14 and defects[1] > 0.5

    good = sol.SeriesSoField.linear(4, biv)
    assert max(sol.first_structure_defects(good, pair, None, 2)) < 1e-14

    with pytest.raises(sol.IntegrabilityError) as err:
        sol.run_deformation(bad, pair, order_cap=2)
    assert err.value.order == 1


def test_run_rejects_bad_inputs(pair, bfield_family):
    with pytest.raises(ValueError):
        sol.run_deformation(bfield_family, pair, order_cap=9)
    with pytest.raises(ValueError):
        sol.run_deformation([], pair, order_cap=2)
    # a twist the seed spinor is not closed for
    h = np.zeros((4, 4, 4))
    for perm, sign in [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1), ((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1)]:
        h[perm] = 0.5 * sign
    with pytest.raises(sol.IntegrabilityError):
        sol.run_deformation(bfield_family, pair, h=h, order_cap=2)


# ---------------------------------------------------------------------------
# the extracted transverse family


def test_extraction_reproduces_structure_series(pair):
    xi = two_frequency_one_form()
    C = gf.one_form_differential(xi).map_values(cl.two_form_so)
    target = sol.conjugated_structure_series(C, pair.J1, 4)
    fam = sol.extract_transverse_family(pair.J1, target, 4)
    back = sol.structure_series_of_family(fam, pair.J1, 4)
    for j in range(5):
        assert (back[j] - target[j]).coeff_norm() < 1e-11
    for j in range(1, 5):
        term = fam.term(j)
        assert term.is_real()
        leak = term.map_values(lambda c: sol.commutant_part(pair.J1, c)).coeff_norm()
        assert leak < 1e-12 * max(1.0, term.coeff_norm())


# ---------------------------------------------------------------------------
# one order of the induction


def test_order_residual_corner_structure(pair, bfield_family):
    support = sol.support_closure([bfield_family], 3, 4)
    bg = gh.TorusBackground(pair, support, None)
    psi0 = pair.canonical_generator(2)
    data = sol.order_residual(1, bfield_family, None, bg, psi0)
    assert data.rho_norm > 1e-3
    assert data.outside_norm < 1e-12
    assert all(v < 1e-12 for v in data.component_closed.values())
    assert data.cross_sum < 1e-12
    # all four corner components are genuinely populated for this family
    n = pair.n
    norms = {key: bg.norm(f) for key, f in data.components.items()}
    assert norms[(1, n - 1)] > 1e-4 and norms[(-1, n - 1)] > 1e-4


def test_order_residual_rejects_missing_lower_orders(pair, bfield_family):
    support = sol.support_closure([bfield_family], 3, 4)
    bg = gh.TorusBackground(pair, support, None)
    psi0 = pair.canonical_generator(2)
    with pytest.raises(ValueError, match="below order"):
        sol.order_residual(2, bfield_family, None, bg, psi0)


def test_solve_phi_routes_agree_and_reproduce(pair, bfield_family):
    support = sol.support_closure([bfield_family], 3, 4)
    bg = gh.TorusBackground(pair, support, None)
    psi0 = pair.canonical_generator(2)
    data = sol.order_residual(1, bfield_family, None, bg, psi0)
    phi, info = sol.solve_phi(data, bg)
    assert info["phi_agreement"] < 1e-12
    assert info["phi_exactness"] < 1e-12
    assert info["phi_off_grade"] < 1e-12
    assert bg.norm(gf.twisted_derivative(phi, None) - data.rho) < 1e-12


def test_beta_from_phi_roundtrip_and_errors(pair):
    rng = np.random.default_rng(9)
    psi0 = pair.canonical_generator(2)
    basis, spins = sol._beta_basis(pair)
    coeff = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    phi = gf.FourierField(4, 16)
    phi.coeffs[(1, 0, 0, 0)] = np.tensordot(coeff, np.stack([S @ psi0 for S in spins]), axes=(0, 0))
    beta = sol.beta_from_phi(phi, psi0, pair)
    want = np.tensordot(coeff, np.stack(basis), axes=(0, 0))
    np.testing.assert_allclose(beta[(1, 0, 0, 0)], want, atol=1e-12)

    with pytest.raises(ValueError, match="not in the correction range"):
        sol.beta_from_phi(gf.FourierField.constant(4, psi0), psi0, pair)
    with pytest.raises(ValueError, match="constant"):
        sol.beta_from_phi(phi, phi, pair)


# ---------------------------------------------------------------------------
# full runs


def test_constant_poisson_needs_no_correction(pair):
    fam = sol.SeriesSoField.linear(4, holomorphic_bivector_exponent(pair))
    report = sol.run_deformation(fam, pair, order_cap=4)
    assert all(not beta.coeffs for beta in report.betas)
    assert report.residual_norms == [0.0] * 5
    check = sol.verify_gk_at_t(report, 0.05, count=6, seed=2)
    assert check["derivative_sup"] == 0.0
    assert check["metric_positive"]


def test_bfield_run_compensates_every_order(pair, bfield_report):
    report = bfield_report
    assert report.ok
    assert len(report.support) == 25
    assert report.rho_norms[0] > 1e-2
    assert all(norm > 0 for norm in report.beta_norms)
    for j in range(1, 4):
        assert report.residual_norms[j] < 1e-12 * report.psi_norm
    for info in report.phi_info:
        assert info["phi_agreement"] < 1e-12
    for term_norms in (report.outside_norms, report.cross_sums, report.grading_defects):
        assert max(term_norms) < 1e-12
    # the compensating family is real and stabilizes the first structure
    for j in range(1, 4):
        term = report.b.term(j)
        assert term.is_real(1e-11)
        leak = term.map_values(lambda c: sol.anticommutant_part(pair.J1, c)).coeff_norm()
        assert leak < 1e-10 * max(1.0, term.coeff_norm())


def test_report_dict_is_json_friendly(bfield_report):
    import json

    blob = bfield_report.as_dict()
    assert blob["ok"] and blob["order_cap"] == 3
    assert len(blob["orders"]) == 3
    assert "wall" not in json.dumps(blob)
    json.dumps(blob)


def test_conjugated_route_matches_direct(pair, bfield_family, bfield_report):
    """Independent conjugated expansion gives the same order-2 obstruction."""
    support = bfield_report.support
    bg = gh.TorusBackground(pair, support, None)
    b_low = bfield_report.b.truncate(1)
    data = sol.order_residual(2, bfield_family, b_low, bg, bfield_report.psi0)
    other = sol.conjugated_residual_series(bfield_family, b_low, bfield_report.psi0, None, 2)
    assert bg.norm(other.term(2) - data.rho) < 1e-12
    assert other.term(1).coeff_norm() < 1e-12


def test_gauge_precomposition_changes_corrections_not_success(pair, bfield_family, bfield_report):
    rng = np.random.default_rng(14)
    gauge_term = gf.FourierOperatorField.constant(4, 0.2 * sol.commutant_part(pair.J1, cl.random_so_element(rng, 4)))
    symmetric_mode(gauge_term, (0, 0, 1, 0), 0.25 * sol.commutant_part(pair.J1, cl.random_so_element(rng, 4)))
    gauge = sol.SeriesSoField(4, [None, gauge_term])

    report = sol.run_deformation([bfield_family, gauge], pair, order_cap=3)
    assert report.ok
    assert (report.betas[0] - bfield_report.betas[0]).coeff_norm() > 1e-2
    check = sol.verify_gk_at_t(report, 1e-2, count=6, seed=4)
    assert check["metric_positive"]
    assert check["structure_residual"] < 1e-12


def test_verification_scales_with_the_order_cap(pair, bfield_report):
    at_zero = sol.verify_gk_at_t(bfield_report, 0.0, count=4, seed=1)
    assert at_zero["derivative_sup"] == 0.0
    assert at_zero["metric_min_eig"] == pytest.approx(0.5, abs=1e-12)

    v1 = sol.verify_gk_at_t(bfield_report, 2e-2, count=10, seed=3)
    v2 = sol.verify_gk_at_t(bfield_report, 1e-2, count=10, seed=3)
    assert v1["metric_positive"] and v2["metric_positive"]
    assert v1["structure_residual"] < 1e-12
    assert v1["stabilizer_defect"] < 1e-12
    # order cap 3: halving the parameter divides the defect by about 2^4
    ratio = v1["derivative_sup"] / v2["derivative_sup"]
    assert 12.0 < ratio < 20.0


def test_run_deformation_t8():
    """North-star size: flat Kahler T^8, one exact-b-field family whose
    one-form sits at e_0 and e_1 + e_2 (the acceptance shape), order cap 1."""
    pair8 = gs.standard_kahler_pair(8)
    xi = gf.FourierField(8, 8)
    symmetric_mode(xi, (1,) + (0,) * 7, 0.5 * np.array([0.0, 0.3, -0.2, 0.1, 0.0, 0.2, 0.0, -0.1]))
    symmetric_mode(xi, (0, 1, 1) + (0,) * 5, 0.5j * np.array([0.15, 0.0, 0.1, -0.25, 0.1, 0.0, -0.05, 0.0]))
    C = gf.one_form_differential(xi).map_values(cl.two_form_so)
    target = sol.conjugated_structure_series(C, pair8.J1, 1)
    family = sol.extract_transverse_family(pair8.J1, target, 1)
    tol_order = 1e-9
    report = sol.run_deformation(family, pair8, order_cap=1, tol_order=tol_order)
    assert report.ok
    assert len(report.support) == 5
    assert report.rho_norms[0] > 1e-3
    assert all(r <= tol_order * report.psi_norm for r in report.residual_norms)
