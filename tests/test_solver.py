"""Order-by-order deformation solver: series algebra, per-order solves,
input-family preconditions and finite-parameter verification."""

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import genkahler.clifford as cl
import genkahler.fields as gf
import genkahler.hodge as gh
import genkahler.solver as sol
import genkahler.structures as gs
from oracles import conjugated_residual_series, field_values, is_real, series_jet, set_support_closure


def symmetric_mode(field_like, k, value):
    """Add value * exp(i<k,x>) plus its mirror so the field stays real."""
    field_like.coeffs[k] = field_like.coeffs.get(k, 0) + np.asarray(value, dtype=complex)
    mk = tuple(-v for v in k)
    field_like.coeffs[mk] = field_like.coeffs.get(mk, 0) + np.asarray(value, dtype=complex).conj()


def two_frequency_one_form():
    xi = gf.FourierField(4, 4)
    symmetric_mode(xi, (1, 0, 0, 0), 0.5 * np.array([0.0, 0.3, -0.2, 0.1]))
    symmetric_mode(xi, (0, 1, 1, 0), 0.5j * np.array([0.15, 0.0, 0.1, -0.25]))
    assert is_real(xi)
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


def gauge_family(pair, rng):
    """Stabilizer-valued family: a constant and a modulated commutant term."""
    gauge_term = gf.FourierOperatorField.constant(4, 0.2 * sol.commutant_part(pair.J1, cl.random_so_element(rng, 4)))
    symmetric_mode(gauge_term, (0, 0, 1, 0), 0.25 * sol.commutant_part(pair.J1, cl.random_so_element(rng, 4)))
    return sol.SeriesSoField(4, [None, gauge_term])


def exact_bfield_family(m, order_cap, coeff_a, coeff_b, pair):
    """Transverse family of the one-form with a cosine mode at e_0 and a sine
    mode at e_1 + e_2 on ``pair``."""
    xi = gf.FourierField(m, m)
    symmetric_mode(xi, (1,) + (0,) * (m - 1), 0.5 * np.asarray(coeff_a))
    symmetric_mode(xi, (0, 1, 1) + (0,) * (m - 3), 0.5j * np.asarray(coeff_b))
    C = gf.one_form_differential(xi).map_values(cl.two_form_so)
    target = sol.conjugated_structure_series(C, pair.J1, order_cap)
    return sol.extract_transverse_family(pair.J1, target, order_cap)


def exact_bfield_report(m, order_cap, coeff_a, coeff_b, extra=(), pair=None, **kw):
    """Run on ``pair`` (default the flat Kahler T^m) for ``exact_bfield_family``
    composed with ``extra`` factor families."""
    pair_m = gs.standard_kahler_pair(m) if pair is None else pair
    family = exact_bfield_family(m, order_cap, coeff_a, coeff_b, pair_m)
    return sol.run_deformation([family, *extra], pair_m, order_cap=order_cap, **kw)


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
    out = sol.series_exp_action(sol.SeriesSoField(4, [None]), None, psi0, 3)
    np.testing.assert_allclose(out[0][(0, 0, 0, 0)], psi0, atol=1e-15)
    assert all(out[j].coeff_norm() == 0.0 for j in range(1, 4))


def test_constant_exponent_matches_hand_expansion(pair):
    rng = np.random.default_rng(11)
    alpha = 0.3 * cl.random_so_element(rng, 4)
    psi0 = pair.canonical_generator(2)
    out = sol.series_exp_action(sol.SeriesSoField.linear(4, alpha), None, psi0, 2)
    S = cl.spin_lie_action(alpha)
    zero = (0, 0, 0, 0)
    np.testing.assert_allclose(out[1][zero], S @ psi0, atol=1e-13)
    np.testing.assert_allclose(out[2][zero], 0.5 * S @ S @ psi0, atol=1e-13)


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
    pts = gf.uniform_points(3, 5, 4)
    va, vb = A.jet(t, pts)[0], B.jet(t, pts)[0]
    exact = np.stack(
        [
            scipy.linalg.expm(cl.spin_lie_action(va[p]))
            @ scipy.linalg.expm(cl.spin_lie_action(vb[p]))
            @ psi0
            for p in range(len(pts))
        ]
    )
    summed = sum(t**j * field_values(term, pts) for j, term in enumerate(series))
    assert np.abs(summed - exact).max() < 1e-9


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
    np.testing.assert_allclose(out[2][(0, 0, 0, 0)], want, atol=1e-13)
    # the reversed composition differs when the exponents do not commute
    flipped = sol.series_exp_action([famB, famA], None, psi0, 2)
    assert (flipped[2] - out[2]).coeff_norm() > 1e-3


def test_series_family_validation():
    rng = np.random.default_rng(1)
    alpha = cl.random_so_element(rng, 4)
    with pytest.raises(ValueError, match="does not vanish at t = 0"):
        sol.SeriesSoField(4, [alpha])
    with pytest.raises(ValueError, match=r"order-1 coefficient at \(0, 0, 0, 0\) is not in so\(m,m\)"):
        sol.SeriesSoField(4, [None, np.eye(8)])
    with pytest.raises(ValueError, match="order-1 term is not a real field"):
        sol.SeriesSoField(4, [None, 1j * alpha])
    fam = sol.SeriesSoField(4, [None, alpha, 0.5 * alpha])
    assert fam.order_cap == 2
    assert fam.truncate(1).term(2).coeff_norm() == 0.0


def test_series_family_round_trips_its_terms():
    """``term(j)`` gives back the dict input, an explicitly listed zero
    coefficient included, and that coefficient still counts toward the
    frequency support."""
    rng = np.random.default_rng(5)
    field = gf.FourierOperatorField(4, 8)
    symmetric_mode(field, (1, 0, 0, 0), 0.3 * cl.random_so_element(rng, 4))
    zero = (0, 0, 1, 0)
    field.coeffs[zero] = np.zeros((8, 8), dtype=complex)
    field.coeffs[(0, 0, -1, 0)] = np.zeros((8, 8), dtype=complex)
    fam = sol.SeriesSoField(4, [None, field, None])
    assert fam.order_cap == 2 and fam.stacks[2] is None
    got = fam.term(1)
    assert set(got.coeffs) == set(field.coeffs)
    for k, c in field.coeffs.items():
        np.testing.assert_array_equal(got.coeffs[k], c)
    assert not fam.term(2).coeffs and not fam.term(5).coeffs
    assert (1, zero) in fam.weighted_support()
    pairs = [(1, k) for k in field.coeffs]
    assert sol.support_closure(fam.weighted_support(), 3, 4) == sol.support_closure(pairs, 3, 4)
    assert len(sol.support_closure(fam.weighted_support(), 3, 4)) > len(sol.support_closure(pairs[:2], 3, 4))


def test_series_family_evaluation_matches_per_frequency_sums():
    """``jet``'s values and gradients against a loop over the frequencies
    of every order."""
    rng = np.random.default_rng(6)
    e = np.eye(4, dtype=int)
    fam = random_family(rng, 4, [(1, tuple(e[0])), (1, (0,) * 4), (2, tuple(e[1] + e[2])), (3, tuple(e[3] - e[0]))])
    t, points = 0.7, gf.uniform_points(6, 9, 4)
    want = np.zeros((9, 8, 8), dtype=complex)
    want_grad = np.zeros((4, 9, 8, 8), dtype=complex)
    for j in range(fam.order_cap + 1):
        for k, c in fam.term(j).coeffs.items():
            phase = t**j * np.exp(1j * points @ np.asarray(k, dtype=float))
            want += phase[:, None, None] * c
            for d in range(4):
                want_grad[d] += 1j * k[d] * phase[:, None, None] * c
    for got, ref in zip(fam.jet(t, points), (want, want_grad)):
        assert got.shape == ref.shape
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("m", [2, 4, 8])
def test_series_family_jet_matches_oracle(m):
    """``jet`` forms its gradient products one direction at a time; values
    and gradients match the all-directions products."""
    rng = np.random.default_rng(m)
    e = np.eye(m, dtype=int)
    fam = random_family(rng, m, [(1, tuple(e[0])), (1, (0,) * m), (2, tuple(e[1] - e[0])), (3, tuple(e[-1]))])
    t, points = 0.7, gf.uniform_points(m, 9, m)
    for got, want in zip(fam.jet(t, points), series_jet(fam, t, points)):
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def test_series_family_jet_memory_at_m8():
    """At m = 8 and 1,024 points one ``jet`` call peaks under 1.5 times its
    result (2.8 times with the gradient products of all directions at once)."""
    rng = np.random.default_rng(8)
    e = np.eye(8, dtype=int)
    fam = random_family(rng, 8, [(1, tuple(e[0])), (2, tuple(e[1] + e[2]))])
    points = gf.uniform_points(0, 1024, 8)
    fam.jet(0.1, points[:2])
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        values, grads = fam.jet(0.1, points)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    size = values.nbytes + grads.nbytes
    assert peak < 1.5 * size, f"jet peaked at {peak / 1e6:.1f} MB for a {size / 1e6:.1f} MB result"


def test_support_closure_counts():
    base = [(1, (1, 0, 0, 0)), (1, (-1, 0, 0, 0)), (1, (0, 1, 0, 0)), (1, (0, -1, 0, 0))]
    assert len(sol.support_closure(base, 4, 4)) == 41
    # order-2 sources can only be used twice within a cap of 4
    axis = sol.support_closure([(2, (1, 0, 0, 0)), (2, (-1, 0, 0, 0))], 4, 4)
    assert axis == tuple((k, 0, 0, 0) for k in range(-2, 3))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_support_closure_matches_enumeration(data):
    """The closure is the set of sums over step multisets of total weight at
    most the cap, steps of weight 0 left out."""
    m = data.draw(st.integers(1, 3))
    cap = data.draw(st.integers(0, 4))
    frequency = st.tuples(*[st.integers(-2, 2)] * m)
    steps = data.draw(st.lists(st.tuples(st.integers(0, cap + 1), frequency), max_size=4))
    usable = [(w, k) for w, k in steps if w >= 1]
    want = set()
    for size in range(cap + 1):
        for combo in itertools.combinations_with_replacement(usable, size):
            if sum(w for w, _ in combo) <= cap:
                want.add(tuple(int(sum(c)) for c in zip((0,) * m, *(k for _, k in combo))))
    assert sol.support_closure(steps, cap, m) == tuple(sorted(want)) == set_support_closure(steps, cap, m)


@pytest.mark.parametrize("m", range(1, 9))
def test_support_closure_matches_set_oracle(m):
    """The sorted-row closure against the set recursion up to the largest
    order cap, with steps of weight 0 and above the cap among random ones."""
    rng = np.random.default_rng(m)
    for cap in (1, 4, sol.MAX_ORDER):
        weights = [0, cap + 1, *rng.integers(1, cap + 1, size=3)]
        steps = [(w, tuple(rng.integers(-3, 4, size=m).tolist())) for w in weights]
        assert sol.support_closure(steps, cap, m) == set_support_closure(steps, cap, m)


def test_support_closure_rejects_sums_outside_int64():
    """A sum that leaves int64 raises instead of wrapping; one that reaches
    the end of the range exactly is kept."""
    for steps, cap in (([(1, (2**62, 0))], 2), ([(1, (0, -(2**62) - 1))], 2), ([(1, (2**63, 0))], 1)):
        with pytest.raises(ValueError, match="int64"):
            sol.support_closure(steps, cap, 2)
    assert sol.support_closure([(1, (-(2**62),))], 2, 1) == ((-(2**63),), (-(2**62),), (0,))


# ---------------------------------------------------------------------------
# preconditions on the input family


def test_defects_flag_modulated_bivector(pair):
    """A cosine-modulated bivector breaks integrability; a constant one does not."""
    biv = holomorphic_bivector_exponent(pair)
    mod = gf.FourierOperatorField(4, 8)
    symmetric_mode(mod, (0, 0, 1, 0), 0.5 * biv)
    bad = sol.SeriesSoField(4, [None, mod])
    defects = sol.first_structure_defects(bad, pair, 2)
    assert defects[0] < 1e-14 and defects[1] > 0.5

    good = sol.SeriesSoField.linear(4, biv)
    assert max(sol.first_structure_defects(good, pair, 2)) < 1e-14

    with pytest.raises(sol.IntegrabilityError) as err:
        sol.run_deformation(bad, pair, order_cap=2)
    assert err.value.order == 1


def test_defect_check_does_not_scale_with_the_seed(pair):
    """The defects measure the first structure's generator: a large seed
    must not loosen the check."""
    mod = gf.FourierOperatorField(4, 8)
    symmetric_mode(mod, (0, 0, 1, 0), 1e-6 * holomorphic_bivector_exponent(pair))
    bad = sol.SeriesSoField(4, [None, mod])
    assert 1e-7 < sol.first_structure_defects(bad, pair, 2)[1] < 1e-5
    with pytest.raises(sol.IntegrabilityError) as err:
        sol.run_deformation(bad, pair, order_cap=2, psi=1e6 * pair.canonical_generator(2))
    assert err.value.order == 1


def test_run_rejects_bad_inputs(pair, bfield_family):
    with pytest.raises(ValueError):
        sol.run_deformation(bfield_family, pair, order_cap=9)
    with pytest.raises(ValueError):
        sol.run_deformation([], pair, order_cap=2)


# ---------------------------------------------------------------------------
# the extracted transverse family


def test_checks_fail_on_non_finite_values(pair, bfield_family):
    J = pair.J1
    bad = gf.FourierOperatorField(4, 8, {(1, 0, 0, 0): np.full((8, 8), np.nan)})
    with pytest.raises(ValueError, match="not finite"):
        sol.extract_transverse_family(J, [gf.FourierOperatorField.constant(4, J), bad], 1)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
        sol.run_deformation(bfield_family, pair, order_cap=1, psi=1e300 * pair.canonical_generator(2))
    assert sol._exceeds(float("nan"), 1.0) and sol._exceeds(1.0, float("nan"))
    assert not sol._exceeds(1.0, 1.0)


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
        assert is_real(term)
        leak = term.map_values(lambda c: sol.commutant_part(pair.J1, c)).coeff_norm()
        assert leak < 1e-12 * max(1.0, term.coeff_norm())


# ---------------------------------------------------------------------------
# one order of the induction


def test_order_residual_corner_structure(pair, bfield_family):
    support = sol.support_closure(bfield_family.weighted_support(), 3, 4)
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
    support = sol.support_closure(bfield_family.weighted_support(), 3, 4)
    bg = gh.TorusBackground(pair, support, None)
    psi0 = pair.canonical_generator(2)
    with pytest.raises(ValueError, match="below order"):
        sol.order_residual(2, bfield_family, None, bg, psi0)


def test_solve_phi_routes_agree_and_reproduce(pair, bfield_family):
    support = sol.support_closure(bfield_family.weighted_support(), 3, 4)
    bg = gh.TorusBackground(pair, support, None)
    psi0 = pair.canonical_generator(2)
    data = sol.order_residual(1, bfield_family, None, bg, psi0)
    phi, info = sol.solve_phi(data, bg)
    assert info["phi_agreement"] < 1e-12
    assert info["phi_exactness"] < 1e-12
    assert info["phi_off_grade"] < 1e-12
    assert bg.norm(bg.support.pack(gf.twisted_derivative(phi, None)) - data.rho) < 1e-12


def test_beta_from_phi_roundtrip_and_errors(pair):
    rng = np.random.default_rng(9)
    psi0 = pair.canonical_generator(2)
    basis = sol._beta_basis(pair)
    coeff = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    images = np.stack([cl.spin_lie_action(alpha) @ psi0 for alpha in basis])
    phi = gf.FourierField(4, 16)
    phi.coeffs[(1, 0, 0, 0)] = np.tensordot(coeff, images, axes=(0, 0))
    system = sol.CorrectionSystem(psi0, pair)
    beta = sol.beta_from_phi(phi, system)
    want = np.tensordot(coeff, basis, axes=(0, 0))
    np.testing.assert_allclose(beta[(1, 0, 0, 0)], want, atol=1e-12)

    with pytest.raises(ValueError, match="not in the correction range"):
        sol.beta_from_phi(gf.FourierField.constant(4, psi0), system)
    with pytest.raises(ValueError, match="constant"):
        sol.CorrectionSystem(phi, pair)


# ---------------------------------------------------------------------------
# full runs


def test_grading_check_scales_with_a_small_seed(pair, bfield_family, bfield_report, monkeypatch):
    """A correction leaking 1e-12 outside the middle component is caught at
    its own order for a seed of norm 2e-4, not let through by a floor of 1."""
    seed = (2e-4 / bfield_report.psi_norm) * pair.canonical_generator(2)
    alpha = cl.random_so_element(np.random.default_rng(3), 4)
    exact = sol.beta_from_phi

    def leaky(phi, system, **kw):
        leak = gf.FourierOperatorField(4, 8)
        symmetric_mode(leak, (1, 0, 0, 0), 2.5e-9 * alpha)
        return exact(phi, system, **kw) + leak

    monkeypatch.setattr(sol, "beta_from_phi", leaky)
    with pytest.raises(ValueError, match="acts outside the middle component"):
        sol.run_deformation(bfield_family, pair, order_cap=3, psi=seed)


@pytest.mark.parametrize("m", [4, 6, 8])
@pytest.mark.parametrize("kind", ["flat", "random"])
def test_conjugate_correction_annihilates_the_seed(m, kind):
    """conj(beta) lies in V_-^{0,1} (x) V_+^{1,0} and kills the seed, so the
    real term beta + conj(beta) acts on it as beta does."""
    rng = np.random.default_rng(40 + m)
    pair = gs.standard_kahler_pair(m) if kind == "flat" else gs.random_hermitian_pair(rng, m)
    basis = sol._beta_basis(pair)
    beta = np.tensordot(rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis)), basis, axes=1)
    psi = pair.canonical_generator(2)
    acted = np.linalg.norm(cl.spin_lie_action(beta) @ psi)
    assert acted > 0
    assert np.linalg.norm(cl.spin_lie_action(beta.conj()) @ psi) <= 1e-13 * acted


def test_report_b_holds_the_real_terms(bfield_report):
    assert bfield_report.b.order_cap == len(bfield_report.betas)
    for k, beta in enumerate(bfield_report.betas, start=1):
        want, got = beta + beta.conj(), bfield_report.b.term(k).coeffs
        assert set(got) == set(want.coeffs)
        for p, c in want.coeffs.items():
            np.testing.assert_array_equal(got[p], c)


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
    assert len(report.support) == 25
    assert [rec["order"] for rec in report.orders] == [1, 2, 3]
    assert report.orders[0]["rho_norm"] > 1e-2
    assert all(rec["beta_norm"] > 0 for rec in report.orders)
    for j in range(1, 4):
        assert report.residual_norms[j] < 1e-12 * report.psi_norm
    for rec in report.orders:
        assert rec["phi_agreement"] < 1e-12
        assert max(rec["outside_norm"], rec["cross_sum"], rec["grading_defect"]) < 1e-12
    # the compensating family is real and stabilizes the first structure
    for j in range(1, 4):
        term = report.b.term(j)
        assert is_real(term, 1e-11)
        # the part anticommuting with J1
        leak = term.map_values(lambda c: 0.5 * (c + pair.J1 @ c @ pair.J1)).coeff_norm()
        assert leak < 1e-10 * max(1.0, term.coeff_norm())


def test_report_dict_is_json_friendly(bfield_report):
    import json

    blob = bfield_report.as_dict()
    assert blob["ok"] and blob["order_cap"] == 3
    assert len(blob["orders"]) == 3
    for rec, entry in zip(bfield_report.orders, blob["orders"]):
        assert entry == {**rec, "residual_norm": bfield_report.residual_norms[rec["order"]]}
    assert "wall" not in json.dumps(blob)
    json.dumps(blob)


def test_conjugated_route_matches_direct(pair, bfield_family, bfield_report):
    """Independent conjugated expansion gives the same order-2 obstruction."""
    support = bfield_report.support
    bg = gh.TorusBackground(pair, support, None)
    b_low = bfield_report.b.truncate(1)
    data = sol.order_residual(2, bfield_family, b_low, bg, bfield_report.psi0)
    other = conjugated_residual_series(bfield_family, b_low, bfield_report.psi0, 2)
    assert bg.norm(bg.support.pack(other[2]) - data.rho) < 1e-12
    assert other[1].coeff_norm() < 1e-12


# ---------------------------------------------------------------------------
# the series exponential against the operator-series route


def family_terms(family, order_cap=None):
    """A family's coefficients up to the cap (default its own), as operator fields."""
    return [family.term(j) for j in range((family.order_cap if order_cap is None else order_cap) + 1)]


def spin_terms(family):
    """Per-order spin images of a family's coefficients, as operator fields."""
    n = cl.spinor_dim(family.torus_dim)
    return [
        t.map_values(cl.spin_lie_action) if t.coeffs else gf.FourierOperatorField(family.torus_dim, n)
        for t in family_terms(family)
    ]


def _op_series_mul(A, B, order_cap):
    torus_dim, dim = A[0].torus_dim, A[0].value_dim
    out = [gf.FourierOperatorField(torus_dim, dim) for _ in range(order_cap + 1)]
    for i, Ai in enumerate(A[: order_cap + 1]):
        if not Ai.coeffs:
            continue
        for j in range(order_cap + 1 - i):
            if j < len(B) and B[j].coeffs:
                out[i + j] = out[i + j] + Ai @ B[j]
    return out


def _op_series_exp(X, order_cap):
    """Exponential of an operator series with X[0] = 0, truncated at the cap."""
    torus_dim, dim = X[0].torus_dim, X[0].value_dim
    out = [gf.FourierOperatorField(torus_dim, dim) for _ in range(order_cap + 1)]
    out[0] = gf.FourierOperatorField.constant(torus_dim, np.eye(dim))
    term = list(out)
    for j in range(1, order_cap + 1):
        term = [(1.0 / j) * f for f in _op_series_mul(term, X, order_cap)]
        if all(not f.coeffs for f in term):
            break
        out = [a + b for a, b in zip(out, term)]
    return out


def _op_series_product(factors, order_cap, *, spin, invert=False):
    """Operator series of ``exp(f_1) ... exp(f_F)``, or of its inverse, on
    spinors (``spin``) or on the doubled bundle."""
    m = factors[0].torus_dim
    dim = cl.spinor_dim(m) if spin else 2 * m
    out = [gf.FourierOperatorField(m, dim) for _ in range(order_cap + 1)]
    out[0] = gf.FourierOperatorField.constant(m, np.eye(dim))
    for f in reversed(factors) if invert else factors:
        X = spin_terms(f) if spin else family_terms(f, order_cap)
        out = _op_series_mul(out, _op_series_exp([-1.0 * x for x in X] if invert else X, order_cap), order_cap)
    return out


def _oracle_conjugated_residual(factors, psi, order_cap):
    m = factors[0].torus_dim
    seed = gf.FourierField.constant(m, psi)
    E = _op_series_product(factors, order_cap, spin=True)
    Einv = _op_series_product(factors, order_cap, spin=True, invert=True)
    dmoved = [gf.twisted_derivative(op.act(seed)) for op in E]
    out = []
    for k in range(order_cap + 1):
        acc = gf.FourierField(m, seed.value_dim)
        for i in range(k + 1):
            if Einv[i].coeffs and dmoved[k - i].coeffs:
                acc = acc + Einv[i].act(dmoved[k - i])
        out.append(acc)
    return out


def _oracle_structure_series(factors, J, order_cap):
    m = factors[0].torus_dim
    E = _op_series_product(factors, order_cap, spin=False)
    Einv = _op_series_product(factors, order_cap, spin=False, invert=True)
    J0 = gf.FourierOperatorField.constant(m, np.asarray(J, dtype=complex))
    out = []
    for k in range(order_cap + 1):
        acc = gf.FourierOperatorField(m, 2 * m)
        for i in range(k + 1):
            if E[i].coeffs and Einv[k - i].coeffs:
                acc = acc + E[i] @ J0 @ Einv[k - i]
        out.append(acc)
    return out


def random_family(rng, m, modes):
    """Real so-valued family with one random mode per ``(order, frequency)``."""
    terms = [None] + [gf.FourierOperatorField(m, 2 * m) for _ in range(max(j for j, _ in modes))]
    for j, k in modes:
        symmetric_mode(terms[j], k, 0.3 * cl.random_so_element(rng, m))
    return sol.SeriesSoField(m, terms)


@pytest.fixture(scope="module", params=[(4, 4), (6, 3)], ids=["m4-k4", "m6-k3"])
def oracle_case(request):
    """Two ``a`` factors and a ``b`` on the flat Kahler T^m, order cap K."""
    m, K = request.param
    rng = np.random.default_rng(10 * m + K)
    e = np.eye(m, dtype=int)
    a1 = random_family(rng, m, [(1, tuple(e[0])), (2, tuple(e[1] + e[2]))])
    a2 = random_family(rng, m, [(1, tuple(e[1])), (1, tuple(e[3] - e[0]))])
    b = random_family(rng, m, [(1, tuple(e[2])), (2, (0,) * m)])
    return gs.standard_kahler_pair(m), [a1, a2], b, K


def assert_series_close(got, want):
    """Per order, within 1e-13 of the coefficient norm of the oracle."""
    assert len(got) == len(want)
    for j, (g, w) in enumerate(zip(got, want)):
        assert (g - w).coeff_norm() <= 1e-13 * w.coeff_norm(), j


def test_series_exp_action_matches_operator_route(oracle_case):
    pair, a, b, K = oracle_case
    psi0 = pair.canonical_generator(2)
    seed = gf.FourierField.constant(pair.m, psi0)
    want = [op.act(seed) for op in _op_series_product(a + [b], K, spin=True)]
    assert all(w.coeff_norm() > 1e-3 for w in want)
    assert_series_close(sol.series_exp_action(a, b, psi0, K), want)


def test_conjugated_residual_series_matches_operator_route(oracle_case):
    pair, a, b, K = oracle_case
    psi0 = pair.canonical_generator(2)
    want = _oracle_conjugated_residual(a + [b], psi0, K)
    assert all(w.coeff_norm() > 1e-3 for w in want[1:])
    assert_series_close(conjugated_residual_series(a, b, psi0, K), want)


def test_first_structure_defects_match_operator_route(oracle_case):
    pair, a, _, K = oracle_case
    P_good = pair.proj1[pair.n - 1]
    got = sol.first_structure_defects(a, pair, K)
    assert len(got) == K + 1
    for j, q in enumerate(_oracle_conjugated_residual(a, pair.canonical_generator(1), K)):
        want = q.map_values(lambda v: v - P_good @ v).coeff_norm()
        assert abs(got[j] - want) <= 1e-13 * q.coeff_norm(), j
        assert j == 0 or want > 1e-3


def test_structure_series_match_operator_route(oracle_case):
    pair, a, b, K = oracle_case
    want = _oracle_structure_series(a + [b], pair.J1, K)
    assert all(w.coeff_norm() > 1e-3 for w in want)
    assert_series_close(sol.structure_series_of_family(a + [b], pair.J1, K), want)

    C = a[0].term(1) + b.term(2)
    want = _oracle_structure_series([sol.SeriesSoField.linear(pair.m, C)], pair.J2, K)
    assert all(w.coeff_norm() > 1e-3 for w in want)
    assert_series_close(sol.conjugated_structure_series(C, pair.J2, K), want)


def test_gauge_precomposition_changes_corrections_not_success(pair, bfield_family, bfield_report):
    gauge = gauge_family(pair, np.random.default_rng(14))
    report = sol.run_deformation([bfield_family, gauge], pair, order_cap=3)
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


# ---------------------------------------------------------------------------
# finite-t verification against the per-point dense exponential route


def _oracle_verify_gk_at_t(report, t, *, count=16, seed=0):
    """Per point: dense exponentials, inverses and one Frechet derivative
    ``expm_frechet(spin(alpha_f), spin(d_d alpha_f))`` per family and direction."""
    pair = report.pair
    m = pair.m
    dim = cl.spinor_dim(m)
    points = gf.uniform_points(seed, count, m)
    families = list(report.factors) + [report.b]
    vals, grads = zip(*(f.jet(t, points) for f in families))
    W = cl.wedge_matrices(m)
    P = cl.pairing_matrix(m)
    psi0 = report.psi0[(0,) * m]
    eye = np.eye(2 * m)
    out = dict.fromkeys(
        ("structure_residual", "commutation", "involution", "stabilizer_defect", "derivative_sup", "psi_sup"), 0.0
    )
    min_eig = np.inf

    def product(mats, size):
        acc = np.eye(size, dtype=complex)
        for mat in mats:
            acc = acc @ mat
        return acc

    for p in range(len(points)):
        exps = [scipy.linalg.expm(v[p]) for v in vals]
        E = product(exps, 2 * m)
        E_no_b = product(exps[:-1], 2 * m)
        J1t = (E @ pair.J1 @ np.linalg.inv(E)).real
        J2t = (E @ pair.J2 @ np.linalg.inv(E)).real
        J1_only_a = (E_no_b @ pair.J1 @ np.linalg.inv(E_no_b)).real
        Gt = -J1t @ J2t
        Msym = P @ Gt
        min_eig = min(min_eig, float(np.linalg.eigvalsh(0.5 * (Msym + Msym.T)).min()))
        worst = {
            "structure_residual": max(
                np.linalg.norm(J1t @ J1t + eye), np.linalg.norm(J2t @ J2t + eye), cl.so_residual(J1t), cl.so_residual(J2t)
            ),
            "commutation": np.linalg.norm(J1t @ J2t - J2t @ J1t),
            "involution": np.linalg.norm(Gt @ Gt - eye),
            "stabilizer_defect": np.linalg.norm(J1t - J1_only_a),
        }

        spins = [cl.spin_lie_action(v[p]) for v in vals]
        spin_exps = [scipy.linalg.expm(S) for S in spins]
        psi_t = product(spin_exps, dim) @ psi0
        dpsi = np.zeros(dim, dtype=complex)
        for d in range(m):
            for f in range(len(families)):
                frech = scipy.linalg.expm_frechet(spins[f], cl.spin_lie_action(grads[f][d][p]), compute_expm=False)
                left, right = product(spin_exps[:f], dim), product(spin_exps[f + 1 :], dim)
                dpsi = dpsi + W[d] @ (left @ frech @ right @ psi0)
        worst["psi_sup"] = np.linalg.norm(psi_t)
        worst["derivative_sup"] = np.linalg.norm(dpsi)
        for key, value in worst.items():
            out[key] = max(out[key], float(value))
    return {
        "t": float(t),
        "points": count,
        **out,
        "metric_min_eig": min_eig,
        "metric_positive": bool(min_eig > 0),
    }


M4_COEFFS = ([0.0, 0.3, -0.2, 0.1], [0.15, 0.0, 0.1, -0.25])
M6_COEFFS = ([0.0, 0.3, -0.2, 0.1, 0.2, -0.1], [0.15, 0.0, 0.1, -0.25, 0.0, 0.1])


def two_factor_report():
    pair4 = gs.standard_kahler_pair(4)
    return exact_bfield_report(4, 3, *M4_COEFFS, extra=[gauge_family(pair4, np.random.default_rng(14))])


@pytest.mark.parametrize(
    "build, t, count",
    [
        (lambda: exact_bfield_report(4, 4, *M4_COEFFS), 1e-2, 8),
        (two_factor_report, 2e-2, 6),
        (lambda: exact_bfield_report(6, 3, *M6_COEFFS), 1e-1, 4),
    ],
    ids=["acceptance-m4-k4", "two-factors", "exact-bfield-m6-k3"],
)
def test_verification_matches_dense_exponential_route(build, t, count):
    report = build()
    for tt in (t, 0.5 * t):
        got = sol.verify_gk_at_t(report, tt, count=count, seed=0)
        want = _oracle_verify_gk_at_t(report, tt, count=count, seed=0)
        assert got.keys() == want.keys()
        assert (got["t"], got["points"], got["metric_positive"]) == (want["t"], want["points"], want["metric_positive"])
        for key in ("structure_residual", "commutation", "involution", "stabilizer_defect", "metric_min_eig"):
            assert abs(got[key] - want[key]) <= 1e-13, key
        assert abs(got["psi_sup"] - want["psi_sup"]) <= 1e-13 * want["psi_sup"]
        slack = 1e-6 * want["derivative_sup"] + 1e-14 * report.psi_norm
        assert abs(got["derivative_sup"] - want["derivative_sup"]) <= slack


@pytest.mark.parametrize("size", [0.01, 1.0, 20.0])
def test_exp_jet_matches_frechet_derivative(size):
    """The vector jet reproduces expm and expm_frechet of the densified
    weights; size 20 takes 20 steps."""
    rng = np.random.default_rng(int(100 * size))
    m = 3
    flips, n = 7, 16  # the flip masks of spinor dimension 16

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    W = cplx(1 + m, flips, n)
    dense = cl.spin_flip_dense(W)
    W[0] *= size / np.abs(dense[0]).sum(axis=0).max()
    W[1:] *= 0.5 * size / np.abs(dense[1:]).sum(axis=1).max()
    S, G = cl.spin_flip_dense(W[0]), cl.spin_flip_dense(W[1:])
    v, D = cplx(n), cplx(m, n)
    got_v, got_D = sol._exp_jet(W, v, D)
    E = scipy.linalg.expm(S)
    want_v = E @ v
    want_D = np.stack([E @ D[d] + scipy.linalg.expm_frechet(S, G[d], compute_expm=False) @ v for d in range(m)])
    assert np.linalg.norm(got_v - want_v) <= 1e-12 * np.linalg.norm(want_v)
    assert np.linalg.norm(got_D - want_D) <= 1e-12 * np.linalg.norm(want_D)


@pytest.mark.parametrize("m", [2, 4, 8])
def test_pairing_inverse_matches_linalg_inverse(m):
    """Exponentials of so(m,m) elements, stacked, are inverted by the pairing."""
    rng = np.random.default_rng(70 + m)
    E = np.stack([scipy.linalg.expm(cl.random_so_element(rng, m, scale=0.5)) for _ in range(3)]).astype(complex)
    np.testing.assert_allclose(sol._pairing_inverse(E), np.linalg.inv(E), rtol=1e-12, atol=1e-12)


def test_exp_jet_rejects_non_finite_exponent():
    W = np.zeros((2, 2, 4), dtype=complex)  # spinor dimension 4 has two flip masks
    W[0] = np.nan
    with pytest.raises(ValueError, match="finite exponent"):
        sol._exp_jet(W, np.ones(4, dtype=complex), np.zeros((1, 4), dtype=complex))


@pytest.mark.parametrize("m", [4, 6])
def test_run_deformation_on_a_non_kahler_background(m):
    """A random pair with a b-field and a Gram matrix far from orthonormal:
    every order closes and halving t divides the defect by about 2^4."""
    pair = gs.random_hermitian_pair(np.random.default_rng(0), m)
    gram = gh.l2_gram(pair)
    assert np.linalg.norm(pair.b_field) > 0.1
    assert np.linalg.norm(gram - np.eye(len(gram))) > 1.0
    report = exact_bfield_report(m, 3, *(M4_COEFFS if m == 4 else M6_COEFFS), pair=pair)
    assert report.orders[0]["rho_norm"] > 1e-3
    assert max(report.residual_norms) <= 1e-9 * report.psi_norm
    v1 = sol.verify_gk_at_t(report, 0.05, count=4, seed=0)
    v2 = sol.verify_gk_at_t(report, 0.025, count=4, seed=0)
    assert v1["metric_positive"] and v2["metric_positive"]
    assert 0.75 * 16 <= v1["derivative_sup"] / v2["derivative_sup"] <= 1.25 * 16


def test_verification_rejects_empty_samples(bfield_report):
    with pytest.raises(ValueError, match="at least one sample point"):
        sol.verify_gk_at_t(bfield_report, 1e-2, count=0)


T8_TOL_ORDER = 1e-9
T8_COEFFS = ([0.0, 0.3, -0.2, 0.1, 0.0, 0.2, 0.0, -0.1], [0.15, 0.0, 0.1, -0.25, 0.1, 0.0, -0.05, 0.0])


@pytest.fixture(scope="module")
def t8_report():
    """Flat Kahler T^8, one exact-b-field family whose one-form sits at e_0
    and e_1 + e_2 (the acceptance shape), order cap 1."""
    return exact_bfield_report(8, 1, *T8_COEFFS, tol_order=T8_TOL_ORDER)


def test_run_deformation_t8(t8_report):
    """North-star size: the T^8 solve closes every order up to its cap."""
    tol_order = T8_TOL_ORDER
    report = t8_report
    assert len(report.support) == 5
    assert report.orders[0]["rho_norm"] > 1e-3
    assert all(r <= tol_order * report.psi_norm for r in report.residual_norms)


def test_verification_at_t8(t8_report):
    """Order cap 1 at T^8: halving the parameter divides the defect by about 2^2."""
    v1 = sol.verify_gk_at_t(t8_report, 1e-2, count=2, seed=0)
    v2 = sol.verify_gk_at_t(t8_report, 5e-3, count=2, seed=0)
    assert v1["metric_positive"] and v2["metric_positive"]
    assert 3.0 <= v1["derivative_sup"] / v2["derivative_sup"] <= 5.0


def test_verification_at_t8_densifies_one_exponent_per_point_and_family(t8_report, monkeypatch):
    """The verifier makes only the exponent ``S`` of each point and family
    dense and applies the m gradients ``G_d`` as flip-mask gathers: its own
    peak stays under 5 MB (about 2.7 MB; 13.9 MB with m dense gradient
    images per point), and 16 points peak no higher than 2 plus twice the
    values and gradients of both families at the 14 extra points, since
    points are processed one at a time."""
    m = 8
    dense_shapes = []
    densify = sol.spin_flip_dense

    def record(weights):
        dense_shapes.append(weights.shape)
        return densify(weights)

    def refuse(*args):
        raise AssertionError("dense spin image built by the verifier")

    monkeypatch.setattr(sol, "spin_flip_dense", record)
    monkeypatch.setattr(cl, "spin_lie_action", refuse)
    sol.verify_gk_at_t(t8_report, 1e-2, count=2, seed=0)  # builds the cached tables
    peaks = {}
    for count in (2, 16):
        dense_shapes.clear()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            sol.verify_gk_at_t(t8_report, 1e-2, count=count, seed=0)
            peaks[count] = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # one S per point and family, each one flip-mask stack (F, 2**m)
        assert dense_shapes == [(29, 256)] * (2 * count)
    assert peaks[2] < 5e6, f"verification peaked {peaks[2] / 1e6:.1f} MB above its start"
    samples = 2 * 14 * 2 * (m + 1) * (2 * m) ** 2 * 16
    assert peaks[16] <= peaks[2] + samples, f"{peaks[16] / 1e6:.2f} MB at 16 points, {peaks[2] / 1e6:.2f} MB at 2"


def test_run_deformation_t8_order4():
    """T^8 at order cap 4, the exact-b-field family shape of the benchmark
    verified at t = 0.1: halving the parameter divides the defect by about
    2^5, inside the band of acceptance test 7."""
    report = exact_bfield_report(8, 4, *T8_COEFFS)
    assert len(report.support) == 41
    assert max(report.residual_norms) <= 1e-12 * report.psi_norm
    v1 = sol.verify_gk_at_t(report, 0.1, count=2, seed=0)
    v2 = sol.verify_gk_at_t(report, 0.05, count=2, seed=0)
    assert v1["metric_positive"] and v2["metric_positive"]
    assert 24.0 <= v1["derivative_sup"] / v2["derivative_sup"] <= 40.0


def test_run_deformation_t8_builds_no_per_frequency_blocks(monkeypatch):
    """The deform path applies every operator by ladder gathers and every
    grading projector through the pair's word basis: with ``BlockOperator``
    construction made to raise and the dense wedge ladder cache emptied,
    T^8 at order cap 2 (the benchmark's deform-m8-k2 shape) builds its pair,
    solves and verifies, leaves that cache empty, forms none of the pair's
    dense projectors and allocates under 35 MB above its start in all
    (about 26 MB; 70 MB with 43 dense projectors held by the pair)."""

    def refuse(self, *args):
        raise AssertionError("block operator built on the deform path")

    monkeypatch.setattr(gh.BlockOperator, "__init__", refuse)
    cl.wedge_matrices.cache_clear()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        pair = gs.standard_kahler_pair(8)
        family = exact_bfield_family(8, 2, *T8_COEFFS, pair)
        report = sol.run_deformation([family], pair, order_cap=2)
        sol.verify_gk_at_t(report, 0.01, count=2)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(report.support) == 13
    assert max(report.residual_norms) <= 1e-12 * report.psi_norm
    assert cl.wedge_matrices.cache_info().currsize == 0
    assert peak < 35e6, f"pair, solve and verification peaked {peak / 1e6:.1f} MB above their start"
    assert not {"bigrading", "proj1", "proj2"} & set(vars(pair))
    with pytest.raises(AssertionError):
        gh.component_operator((1, 1), report.pair, report.support)


def test_run_deformation_t8_holds_spin_images_as_flip_weights(monkeypatch):
    """The deform path makes no dense spin-image stack: at T^8, order cap 2
    (the benchmark's deform-m8-k2 shape), pair, solve and verification
    densify only single ``(F, 2**m)`` weight stacks, the verifier's exponent
    of each point and family, never call ``spin_lie_action``, and peak under
    18 MB above their start (about 13 MB; 27 MB with dense images in the
    series engine)."""
    densified = []

    def single(weights):
        densified.append(weights.shape)
        assert weights.shape == (29, 256), f"dense spin images of shape {weights.shape}"
        return cl.spin_flip_dense(weights)

    def refuse(*args):
        raise AssertionError("spin_lie_action called on the deform path")

    monkeypatch.setattr(sol, "spin_flip_dense", single)
    monkeypatch.setattr(cl, "spin_lie_action", refuse)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        pair = gs.standard_kahler_pair(8)
        family = exact_bfield_family(8, 2, *T8_COEFFS, pair)
        report = sol.run_deformation([family], pair, order_cap=2)
        sol.verify_gk_at_t(report, 0.01, count=2)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert max(report.residual_norms) <= 1e-12 * report.psi_norm
    assert len(densified) == 2 * 2  # two points, the family and b
    for stacks in (family.spin_stacks(), report.b.spin_stacks()):
        for freqs, weights in filter(None, stacks):
            assert weights.shape == (len(freqs), 29, 256) and not weights.flags.writeable
    assert peak < 18e6, f"pair, solve and verification peaked {peak / 1e6:.1f} MB above their start"


# ---------------------------------------------------------------------------
# the carried series against from-scratch dict-keyed expansions


def _dict_exp_apply(X, Y, act, order_cap):
    """``exp(X_t) Y_t`` re-expanded from order 0 over dict-keyed fields:
    ``term_j = (1/j) act(X, term_{j-1})`` from ``term_0 = Y``."""

    def zero():
        return type(Y[0])(Y[0].torus_dim, Y[0].value_dim)

    term = [Y[k] if k < len(Y) else zero() for k in range(order_cap + 1)]
    out = list(term)
    for j in range(1, order_cap + 1):
        nxt = [zero() for _ in range(order_cap + 1)]
        for i in range(1, min(len(X), order_cap + 1)):
            for k in range(order_cap + 1 - i):
                if X[i].coeffs and term[k].coeffs:
                    nxt[i + k] = nxt[i + k] + act(X[i], term[k])
        term = [(1.0 / j) * f for f in nxt]
        out = [a + b for a, b in zip(out, term)]
    return out


def _bracket(x, y):
    return x @ y - y @ x


@pytest.mark.parametrize("m, order_cap", [(4, 8), (6, 5)], ids=["m4-k8", "m6-k5"])
def test_carried_series_matches_dict_expansion(m, order_cap):
    """The series run_deformation carries column by column equals
    ``exp(a) exp(b) psi`` expanded from scratch with the final ``b``."""
    report = exact_bfield_report(m, order_cap, *(M4_COEFFS if m == 4 else M6_COEFFS))
    want = [report.psi0]
    for f in reversed(report.factors + [report.b]):
        want = _dict_exp_apply(spin_terms(f), want, gf.FourierOperatorField.act, order_cap)
    assert want[order_cap].coeff_norm() > 1e-10 * report.psi_norm
    for j in range(order_cap + 1):
        assert (report.psi_series[j] - want[j]).coeff_norm() <= 1e-14 * report.psi_norm, j


def test_extraction_matches_from_scratch_route(pair):
    """Carried extraction equals re-expanding the partial family at every order.

    The target conjugates J by a family with commuting parts, so every
    order of the transverse family is nonzero."""
    order_cap = 5
    J = pair.J1
    e = np.eye(4, dtype=int)
    family = random_family(np.random.default_rng(7), 4, [(1, tuple(e[0])), (2, tuple(e[1] + e[2]))])
    J0 = gf.FourierOperatorField.constant(4, J.astype(complex))
    target = _dict_exp_apply(family_terms(family), [J0], _bracket, order_cap)
    want = [None]
    for j in range(1, order_cap + 1):
        partial = _dict_exp_apply(want, [J0], _bracket, j)
        term = (target[j] - partial[j]).map_values(lambda c: -0.5 * (c @ J))
        term.coeffs = {k: c for k, c in term.coeffs.items() if c.any()}
        want.append(term)
    got = sol.extract_transverse_family(J, target, order_cap)
    for j in range(1, order_cap + 1):
        assert want[j].coeff_norm() > 1.0
        assert (got.term(j) - want[j]).coeff_norm() <= 1e-14 * want[j].coeff_norm(), j


def test_series_term_leaving_the_support_raises(pair, bfield_family):
    """A support closed only to order 1 cannot hold the order-2 column."""
    bg = gh.TorusBackground(pair, sol.support_closure(bfield_family.weighted_support(), 1, 4))
    psi0 = pair.canonical_generator(2)
    assert sol.order_residual(1, bfield_family, None, bg, psi0).rho_norm > 1e-3
    with pytest.raises(ValueError, match="leaves the support"):
        sol.order_residual(2, bfield_family, None, bg, psi0)
