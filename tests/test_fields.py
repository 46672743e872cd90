import itertools

import numpy as np
import pytest

from genkahler import clifford as cl
from genkahler import fields as gf
from genkahler import structures as gs


def antisymmetrize3(m, entries):
    H = np.zeros((m, m, m))
    for (a, b, c), val in entries.items():
        for p in itertools.permutations((a, b, c)):
            sgn = 1 if p in [(a, b, c), (b, c, a), (c, a, b)] else -1
            H[p] = sgn * val
    return H


@pytest.fixture
def h_t4():
    return antisymmetrize3(4, {(0, 1, 2): 0.7, (1, 2, 3): -0.3, (0, 1, 3): 0.2})


def test_field_arithmetic_and_evaluation():
    rng = np.random.default_rng(0)
    f = gf.random_field(rng, 2, 3, gf.frequencies_box(2, 1))
    g = gf.random_field(rng, 2, 3, gf.frequencies_box(2, 1))
    pts = gf.uniform_points(0, 7, 2)
    np.testing.assert_allclose(
        (f + 2.0 * g).evaluate(pts), f.evaluate(pts) + 2.0 * g.evaluate(pts), atol=1e-12
    )
    np.testing.assert_allclose((f - f).evaluate(pts), np.zeros((7, 3)), atol=1e-12)
    np.testing.assert_allclose(f.conj().evaluate(pts), f.evaluate(pts).conj(), atol=1e-12)


UNIFORM_SEEDS = [*range(40), 2**31 - 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1, 2**64, 2**64 + 3,
                 2**96 + 5, 2**127, 2**128 + 7, 10**30, 10**40, 12345678901234567890, 987654321]


@pytest.mark.parametrize("shape", [(16, 4), (2, 8), (16, 6), (1, 1), (7, 3), (0, 4)])
def test_uniform_points_match_numpy_default_rng(shape):
    """Bit for bit the points of ``numpy.random.default_rng(seed).uniform``
    on 55 seeds of one to five 32-bit words."""
    assert len(UNIFORM_SEEDS) == 55
    for seed in UNIFORM_SEEDS:
        want = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, shape)
        got = gf.uniform_points(seed, *shape)
        assert got.shape == shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), seed


def test_uniform_points_reject_a_negative_seed():
    with pytest.raises(ValueError, match="non-negative"):
        gf.uniform_points(-1, 2, 2)
    with pytest.raises(TypeError):
        gf.uniform_points(1.5, 2, 2)


def test_field_parseval_on_grid():
    rng = np.random.default_rng(1)
    f = gf.random_field(rng, 2, 2, gf.frequencies_box(2, 2))
    # exact quadrature for trig polynomials on a big enough uniform grid
    N = 8
    axis = np.arange(N) * 2 * np.pi / N
    grid = np.array(np.meshgrid(axis, axis)).reshape(2, -1).T
    vals = f.evaluate(grid)
    mean_sq = np.mean(np.sum(np.abs(vals) ** 2, axis=1))
    assert mean_sq == pytest.approx(f.coeff_norm() ** 2, rel=1e-12)


def test_real_fields():
    rng = np.random.default_rng(2)
    f = gf.random_field(rng, 3, 4, real=True)
    assert f.is_real()
    pts = gf.uniform_points(2, 5, 3)
    assert np.abs(f.evaluate(pts).imag).max() < 1e-12
    assert not gf.random_field(rng, 3, 4).is_real()


def test_operator_field_acts_pointwise():
    rng = np.random.default_rng(3)
    A = gf.FourierOperatorField(2, 3)
    for k in [(0, 0), (1, 0), (0, -1)]:
        A.coeffs[k] = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    B = gf.FourierOperatorField(2, 3)
    for k in [(1, 1), (-1, 0)]:
        B.coeffs[k] = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    f = gf.random_field(rng, 2, 3)
    pts = gf.uniform_points(3, 6, 2)
    Av = A.evaluate(pts)
    np.testing.assert_allclose(
        A.act(f).evaluate(pts),
        np.einsum("pij,pj->pi", Av, f.evaluate(pts)),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        (A @ B).evaluate(pts), np.einsum("pij,pjk->pik", Av, B.evaluate(pts)), atol=1e-12
    )
    eye = gf.FourierOperatorField.constant(2, np.eye(3))
    np.testing.assert_allclose((eye @ A).evaluate(pts), Av, atol=1e-12)


def test_operator_field_map_values_changes_dimension():
    so_field = gf.FourierOperatorField(2, 4)
    so_field.coeffs[(1, 0)] = cl.two_form_so(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    lifted = so_field.map_values(cl.spin_lie_action)
    assert lifted.value_dim == 4  # 2**2 spinor dim on T^2
    np.testing.assert_allclose(lifted[(1, 0)][0b11, 0], 1.0)


def test_map_values_on_the_zero_field_changes_dimension():
    """An empty field gets the image dimension of a zero coefficient, so the
    lifted zero operator still acts on spinor fields."""
    lifted = gf.FourierOperatorField(4, 8).map_values(cl.spin_lie_action)
    assert lifted.value_dim == 16 and not lifted.coeffs
    spinor = gf.random_field(np.random.default_rng(4), 4, 16)
    assert lifted.act(spinor).coeff_norm() == 0.0
    assert gf.FourierField(2, 3).map_values(lambda c: np.append(c, 0.0)).value_dim == 4


def test_stacked_is_sorted_and_shaped():
    rng = np.random.default_rng(5)
    f = gf.random_field(rng, 2, 3, [(1, 0), (-1, 1), (0, 0)])
    freqs, rows = f.stacked()
    assert freqs == f.support() == [(-1, 1), (0, 0), (1, 0)]
    np.testing.assert_array_equal(rows, [f[k] for k in freqs])
    assert gf.FourierOperatorField(2, 3).stacked()[1].shape == (0, 3, 3)
    with pytest.raises(ValueError, match="shapes do not match"):
        gf.FourierOperatorField.constant(2, np.eye(3)) + gf.FourierField(2, 3)


def test_three_form_validation():
    with pytest.raises(ValueError):
        gf.require_three_form(np.ones((3, 3, 3)), 3)
    H = antisymmetrize3(3, {(0, 1, 2): 2.0})
    spin = gf.three_form_spinor(H)
    np.testing.assert_allclose(spin, cl.form_vector(3, {(1, 2, 3): 2.0}))


def test_twisted_derivative_basics(h_t4):
    rng = np.random.default_rng(4)
    m = 4
    # plain derivative of a single mode: i k ^ .
    phi = gf.FourierField(m, 16, {(1, 0, 0, 0): cl.form_vector(m, {(): 1.0})})
    d = gf.twisted_derivative(phi)
    np.testing.assert_allclose(d[(1, 0, 0, 0)], 1j * cl.form_vector(m, {(1,): 1.0}))
    # squares to zero, twisted or not
    f = gf.random_field(rng, m, 16, gf.frequencies_box(m, 1))
    assert gf.twisted_derivative(gf.twisted_derivative(f)).coeff_norm() < 1e-12
    assert gf.twisted_derivative(gf.twisted_derivative(f, h_t4), h_t4).coeff_norm() < 1e-12
    # twisting term is wedging by the three-form
    const = gf.FourierField.constant(m, cl.form_vector(m, {(4,): 1.0}))
    dh = gf.twisted_derivative(const, h_t4)
    np.testing.assert_allclose(
        dh[(0,) * m], cl.wedge(gf.three_form_spinor(h_t4), const[(0,) * m]), atol=1e-14
    )


def test_one_form_differential_matches_spinor_derivative():
    rng = np.random.default_rng(5)
    m = 3
    xi = gf.random_field(rng, m, m, gf.frequencies_box(m, 1))
    dxi = gf.one_form_differential(xi)
    # lift the one-form to degree-1 spinors and differentiate there
    spinor = xi.map_values(lambda c: sum(c[j] * cl.form_vector(m, {(j + 1,): 1.0}) for j in range(m)))
    d_spinor = gf.twisted_derivative(spinor)
    for k in xi.support():
        np.testing.assert_allclose(cl.two_form_spinor(dxi[k]), d_spinor[k], atol=1e-12)


def test_bracket_frozen_h_term():
    m = 3
    H = antisymmetrize3(m, {(0, 1, 2): 1.0})
    d1 = gf.FourierField.constant(m, np.array([1, 0, 0, 0, 0, 0], dtype=complex))
    d2 = gf.FourierField.constant(m, np.array([0, 1, 0, 0, 0, 0], dtype=complex))
    br = gf.courant_bracket(d1, d2, H)
    np.testing.assert_allclose(br[(0, 0, 0)], [0, 0, 0, 0, 0, -1.0])


def test_bracket_symmetrization_is_exact_differential():
    rng = np.random.default_rng(6)
    m = 3
    a = gf.random_field(rng, m, 2 * m, gf.frequencies_box(m, 1))
    b = gf.random_field(rng, m, 2 * m, gf.frequencies_box(m, 1))
    sym = gf.courant_bracket(a, b) + gf.courant_bracket(b, a)
    # <a, b> as a scalar field, then twice its differential
    P = cl.pairing_matrix(m)
    pairing = gf.FourierField(m, 1)
    for k, u in a.coeffs.items():
        for l, v in b.coeffs.items():
            key = tuple(ki + li for ki, li in zip(k, l))
            val = np.array([u @ P @ v])
            pairing.coeffs[key] = pairing.coeffs.get(key, 0.0) + val
    for k in sym.support():
        kv = np.asarray(k, dtype=float)
        expected = np.concatenate([np.zeros(m), 2j * pairing[k][0] * kv])
        np.testing.assert_allclose(sym[k], expected, atol=1e-12)


def test_bracket_leibniz_identity(h_t4):
    rng = np.random.default_rng(7)
    m = 4
    freqs = [(0, 0, 0, 0), (1, 0, 0, 0), (0, -1, 0, 1)]
    a = gf.random_field(rng, m, 2 * m, freqs)
    b = gf.random_field(rng, m, 2 * m, freqs)
    c = gf.random_field(rng, m, 2 * m, freqs)
    lhs = gf.courant_bracket(a, gf.courant_bracket(b, c, h_t4), h_t4)
    rhs = gf.courant_bracket(gf.courant_bracket(a, b, h_t4), c, h_t4) + gf.courant_bracket(
        b, gf.courant_bracket(a, c, h_t4), h_t4
    )
    assert (lhs - rhs).coeff_norm() < 1e-10 * max(1.0, lhs.coeff_norm())


def test_nijenhuis_antisymmetric_and_oracle(h_t4):
    J = gs.symplectic_gcs(gs.standard_symplectic_form(4))
    N = gf.nijenhuis_tensor(J, h_t4)
    for perm, sgn in (((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 0, 1), 1)):
        np.testing.assert_allclose(np.transpose(N, perm), sgn * N, atol=1e-12)
    # independent oracle: contract the three-form with the vector parts
    _, lbar = gf.dual_l_frames(J)
    Xs = lbar[:4, :]
    np.testing.assert_allclose(
        N, np.einsum("abc,ai,bj,ck->ijk", h_t4, Xs, Xs, Xs), atol=1e-12
    )


def _torsion_operator(J, h):
    """Level-raising (+3) component of the twisted derivative on constant forms."""
    proj = gs.iso_projectors(J)
    Hw = cl.wedge_operator(gf.three_form_spinor(h))
    return sum(proj[k + 3] @ Hw @ proj[k] for k in proj if k + 3 in proj)


def test_torsion_dual_routes_agree(h_t4):
    # bracket route and derivative route computed independently
    for J in (
        gs.symplectic_gcs(gs.standard_symplectic_form(4)),
        gs.random_hermitian_pair(np.random.default_rng(8), 4).J2,
    ):
        t_cl = gf.torsion_clifford_element(J, h_t4)
        t_op = _torsion_operator(J, h_t4)
        assert np.linalg.norm(t_op) > 0.05  # genuinely non-integrable
        np.testing.assert_allclose(t_cl, t_op, atol=1e-12)


def test_torsion_vanishes_for_diagonal_type(h_t4):
    # a constant complex-structure-type on T^4 is integrable for every
    # constant three-form: its conjugate eigenframe has 2-dim vector span
    J = gs.complex_structure_gcs(gs.standard_complex_structure(4))
    assert np.linalg.norm(gf.torsion_clifford_element(J, h_t4)) < 1e-13
    assert np.linalg.norm(_torsion_operator(J, h_t4)) < 1e-13


def test_dual_l_frames_biorthogonal():
    rng = np.random.default_rng(9)
    J = gs.random_hermitian_pair(rng, 4).J1
    l_dual, lbar = gf.dual_l_frames(J)
    P = cl.pairing_matrix(4)
    np.testing.assert_allclose(2.0 * l_dual.T @ P @ lbar, np.eye(4), atol=1e-10)
    np.testing.assert_allclose(J @ l_dual, 1j * l_dual, atol=1e-9)
    np.testing.assert_allclose(J @ lbar, -1j * lbar, atol=1e-9)
