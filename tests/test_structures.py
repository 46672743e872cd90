import tracemalloc
from functools import reduce

import numpy as np
import pytest

from genkahler import clifford as cl
from genkahler import structures as gs


def test_require_gcs_rejects_non_structures():
    with pytest.raises(ValueError):
        gs.require_gcs(np.eye(4))
    # squares to -Id but breaks the pairing: scaled complex structure
    J = gs.complex_structure_gcs(gs.standard_complex_structure(2))
    bad = J.copy()
    bad[0, :] *= 2.0
    with pytest.raises(ValueError):
        gs.require_gcs(bad)
    assert gs.gcs_residual(J) < 1e-14


def test_standard_blocks():
    J = gs.standard_complex_structure(4)
    np.testing.assert_allclose(J @ J, -np.eye(4))
    w = gs.standard_symplectic_form(4)
    np.testing.assert_allclose(w, -w.T)
    with pytest.raises(ValueError):
        gs.standard_complex_structure(3)
    with pytest.raises(ValueError):
        gs.symplectic_gcs(np.eye(2))


def test_complex_type_canonical_line():
    J = gs.complex_structure_gcs(gs.standard_complex_structure(2))
    gen = gs.canonical_generator(J)
    np.testing.assert_allclose(gen, cl.form_vector(2, {(1,): 1.0, (2,): 1j}), atol=1e-12)
    # the top-level projector must have rank (trace) one
    levels = gs.iso_projectors(J)
    top = max(levels)
    for bad in (0 * levels[top], levels[top] + levels[top - 1]):
        with pytest.raises(ValueError, match="not a line"):
            gs.canonical_generator(J, projectors={**levels, top: bad})


def test_symplectic_canonical_line_is_exp_i_omega():
    w = gs.standard_symplectic_form(2)
    gen = gs.canonical_generator(gs.symplectic_gcs(w))
    np.testing.assert_allclose(gen, cl.form_vector(2, {(): 1.0, (1, 2): 1j}), atol=1e-12)
    # and on T^4: exp(i w) = 1 + i w - w^2/2 up to overall scale
    w4 = gs.standard_symplectic_form(4)
    gen4 = gs.canonical_generator(gs.symplectic_gcs(w4))
    two = cl.two_form_spinor(w4)
    expw = cl.form_vector(4, {(): 1.0}) + 1j * two - 0.5 * cl.wedge(two, two)
    scale = gen4[0] / expw[0]
    np.testing.assert_allclose(gen4, scale * expw, atol=1e-12)


def test_iso_projectors_resolve_identity():
    rng = np.random.default_rng(2)
    J = gs.random_hermitian_pair(rng, 4).J1
    proj = gs.iso_projectors(J)
    assert sorted(proj) == [-2, -1, 0, 1, 2]
    total = sum(proj.values())
    np.testing.assert_allclose(total, np.eye(16), atol=1e-9)
    D = cl.spin_lie_action(J)
    for k, Pk in proj.items():
        np.testing.assert_allclose(Pk @ Pk, Pk, atol=1e-9)
        np.testing.assert_allclose(D @ Pk, 1j * k * Pk, atol=1e-9)


def typed_pair(kind, m):
    """A pair whose first structure is of complex or symplectic type, or a random b-field pair."""
    rng = np.random.default_rng(10 * m + len(kind))
    if kind == "complex":
        J = gs.standard_complex_structure(m)
        S = rng.normal(size=(m, m))
        S = S @ S.T + np.eye(m)
        return gs.HermitianPair.from_kahler(J, S + J.T @ S @ J)
    if kind == "symplectic":
        return gs.HermitianPair.from_metric(gs.symplectic_gcs(gs.standard_symplectic_form(m)), np.eye(m))
    return gs.random_hermitian_pair(rng, m, b_scale=0.7)


def assert_close_rel(got, want, rel):
    assert np.linalg.norm(got - want) <= rel * max(1.0, np.linalg.norm(want))


@pytest.mark.parametrize("kind", ["complex", "symplectic", "bfield"])
@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_exact_projectors_match_lagrange_oracle(m, kind, lagrange_projectors):
    pair = typed_pair(kind, m)
    L1, L2 = lagrange_projectors(pair.J1), lagrange_projectors(pair.J2)
    n = pair.n
    want = {(p, q): L1[p] @ L2[q] for p in L1 for q in L2 if abs(p) + abs(q) <= n and (p + q - n) % 2 == 0}
    assert set(pair.bigrading) == set(want)
    for key, P in want.items():
        assert_close_rel(pair.bigrading[key], P, 1e-10)
    for J, levels, oracle in ((pair.J1, pair.proj1, L1), (pair.J2, pair.proj2, L2)):
        single = gs.iso_projectors(J)
        assert sorted(levels) == sorted(single) == sorted(oracle)
        for k, P in oracle.items():
            assert_close_rel(levels[k], P, 1e-10)
            assert_close_rel(single[k], P, 1e-10)


def test_exact_projectors_idempotent_t8(bfield_t8):
    # the defect this guards against: Lagrange projectors reached 2.6e-10 at
    # m=8, above the solver's default tol_checks = 1e-10.  Rounding scales
    # with the size of the grading pieces, which ranges from about 6 (Frobenius
    # norm, orthogonal pieces) to 1e4 on these pairs; the Lagrange route and a
    # plain inverse of the word basis sit above 5e-14 times that size, the
    # Gram-weighted solve below 1e-15
    pairs = [typed_pair("complex", 8), typed_pair("symplectic", 8), bfield_t8[0]]
    pairs += [gs.random_hermitian_pair(np.random.default_rng(seed), 8) for seed in range(2)]
    for pair in pairs:
        size = max(np.linalg.norm(P) for P in pair.bigrading.values())
        for P in [*pair.bigrading.values(), *pair.proj1.values(), *pair.proj2.values()]:
            assert np.linalg.norm(P @ P - P) <= 1e-14 * size


@pytest.mark.parametrize("kind", ["kahler", "symplectic"])
def test_orthogonal_projectors_idempotent_t8_absolute(kind):
    pair = gs.standard_kahler_pair(8) if kind == "kahler" else typed_pair(kind, 8)
    # orthonormal word basis: every piece has Frobenius norm at most about 6
    assert max(np.linalg.norm(P) for P in pair.bigrading.values()) < 10
    for P in [*pair.bigrading.values(), *pair.proj1.values(), *pair.proj2.values()]:
        assert np.linalg.norm(P @ P - P) <= 1e-12


def test_volume_spin_element_is_quarter_turn_exp():
    rng = np.random.default_rng(8)
    J = gs.random_hermitian_pair(rng, 2).J2
    vol = gs.volume_spin_element(J)
    quarter = cl.spin_group_exp((np.pi / 2) * J)
    np.testing.assert_allclose(vol, quarter, atol=1e-9)


def test_l_frame_annihilates_canonical_generator():
    rng = np.random.default_rng(5)
    for m in (2, 4):
        J = gs.random_hermitian_pair(rng, m).J2
        frame = gs.l_frame(J)
        gen = gs.canonical_generator(J)
        P = cl.pairing_matrix(m)
        # isotropic +i eigenspace
        np.testing.assert_allclose(frame.T @ P @ frame, np.zeros((m, m)), atol=1e-9)
        np.testing.assert_allclose(J @ frame, 1j * frame, atol=1e-9)
        for a in range(m):
            assert np.linalg.norm(cl.clifford_act(frame[:, a], gen)) < 1e-9


def test_generalized_metric_flat_case_and_roundtrip():
    G = gs.generalized_metric(np.eye(3))
    expected = np.zeros((6, 6))
    expected[:3, 3:] = np.eye(3)
    expected[3:, :3] = np.eye(3)
    np.testing.assert_allclose(G, expected, atol=1e-14)

    rng = np.random.default_rng(12)
    A = rng.normal(size=(4, 4))
    g = A @ A.T + np.eye(4)
    b = rng.normal(size=(4, 4))
    b = b - b.T
    G = gs.generalized_metric(g, b)
    np.testing.assert_allclose(G @ G, np.eye(8), atol=1e-10)
    g2, b2 = gs.metric_from_generalized(G)
    np.testing.assert_allclose(g2, g, atol=1e-10)
    np.testing.assert_allclose(b2, b, atol=1e-10)


def test_hodge_star_frozen_values_flat_plane():
    star = gs.hodge_star(np.eye(2))
    f = lambda d: cl.form_vector(2, d)
    np.testing.assert_allclose(star @ f({(): 1}), f({(1, 2): 1}), atol=1e-14)
    np.testing.assert_allclose(star @ f({(1, 2): 1}), f({(): -1}), atol=1e-14)
    np.testing.assert_allclose(star @ f({(1,): 1}), f({(2,): -1}), atol=1e-14)
    np.testing.assert_allclose(star @ f({(2,): 1}), f({(1,): 1}), atol=1e-14)
    # reversing the orientation reverses the operator
    np.testing.assert_allclose(gs.hodge_star(np.eye(2), orientation=-1), -star, atol=1e-14)


def test_hodge_star_squares_to_sign():
    # star^2 = (-1)^{m(m-1)/2 ...}: check the involution property via double
    # application being a degree-preserving sign on the flat metric
    rng = np.random.default_rng(3)
    for m in (2, 3, 4):
        A = rng.normal(size=(m, m))
        g = A @ A.T + np.eye(m)
        b = rng.normal(size=(m, m))
        b = b - b.T
        star = gs.hodge_star(g, b)
        sq = (star @ star).real
        # the square is +-Id on the flat case; with a metric it stays an
        # involution up to sign because the frame product squares to a scalar
        np.testing.assert_allclose(np.abs(np.linalg.det(sq)), 1.0, rtol=1e-8)
        np.testing.assert_allclose(sq @ sq, np.eye(1 << m), atol=1e-8)


def dense_clifford_product(frame):
    """Reference route: the product of the dense Clifford matrices of the
    frame's columns, left to right."""
    return reduce(np.matmul, cl.clifford_matrices(frame.T))


@pytest.mark.parametrize("m", range(2, cl.MAX_DIM + 1))
def test_clifford_product_matches_dense_matrices(m):
    rng = np.random.default_rng(50 + m)
    frame = rng.normal(size=(2 * m, m)) + 1j * rng.normal(size=(2 * m, m))
    want = dense_clifford_product(frame)
    assert np.linalg.norm(gs._clifford_product(frame) - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_hodge_star_of_a_diagonal_metric_is_the_dense_product_bitwise(m):
    """One ladder per factor: every entry is the same product of the same
    coordinates as in the dense route, in the same order."""
    rng = np.random.default_rng(60 + m)
    g = np.diag(rng.uniform(0.3, 3.0, size=m))
    for orientation in (1, -1):
        frame = gs._metric_frame(g, None, orientation)
        assert np.array_equal(gs.hodge_star(g, orientation=orientation), -dense_clifford_product(frame[:, ::-1]))


def test_pairs_build_without_clifford_matrices(monkeypatch):
    """The pair forms no dense Clifford matrix or stack of them: with the
    dense route made to raise, the flat T^8 pair and a random b-field pair
    on T^6 build, and the T^8 pair peaks under 10 MB above its start (about
    7.4 MB; 15.8 MB with the dense products)."""

    def refuse(*args):
        raise AssertionError("dense Clifford matrices built for a pair")

    monkeypatch.setattr(cl, "clifford_matrices", refuse)
    monkeypatch.setattr(gs, "clifford_matrices", refuse, raising=False)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        pair = gs.standard_kahler_pair(8)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 10e6, f"the T^8 pair peaked {peak / 1e6:.1f} MB above its start"
    assert pair.orientation == 1
    gs.random_hermitian_pair(np.random.default_rng(6), 6)


def test_star_positivity_random_metrics():
    rng = np.random.default_rng(99)
    for _ in range(25):
        m = int(rng.integers(2, 7))
        A = rng.normal(size=(m, m))
        g = A @ A.T + 0.25 * np.eye(m)
        b = rng.normal(size=(m, m))
        b = b - b.T
        star = gs.hodge_star(g, b)
        gram = cl.chevalley_gram(m) @ star
        gram = 0.5 * (gram + gram.conj().T)
        assert np.min(np.linalg.eigvalsh(gram)).real > 0


def test_hermitian_pair_flat_plane():
    pair = gs.standard_kahler_pair(2)
    np.testing.assert_allclose(pair.metric, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(pair.b_field, 0 * pair.b_field, atol=1e-12)
    psi = pair.canonical_generator()
    np.testing.assert_allclose(psi, cl.form_vector(2, {(): 1.0, (1, 2): -1j}), atol=1e-12)
    # star of the pair equals minus the product of the volume elements
    vol = gs.volume_spin_element(pair.J1) @ gs.volume_spin_element(pair.J2)
    np.testing.assert_allclose(pair.star, -vol, atol=1e-10)


def test_hermitian_pair_bigrading_dimensions_t4():
    pair = gs.standard_kahler_pair(4)
    dims = {pq: int(round(np.trace(Pi).real)) for pq, Pi in pair.bigrading.items()}
    assert dims == {
        (-2, 0): 1, (2, 0): 1, (0, -2): 1, (0, 2): 1,
        (-1, -1): 2, (-1, 1): 2, (1, -1): 2, (1, 1): 2,
        (0, 0): 4,
    }
    total = sum(pair.bigrading.values())
    np.testing.assert_allclose(total, np.eye(16), atol=1e-9)
    rng = np.random.default_rng(0)
    phi = rng.normal(size=16) + 1j * rng.normal(size=16)
    recon = sum(pair.project(phi[None], p, q)[0] for (p, q) in pair.bigrading)
    np.testing.assert_allclose(recon, phi, atol=1e-9)


def test_hermitian_pair_rejects_bad_input():
    J1 = gs.complex_structure_gcs(gs.standard_complex_structure(4))
    other = gs.random_hermitian_pair(np.random.default_rng(2), 4).J1
    assert np.linalg.norm(J1 @ other - other @ J1) > 1e-3  # genuinely non-commuting
    with pytest.raises(ValueError):
        gs.HermitianPair(J1, other)
    # negative product: swap the sign of the metric factor
    G = gs.generalized_metric(np.eye(4))
    with pytest.raises(ValueError):
        gs.HermitianPair(J1, -G @ J1)


def test_sector_frames_shift_bigrading():
    pair = gs.standard_kahler_pair(4)
    arrows = {
        (True, True): (1, 1),
        (False, True): (1, -1),
        (True, False): (-1, -1),
        (False, False): (-1, 1),
    }
    for (plus, holo), (dp, dq) in arrows.items():
        frame = pair.sector_frame(plus, holo)
        assert frame.shape == (8, 2)
        for a in range(frame.shape[1]):
            Cv = cl.clifford_vector_matrix(frame[:, a])
            for (p, q), Ppq in pair.bigrading.items():
                image = Cv @ Ppq
                target = pair.project(image.T, p + dp, q + dq).T
                np.testing.assert_allclose(target, image, atol=1e-8)


def _assert_row_action_matches_projectors(pair):
    rng = np.random.default_rng(pair.m)
    rows = rng.normal(size=(3, 2**pair.m)) + 1j * rng.normal(size=(3, 2**pair.m))
    for (p, q), P in pair.bigrading.items():
        assert_close_rel(pair.project(rows, p, q), rows @ P.T, 1e-12)
    for k, P in pair.proj1.items():
        assert_close_rel(pair.project(rows, p=k), rows @ P.T, 1e-12)
    for k, P in pair.proj2.items():
        assert_close_rel(pair.project(rows, q=k), rows @ P.T, 1e-12)
    assert not pair.project(rows, pair.n, pair.n).any()


@pytest.mark.parametrize("kind", ["complex", "symplectic", "bfield"])
@pytest.mark.parametrize("m", [2, 4, 6])
def test_row_action_matches_dense_projectors(m, kind):
    _assert_row_action_matches_projectors(typed_pair(kind, m))


def test_row_action_matches_dense_projectors_t8(bfield_t8):
    _assert_row_action_matches_projectors(bfield_t8[0])


def test_pair_rejects_a_star_that_misses_the_volume_elements(monkeypatch):
    star = gs.hodge_star
    monkeypatch.setattr(gs, "hodge_star", lambda *args: -star(*args))
    with pytest.raises(ValueError, match="star does not match the spin volume elements"):
        gs.standard_kahler_pair(4)


def test_sector_frames_shift_bigrading_random_pair():
    rng = np.random.default_rng(77)
    pair = gs.random_hermitian_pair(rng, 4)
    frame = pair.sector_frame(True, True)
    Cv = cl.clifford_vector_matrix(frame[:, 0])
    for (p, q), Ppq in pair.bigrading.items():
        image = Cv @ Ppq
        target = pair.project(image.T, p + 1, q + 1).T
        np.testing.assert_allclose(target, image, atol=1e-7)


def test_random_pairs_validate():
    rng = np.random.default_rng(11)
    for m in (2, 4, 6):
        pair = gs.random_hermitian_pair(rng, m)
        np.testing.assert_allclose(pair.J2, pair.G @ pair.J1, atol=1e-9)
        np.testing.assert_allclose(pair.G, -pair.J1 @ pair.J2, atol=1e-9)
