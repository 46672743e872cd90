import itertools
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from genkahler import clifford as cl
from genkahler import structures as gs
from oracles import (
    canonical_generator,
    chevalley_gram,
    clifford_product,
    dense_pure_spinor,
    dense_shift_part,
    dense_words,
    form_vector,
    lu_word_inverse,
    parity_half,
    project_by_parity,
    two_form_spinor,
)


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_structure_checks_fail_on_nan():
    """A NaN residual fails the absolute checks (``nan > tol`` would pass):
    a NaN entry in a structure, and a b-field whose generalized metric is NaN."""
    J = gs.complex_structure_gcs(gs.standard_complex_structure(4))
    bad = J.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="residual nan"):
        gs.require_gcs(bad)
    b_field = np.zeros((4, 4))
    b_field[0, 1], b_field[1, 0] = np.nan, -np.nan
    with pytest.raises(ValueError, match="does not commute with the metric"):
        gs.HermitianPair.from_metric(J, np.eye(4), b_field)


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
    gen = canonical_generator(J)
    np.testing.assert_allclose(gen, form_vector(2, {(1,): 1.0, (2,): 1j}), atol=1e-12)
    # the top-level projector must have rank (trace) one
    levels = gs.iso_projectors(J)
    top = max(levels)
    for bad in (0 * levels[top], levels[top] + levels[top - 1]):
        with pytest.raises(ValueError, match="not a line"):
            canonical_generator(J, projectors={**levels, top: bad})


def test_symplectic_canonical_line_is_exp_i_omega():
    w = gs.standard_symplectic_form(2)
    gen = canonical_generator(gs.symplectic_gcs(w))
    np.testing.assert_allclose(gen, form_vector(2, {(): 1.0, (1, 2): 1j}), atol=1e-12)
    # and on T^4: exp(i w) = 1 + i w - w^2/2 up to overall scale
    w4 = gs.standard_symplectic_form(4)
    gen4 = canonical_generator(gs.symplectic_gcs(w4))
    two = two_form_spinor(w4)
    expw = form_vector(4, {(): 1.0}) + 1j * two - 0.5 * cl.wedge(two, two)
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
        gen = canonical_generator(J)
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
    f = lambda d: form_vector(2, d)
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
    """The full-width ladder-gather oracle, and the library's two parity
    blocks of the product (here of m factors, so they map parity p to
    ``p + m``), against the dense matrices."""
    rng = np.random.default_rng(50 + m)
    frame = rng.normal(size=(2 * m, m)) + 1j * rng.normal(size=(2 * m, m))
    want = dense_clifford_product(frame)
    assert np.linalg.norm(clifford_product(frame) - want) <= 1e-13 * np.linalg.norm(want)
    got = cl._parity_dense(gs._clifford_product_blocks(frame), m % 2)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


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


def test_flat_t8_pair_retains_only_parity_blocks():
    """The pair holds its star, star Gram, words and their inverse as their
    two parity blocks: the flat T^8 pair retains under 2.5 MB (about 2.2 MB
    with first-use caches; 4.8 MB with the four held at full width)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        pair = gs.standard_kahler_pair(8)
        retained = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert retained < 2.5e6, f"the T^8 pair retains {retained / 1e6:.2f} MB"
    assert not {"star", "bigrading", "proj1", "proj2"} & set(vars(pair))


def test_star_positivity_random_metrics():
    rng = np.random.default_rng(99)
    for _ in range(25):
        m = int(rng.integers(2, 7))
        A = rng.normal(size=(m, m))
        g = A @ A.T + 0.25 * np.eye(m)
        b = rng.normal(size=(m, m))
        b = b - b.T
        star = gs.hodge_star(g, b)
        gram = chevalley_gram(m) @ star
        gram = 0.5 * (gram + gram.conj().T)
        assert np.min(np.linalg.eigvalsh(gram)).real > 0


def test_hermitian_pair_flat_plane():
    pair = gs.standard_kahler_pair(2)
    np.testing.assert_allclose(pair.metric, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(pair.b_field, 0 * pair.b_field, atol=1e-12)
    psi = pair.canonical_generator()
    np.testing.assert_allclose(psi, form_vector(2, {(): 1.0, (1, 2): -1j}), atol=1e-12)
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
    recon = sum(project_by_parity(pair, phi[None], p, q)[0] for (p, q) in pair.bigrading)
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
                target = project_by_parity(pair, image.T, p + dp, q + dq).T
                np.testing.assert_allclose(target, image, atol=1e-8)


def _assert_row_action_matches_projectors(pair):
    """``project`` on the half rows of each form parity against the dense
    projectors on the full rows of that parity, whose images keep it."""
    rng = np.random.default_rng(pair.m)
    rows = rng.normal(size=(3, 2**pair.m)) + 1j * rng.normal(size=(3, 2**pair.m))
    for parity in (0, 1):
        half, full = parity_half(rows, parity)
        dense = [((p, q), P) for (p, q), P in pair.bigrading.items()]
        dense += [((k, None), P) for k, P in pair.proj1.items()] + [((None, k), P) for k, P in pair.proj2.items()]
        for (p, q), P in dense:
            want, stray = parity_half(full @ P.T, parity)
            assert_close_rel(pair.project(half, parity, p, q), want, 1e-12)
            assert np.linalg.norm(stray - full @ P.T) <= 1e-12 * max(1.0, np.linalg.norm(want))
        assert not pair.project(half, parity, pair.n, pair.n).any()


@pytest.mark.parametrize("kind", ["complex", "symplectic", "bfield"])
@pytest.mark.parametrize("m", [2, 4, 6])
def test_row_action_matches_dense_projectors(m, kind):
    _assert_row_action_matches_projectors(typed_pair(kind, m))


def test_row_action_matches_dense_projectors_t8(bfield_t8):
    _assert_row_action_matches_projectors(bfield_t8[0])


def test_pair_rejects_a_star_that_misses_the_volume_elements(monkeypatch):
    star = gs._star_blocks
    monkeypatch.setattr(gs, "_star_blocks", lambda *args: tuple(-block for block in star(*args)))
    with pytest.raises(ValueError, match="star does not match the spin volume elements"):
        gs.standard_kahler_pair(4)


def test_sector_frames_shift_bigrading_random_pair():
    rng = np.random.default_rng(77)
    pair = gs.random_hermitian_pair(rng, 4)
    frame = pair.sector_frame(True, True)
    Cv = cl.clifford_vector_matrix(frame[:, 0])
    for (p, q), Ppq in pair.bigrading.items():
        image = Cv @ Ppq
        target = project_by_parity(pair, image.T, p + 1, q + 1).T
        np.testing.assert_allclose(target, image, atol=1e-7)


def test_random_pairs_validate():
    rng = np.random.default_rng(11)
    for m in (2, 4, 6):
        pair = gs.random_hermitian_pair(rng, m)
        np.testing.assert_allclose(pair.J2, pair.G @ pair.J1, atol=1e-9)
        np.testing.assert_allclose(pair.G, -pair.J1 @ pair.J2, atol=1e-9)


def _pair_frames(pair):
    """The frames ``L`` and ``Lbar`` of the pair's word basis."""
    L = np.hstack([pair.sector_frame(True, True), pair.sector_frame(False, True)])
    Lbar = np.hstack([pair.sector_frame(True, False), pair.sector_frame(False, False)])
    return L, Lbar


PARITY_KINDS = ["kahler", "bfield", "symplectic"]


def parity_pair(kind, m):
    if kind == "kahler":
        return gs.standard_kahler_pair(m)
    return typed_pair(kind, m)


@pytest.mark.parametrize("kind", PARITY_KINDS)
@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_pure_spinor_is_the_largest_column_of_the_dense_product(m, kind):
    """The thin route (a column picked by Cartan's relation, then m vector
    gathers) gives a column of the dense rank-one product as large as its
    largest one, so the same line at the same scale."""
    L = _pair_frames(parity_pair(kind, m))[0]
    got, want = gs._pure_spinor(L), dense_pure_spinor(L)
    assert abs(abs(np.vdot(got, want)) / (np.linalg.norm(got) * np.linalg.norm(want)) - 1) <= 1e-13
    assert abs(np.linalg.norm(got) / np.linalg.norm(want) - 1) <= 1e-13


@pytest.mark.parametrize("kind", PARITY_KINDS)
@pytest.mark.parametrize("m", [4, 6, 8])
def test_word_inverse_matches_the_lu_solve(m, kind):
    """Each block of ``V^-1`` against one LU solve on the dense words and
    Gram matrix, whose solution is zero off the blocks."""
    pair = parity_pair(kind, m)
    V, _ = dense_words(pair)
    want = lu_word_inverse(V, cl._parity_dense(pair.star_gram))
    for r, w, _, Xb in pair._blocks:
        assert np.linalg.norm(Xb - want[w[:, None], r]) <= 1e-13 * np.linalg.norm(want)
    on = np.zeros(want.shape, dtype=bool)
    for r, w, *_ in pair._blocks:
        on[w[:, None], r] = True
    assert np.linalg.norm(want[~on]) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("kind", PARITY_KINDS)
@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_word_basis_and_star_are_exactly_zero_off_the_parity_blocks(m, kind):
    """The pair holds its words, their inverse and its star as blocks of
    2^(m-1) rows of one form parity and as many words, which cover the
    basis.  The full-width oracle product of the star's frame is exactly
    zero off those blocks, and on them it is the pair's star."""
    pair = parity_pair(kind, m)
    parity = cl.degrees(m) % 2
    on = np.zeros((2**m, 2**m), dtype=bool)
    for p, (rows, words, Vb, Xb) in enumerate(pair._blocks):
        assert len(rows) == len(words) == 2 ** (m - 1) and Vb.shape == Xb.shape == (2 ** (m - 1),) * 2
        assert (parity[rows] == p).all() and (parity[words] == parity[words[0]]).all()
        on[rows[:, None], words] = True
    assert on.sum() == 2 ** (2 * m - 1) and on.any(axis=0).all() and on.any(axis=1).all()
    frame = gs._metric_frame(pair.metric, pair.b_field, pair.orientation)
    want = -clifford_product(frame[:, ::-1])
    assert not want[parity[:, None] != parity[None]].any()
    for rows, block in zip(cl._parity_rows(m), pair._star):
        assert np.linalg.norm(block - want[rows[:, None], rows]) <= 1e-14 * np.linalg.norm(want)


def test_word_basis_rejects_a_gram_for_which_the_words_are_not_orthogonal():
    pair = typed_pair("bfield", 6)
    L, Lbar = _pair_frames(pair)
    steps, top = [(-1, -1)] * 3 + [(-1, 1)] * 3, (3, 0)
    gs._word_basis(L, Lbar, steps, top, pair.star_gram)
    rng = np.random.default_rng(3)
    corrupted = []
    for A in pair.star_gram:
        noise = rng.normal(size=A.shape)
        corrupted.append(A + 1e-6 * np.linalg.norm(A) * (noise + noise.T) / np.linalg.norm(noise))
    with pytest.raises(ValueError, match="not orthogonal for the Gram matrix"):
        gs._word_basis(L, Lbar, steps, top, corrupted)


@pytest.mark.parametrize("m", [4, 6, 8])
def test_shift_parts_match_the_dense_transform(m):
    """From one transform per block of ``op``, every part equals the dense
    four-product route, on the odd ``H^`` of a three-form and on a dense
    operator that mixes the parities."""
    pair = typed_pair("bfield", m)
    rng = np.random.default_rng(m)
    h = rng.normal(size=(m, m, m))
    h = sum(np.transpose(h, axes) * sign for axes, sign in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1), ((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1)))
    three_form = np.zeros(2**m, dtype=complex)
    for i, j, k in itertools.combinations(range(m), 3):
        three_form[(1 << i) | (1 << j) | (1 << k)] = h[i, j, k]
    mixed = rng.normal(size=(2**m, 2**m)) + 1j * rng.normal(size=(2**m, 2**m))
    shifts = list(itertools.product((-3, -1, 1, 3), repeat=2)) + [(0, 0), (2, -2)]
    for op in (cl.wedge_operator(three_form), mixed):
        parts = pair.shift_parts(op, shifts)
        assert list(parts) == shifts
        for shift, part in parts.items():
            want = dense_shift_part(pair, op, shift)
            assert np.linalg.norm(part - want) <= 1e-13 * max(np.linalg.norm(want), np.linalg.norm(op))


@pytest.mark.parametrize("kind", PARITY_KINDS)
@pytest.mark.parametrize("m", [2, 4, 6])
def test_canonical_generator_matches_the_projector_oracle(m, kind):
    """The pair's generator (its top word) is the largest column of the
    structure's dense top-level projector, scaled the same way."""
    pair = parity_pair(kind, m)
    for which, J in ((1, pair.J1), (2, pair.J2)):
        want = canonical_generator(J)
        assert np.linalg.norm(pair.canonical_generator(which) - want) <= 1e-12 * np.linalg.norm(want), which


@pytest.mark.parametrize("kind", PARITY_KINDS)
@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_canonical_generator_divides_by_the_first_of_its_tied_largest_entries(m, kind):
    """Entries of equal size in exact arithmetic tie up to roundoff; the
    generator is scaled by the first of them, whatever the rounding of the
    word basis, so its phase does not change with the route to the basis."""
    pair = parity_pair(kind, m)
    for which in (1, 2):
        generator = pair.canonical_generator(which)
        size = np.abs(generator)
        first = np.flatnonzero(size >= (1 - 1e-12) * size.max())[0]
        assert abs(generator[first] - 1) <= 1e-15, (which, first)
