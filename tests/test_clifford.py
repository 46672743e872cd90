import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from genkahler import clifford as cl
from oracles import chevalley_gram, form_vector, ladder_step_flip_table, parity_half, spin_flip_apply, two_form_spinor


def rand_vec(rng, m, complex_=True):
    v = rng.normal(size=2 * m)
    if complex_:
        v = v + 1j * rng.normal(size=2 * m)
    return v


def contractions(m):
    """Dense contractions by ``d/dx_{i+1}``: the Clifford matrices of the unit vectors."""
    return cl.clifford_matrices(np.eye(2 * m)[:m]).real


def test_dimension_guard():
    with pytest.raises(ValueError):
        cl.spinor_dim(0)
    with pytest.raises(ValueError):
        cl.spinor_dim(cl.MAX_DIM + 1)
    assert cl.spinor_dim(3) == 8


def test_form_vector_orders_and_signs():
    f = form_vector(2, {(2, 1): 1.0})
    g = form_vector(2, {(1, 2): -1.0})
    np.testing.assert_allclose(f, g)
    with pytest.raises(ValueError):
        form_vector(2, {(1, 1): 1.0})
    with pytest.raises(ValueError):
        form_vector(2, {(3,): 1.0})


def test_wedge_frozen_signs():
    m = 3
    dx1 = form_vector(m, {(1,): 1})
    dx2 = form_vector(m, {(2,): 1})
    dx3 = form_vector(m, {(3,): 1})
    np.testing.assert_allclose(cl.wedge(dx2, dx1), form_vector(m, {(1, 2): -1}))
    np.testing.assert_allclose(
        cl.wedge(cl.wedge(dx1, dx2), dx3), form_vector(m, {(1, 2, 3): 1})
    )
    np.testing.assert_allclose(
        cl.wedge(dx3, form_vector(m, {(1, 2): 1})), form_vector(m, {(1, 2, 3): 1})
    )
    # dx1 ^ dx1 = 0
    assert np.all(cl.wedge(dx1, dx1) == 0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_wedge_associative_and_graded_commutative(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))
    n = 1 << m
    deg = cl.degrees(m)
    # homogeneous pieces for the commutativity sign
    p = int(rng.integers(0, m + 1))
    q = int(rng.integers(0, m + 1))
    f = np.where(deg == p, rng.normal(size=n), 0.0).astype(complex)
    g = np.where(deg == q, rng.normal(size=n), 0.0).astype(complex)
    h = rng.normal(size=n) + 1j * rng.normal(size=n)
    np.testing.assert_allclose(
        cl.wedge(cl.wedge(f, g), h), cl.wedge(f, cl.wedge(g, h)), atol=1e-12
    )
    np.testing.assert_allclose(
        cl.wedge(f, g), (-1.0) ** (p * q) * cl.wedge(g, f), atol=1e-12
    )


def test_wedge_matrices_match_wedge():
    rng = np.random.default_rng(3)
    m = 4
    W = cl.wedge_matrices(m)
    C = contractions(m)
    phi = rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)
    for i in range(m):
        dxi = form_vector(m, {(i + 1,): 1})
        np.testing.assert_allclose(W[i] @ phi, cl.wedge(dxi, phi), atol=1e-12)
    # contraction anti-derivation basics: i_1 (dx1^dx2) = dx2, i_2 (dx1^dx2) = -dx1
    dx12 = form_vector(m, {(1, 2): 1})
    np.testing.assert_allclose(C[0] @ dx12, form_vector(m, {(2,): 1}))
    np.testing.assert_allclose(C[1] @ dx12, form_vector(m, {(1,): -1}))


def test_wedge_contraction_anticommutators():
    m = 3
    W = cl.wedge_matrices(m)
    C = contractions(m)
    eye = np.eye(1 << m)
    for i in range(m):
        for j in range(m):
            anti_ww = W[i] @ W[j] + W[j] @ W[i]
            anti_cc = C[i] @ C[j] + C[j] @ C[i]
            anti_wc = W[i] @ C[j] + C[j] @ W[i]
            assert np.linalg.norm(anti_ww) == 0
            assert np.linalg.norm(anti_cc) == 0
            np.testing.assert_allclose(anti_wc, eye if i == j else 0 * eye, atol=0)


def test_clifford_relation():
    rng = np.random.default_rng(11)
    for m in (1, 2, 3, 5, 8):
        v = rand_vec(rng, m)
        w = rand_vec(rng, m)
        cv = cl.clifford_vector_matrix(v)
        cw = cl.clifford_vector_matrix(w)
        rhs = 2.0 * cl.natural_pairing(v, w) * np.eye(1 << m)
        np.testing.assert_allclose(cv @ cw + cw @ cv, rhs, atol=1e-12)
        # oracle: contraction by the vector part plus wedge by the covector part
        ladders = sum(
            v[j] * C + v[m + j] * W
            for j, (C, W) in enumerate(zip(contractions(m), cl.wedge_matrices(m)))
        )
        phi = rng.normal(size=1 << m) + 0j
        np.testing.assert_allclose(cl.clifford_act(v, phi), ladders @ phi, atol=1e-12)


@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_stacked_clifford_act_matches_matrices(m):
    """A stack of vectors acts on a stack of rows, row by row, as the dense
    Clifford matrices do; a single vector broadcasts over the rows."""
    rng = np.random.default_rng(40 + m)
    rows = 9
    v = rng.normal(size=(rows, 2 * m)) + 1j * rng.normal(size=(rows, 2 * m))
    x = rng.normal(size=(rows, 1 << m)) + 1j * rng.normal(size=(rows, 1 << m))
    got = cl.clifford_act(v, x)
    want = np.stack([cl.clifford_matrices(v[s]) @ x[s] for s in range(rows)])
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
    np.testing.assert_allclose(cl.clifford_act(v[0], x), x @ cl.clifford_matrices(v[0]).T, rtol=1e-13, atol=1e-13)
    # a ladder with no weight in the whole stack is skipped; no weight at all gives zeros
    v[:, [0, m]] = 0
    want = np.stack([cl.clifford_matrices(v[s]) @ x[s] for s in range(rows)])
    assert np.linalg.norm(cl.clifford_act(v, x) - want) <= 1e-14 * np.linalg.norm(want)
    assert np.array_equal(cl.clifford_act(np.zeros(2 * m), x), np.zeros_like(x))
    with pytest.raises(ValueError):
        cl.clifford_act(v[:, :-2], x)


def loop_ladders(m):
    """Dense contractions by ``d/dx_{j+1}``, then wedges by ``dx_{j+1}``,
    entry by entry: both carry the sign of the bits below j."""
    n = 1 << m
    out = np.zeros((2 * m, n, n))
    for j in range(m):
        for I in range(n):
            sign = (-1) ** bin(I & ((1 << j) - 1)).count("1")
            if I >> j & 1:
                out[j, I ^ (1 << j), I] = sign
            else:
                out[m + j, I | (1 << j), I] = sign
    return out


@pytest.mark.parametrize("m", [1, 3, 8])
def test_clifford_table_equals_stacked_ladders(m):
    """The dense Clifford matrices of the unit vectors, scattered from the
    ladder tables, are entry for entry the ladders built one subset at a time."""
    assert np.array_equal(cl.clifford_matrices(np.eye(2 * m)), loop_ladders(m))


@pytest.mark.parametrize("m", [1, 3, 5])
def test_clifford_relation_residual_matches_dense_anticommutators(m, monkeypatch):
    """The ladder check is the largest entry of the dense anticommutators of
    the unit vectors' Clifford matrices minus their pairing: 0 on the tables,
    and the same defect on a table with one sign flipped."""

    def dense_residual():
        C = cl.clifford_matrices(np.eye(2 * m))
        anti = C[:, None] @ C[None] + C[None] @ C[:, None]
        return np.abs(anti - 2.0 * cl.pairing_matrix(m)[:, :, None, None] * np.eye(1 << m)).max()

    assert cl.clifford_relation_residual(m) == dense_residual() == 0
    source, signs = cl._ladder_tables(m)
    bad = signs.copy()
    i = np.flatnonzero(bad[1, m - 1])[0]
    bad[1, m - 1, i] *= -1
    monkeypatch.setattr(cl, "_ladder_tables", lambda k: (source, bad))
    assert cl.clifford_relation_residual(m) == dense_residual() == 2.0


def test_clifford_relation_residual_vanishes_at_every_dimension():
    assert [cl.clifford_relation_residual(m) for m in range(1, cl.MAX_DIM + 1)] == [0.0] * cl.MAX_DIM


def test_pairing_matrix_values():
    P = cl.pairing_matrix(2)
    d1 = np.array([1.0, 0, 0, 0])
    dx1 = np.array([0.0, 0, 1, 0])
    assert cl.natural_pairing(d1, dx1) == pytest.approx(0.5)
    assert cl.natural_pairing(d1, d1) == 0
    assert cl.natural_pairing(dx1, dx1) == 0
    np.testing.assert_allclose(P, P.T)


def test_chevalley_frozen_values_m2():
    m = 2
    one = form_vector(m, {(): 1})
    dx1 = form_vector(m, {(1,): 1})
    dx2 = form_vector(m, {(2,): 1})
    dx12 = form_vector(m, {(1, 2): 1})
    assert cl.chevalley_pairing(one, dx12) == pytest.approx(1.0)
    assert cl.chevalley_pairing(dx12, one) == pytest.approx(-1.0)
    assert cl.chevalley_pairing(dx1, dx2) == pytest.approx(-1.0)
    assert cl.chevalley_pairing(dx2, dx1) == pytest.approx(1.0)
    assert cl.chevalley_pairing(one, one) == 0
    assert cl.chevalley_pairing(dx1, dx1) == 0


def test_chevalley_matches_wedge_reverse_top():
    rng = np.random.default_rng(7)
    for m in (1, 2, 3, 4, 5):
        f = rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)
        g = rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)
        direct = -cl.wedge(f, cl.transpose_form(g))[-1]
        assert cl.chevalley_pairing(f, g) == pytest.approx(direct, abs=1e-12)
        s = cl.chevalley_symmetry_sign(m)
        assert cl.chevalley_pairing(g, f) == pytest.approx(
            s * cl.chevalley_pairing(f, g), abs=1e-12
        )


@pytest.mark.parametrize("m", range(1, cl.MAX_DIM + 1))
def test_chevalley_gram_is_the_top_coefficient_of_every_wedge_with_a_reversed_subset(m):
    """Entry ``(I, J)`` is minus the top coefficient of ``e_I ^ reverse(e_J)``:
    the reversal sign of ``J`` times the whole ``wedge_sign_table`` entry
    where ``I`` and ``J`` fill the top subset, zero elsewhere.  The matrix
    is built from ``_chevalley_signs``, and the pairing, which reads that
    vector alone, is ``f @ C @ g``."""
    n = 1 << m
    reversal = cl.transpose_form(np.ones(n)).real
    top = (np.arange(n)[:, None] | np.arange(n)[None]) == n - 1
    want = np.where(top, -reversal[None] * cl.wedge_sign_table(m), 0.0)
    assert np.array_equal(chevalley_gram(m), want)
    f, g = np.random.default_rng(m).normal(size=(2, n, 2)) @ [1, 1j]
    assert cl.chevalley_pairing(f, g) == pytest.approx(f @ want @ g, rel=1e-14)


def test_transpose_form_reverses_products():
    rng = np.random.default_rng(19)
    m = 4
    f = rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)
    g = rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)
    np.testing.assert_allclose(
        cl.transpose_form(cl.wedge(f, g)),
        cl.wedge(cl.transpose_form(g), cl.transpose_form(f)),
        atol=1e-12,
    )


def test_so_block_roundtrip_and_validation():
    rng = np.random.default_rng(23)
    m = 3
    A = rng.normal(size=(m, m))
    B = rng.normal(size=(m, m))
    B = B - B.T
    beta = rng.normal(size=(m, m))
    beta = beta - beta.T
    alpha = cl.so_from_blocks(m, endo=A, two_form=B, bivector=beta)
    assert cl.so_residual(alpha) < 1e-12
    A2, B2, beta2 = alpha[:m, :m], alpha[m:, :m], alpha[:m, m:]
    np.testing.assert_allclose(A2, A)
    np.testing.assert_allclose(B2, B)
    np.testing.assert_allclose(beta2, beta)
    with pytest.raises(ValueError):
        cl.require_so(np.eye(2 * m))
    with pytest.raises(ValueError):
        cl.so_from_blocks(m, two_form=np.eye(m))


def test_nan_matrix_is_not_in_so():
    """A NaN residual fails the so(m,m) check rather than passing it."""
    nan = np.full((4, 4), np.nan)
    with pytest.raises(ValueError, match="not skew"):
        cl.require_so(nan)
    with pytest.raises(ValueError, match="not skew"):
        cl.spin_lie_action(nan)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_spin_action_equivariance(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 6))
    alpha = cl.random_so_element(rng, m)
    v = rand_vec(rng, m)
    act = cl.spin_lie_action(alpha)
    cv = cl.clifford_vector_matrix(v)
    lhs = act @ cv - cv @ act
    rhs = cl.clifford_vector_matrix(alpha @ v)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12 * max(1, np.abs(alpha).max()))


def spin_commutator_sum(alpha):
    """Reference spin action: one quarter of the commutator sum over a
    pairing-dual basis, with dense Clifford matrices."""
    alpha = cl.require_so(alpha)
    m = alpha.shape[0] // 2
    W = cl.wedge_matrices(m)
    C = contractions(m)
    out = np.zeros((1 << m, 1 << m), dtype=complex)
    for i in range(m):
        a_vec = cl.clifford_vector_matrix(alpha[:, i])
        a_cov = cl.clifford_vector_matrix(alpha[:, m + i])
        out += a_vec @ W[i] - W[i] @ a_vec
        out += a_cov @ C[i] - C[i] @ a_cov
    return out / 4.0


@pytest.mark.parametrize("m", range(1, cl.MAX_DIM + 1))
def test_spin_action_matches_commutator_sum(m):
    rng = np.random.default_rng(100 + m)
    for alpha in (cl.random_so_element(rng, m), cl.random_so_element(rng, m) + 1j * cl.random_so_element(rng, m)):
        diff = np.abs(cl.spin_lie_action(alpha) - spin_commutator_sum(alpha)).max()
        assert diff <= 1e-13 * max(1.0, np.linalg.norm(alpha))


def two_stage_spin_table(m):
    """Sparse images ``T[r, c] = [B_r, D_c] / 4`` of the matrix units of
    so(m,m) as triplets: flat ``(row * 2**m + col)`` indices into the spinor
    matrix, flat ``(r * 2m + c)`` indices into ``alpha`` and the values."""
    n = 1 << m
    two_m = np.arange(2 * m, dtype=np.uint64)
    b_wedge, b_bit = (two_m >= m)[:, None, None], (two_m % np.uint64(m))[:, None, None]
    d_wedge, d_bit = (two_m < m)[None, :, None], (two_m % np.uint64(m))[None, :, None]
    idx = np.arange(n, dtype=np.uint64)[None, None, :]

    def product(first, second):
        ok1, mid, s1 = cl._ladder_step(*first, idx)
        ok2, image, s2 = cl._ladder_step(*second, mid)
        return np.where(ok1 & ok2, s1 * s2, 0), image

    bd, image = product((d_wedge, d_bit), (b_wedge, b_bit))
    db, _ = product((b_wedge, b_bit), (d_wedge, d_bit))
    value = 0.25 * (bd - db)
    r, c, col = np.nonzero(value)
    return image[r, c, col].astype(np.int64) * n + col, r * (2 * m) + c, value[r, c, col]


def two_stage_flip_table(m):
    """The flip-mask tables regrouped from ``two_stage_spin_table``'s triplets."""
    n = 1 << m
    out_index, coef_index, value = two_stage_spin_table(m)
    row = out_index // n
    flips = row ^ (out_index % n)
    present = np.zeros(n, dtype=bool)
    present[flips] = True
    masks = np.flatnonzero(present)
    mask_index = np.zeros(n, dtype=np.intp)
    mask_index[masks] = np.arange(len(masks))
    f = mask_index[flips]
    reach = np.zeros((len(masks), 4 * m * m), dtype=bool)
    reach[f, coef_index] = True
    entries = [np.flatnonzero(r) for r in reach]
    coef = np.zeros((len(masks), max(map(len, entries))), dtype=np.intp)
    rank = np.zeros(reach.shape, dtype=np.intp)
    for g, e in enumerate(entries):
        coef[g, : len(e)] = e
        rank[g, e] = np.arange(len(e))
    values = np.zeros(coef.shape + (n,), dtype=complex)
    values[f, rank[f, coef_index], row] = value
    source = np.arange(n) ^ masks[:, None]
    return source, coef, values


@pytest.mark.parametrize("m", range(1, cl.MAX_DIM + 1))
def test_flip_table_matches_two_stage_builder(m):
    """The one-stage table is bit-identical to the triplets regrouped by
    mask, so every spin weight is too."""
    for got, want in zip(cl._spin_flip_table(m), two_stage_flip_table(m), strict=True):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got.real), np.signbit(want.real))


@pytest.mark.parametrize("m", range(2, cl.MAX_DIM + 1))
def test_flip_table_is_bitwise_the_ladder_step_builder(m):
    """The table built from single-ladder signs has the bytes of the one
    built from the ``(2m, 2m, 2**m)`` ``_ladder_step`` products."""
    for got, want in zip(cl._spin_flip_table(m), ladder_step_flip_table(m), strict=True):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def scatter_spin_action(alpha):
    """Reference spin image: one scatter-add over the sparse generator table."""
    m = alpha.shape[-1] // 2
    out_index, coef_index, value = two_stage_spin_table(m)
    out = np.zeros(4**m, dtype=complex)
    np.add.at(out, out_index, alpha.ravel()[coef_index] * value)
    return out.reshape(1 << m, 1 << m)


def random_so_stack(rng, m, shape):
    count = int(np.prod(shape))
    alphas = [cl.random_so_element(rng, m) + 1j * cl.random_so_element(rng, m) for _ in range(count)]
    return np.reshape(alphas, shape + (2 * m, 2 * m))


@pytest.mark.parametrize("m", range(1, cl.MAX_DIM + 1))
def test_flip_weights_densify_to_the_spin_action(m):
    """Batched weights, F = 1 + m(m-1)/2 per element, and
    ``spin_lie_action`` of each element match the table scatter.  The images
    are exactly zero off their two parity blocks, and the weights of one
    parity's entries (``spin_flip_weights(..., parity)``) densify to that
    block, entry for entry up to the rounding of the weights."""
    rng = np.random.default_rng(200 + m)
    alphas = random_so_stack(rng, m, (2, 3))
    weights = cl.spin_flip_weights(alphas)
    assert weights.shape == (2, 3, 1 + m * (m - 1) // 2, 1 << m)
    dense = cl.spin_flip_dense(weights)
    parities = cl._parity_rows(m)
    for parity, rows in enumerate(parities):
        half = cl.spin_flip_weights(alphas, parity)
        assert half.shape == (2, 3, 1 + m * (m - 1) // 2, 1 << (m - 1))
        np.testing.assert_allclose(half, weights[..., rows], rtol=0, atol=1e-15 * np.abs(weights).max())
        assert np.array_equal(cl.spin_flip_dense(weights[..., rows], parity), dense[:, :, rows[:, None], rows])
        assert not dense[:, :, rows[:, None], parities[1 - parity]].any()
    for idx in np.ndindex(2, 3):
        want = scatter_spin_action(alphas[idx])
        for got in (dense[idx], cl.spin_lie_action(alphas[idx])):
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("m", range(1, cl.MAX_DIM + 1))
def test_flip_gather_matches_dense_product(m):
    """The gather applies any weights (not only spin images) as the dense
    product does, with weights and vectors broadcast against each other;
    the column sums on the weights of one parity's entries are those of the
    dense matrices' block on that parity."""
    rng = np.random.default_rng(300 + m)
    n, flips = 1 << m, 1 + m * (m - 1) // 2
    weights = rng.normal(size=(3, 1, flips, n)) + 1j * rng.normal(size=(3, 1, flips, n))
    x = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))
    dense = cl.spin_flip_dense(weights)
    want = np.einsum("...ij,...j->...i", dense, x)
    got = spin_flip_apply(weights, x)
    assert got.shape == (3, 4, n)
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
    for parity, rows in enumerate(cl._parity_rows(m)):
        block = np.abs(dense[..., rows[:, None], rows]).sum(axis=-2)
        np.testing.assert_allclose(cl._flip_column_sums(weights[..., rows], parity), block, rtol=1e-14)


@pytest.mark.parametrize("m", range(1, cl.MAX_DIM + 1))
def test_flip_outer_matches_broadcast_gather(m):
    """Per-entry weights of one form parity applied to every half row at
    once equal the gather broadcast over (operator, row) pairs and the dense
    spin images on the rows of that parity, whose images keep it."""
    rng = np.random.default_rng(400 + m)
    alphas = random_so_stack(rng, m, (3,))
    weights = cl.spin_flip_weights(alphas)
    x = rng.normal(size=(5, 1 << m)) + 1j * rng.normal(size=(5, 1 << m))
    for parity, rows in enumerate(cl._parity_rows(m)):
        half, full = parity_half(x, parity)
        got = cl._spin_flip_outer(np.ascontiguousarray(weights.transpose(2, 0, 1)[rows]), half, parity)
        assert got.shape == (3, 5, 1 << (m - 1))
        want = spin_flip_apply(weights[:, None], full[None])
        assert np.linalg.norm(got - want[..., rows]) <= 1e-14 * np.linalg.norm(want)
        assert not parity_half(want, 1 - parity)[0].any()
        dense = np.stack([cl.spin_lie_action(a) @ full.T for a in alphas]).transpose(0, 2, 1)
        assert np.linalg.norm(got - dense[..., rows]) <= 1e-14 * np.linalg.norm(dense)


def test_flip_weights_reject_nan_and_non_so():
    """One bad element of a stack fails the whole call with the message of
    ``spin_lie_action``; so do a NaN matrix and a shape that is not 2m x 2m."""
    rng = np.random.default_rng(9)
    alphas = random_so_stack(rng, 3, (4,))
    for bad in (np.full((6, 6), np.nan), np.eye(6)):
        stack = alphas.copy()
        stack[2] = bad
        with pytest.raises(ValueError, match="not skew for the split pairing"):
            cl.spin_flip_weights(stack)
        with pytest.raises(ValueError, match="not skew for the split pairing"):
            cl.spin_lie_action(bad)
    with pytest.raises(ValueError):
        cl.spin_flip_weights(np.zeros((3, 5, 5)))


def test_spin_action_equivariance_m8():
    rng = np.random.default_rng(8)
    m = 8
    alpha = cl.random_so_element(rng, m)
    v = rand_vec(rng, m)
    act = cl.spin_lie_action(alpha)
    cv = cl.clifford_vector_matrix(v)
    lhs = act @ cv - cv @ act
    rhs = cl.clifford_vector_matrix(alpha @ v)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12 * max(1, np.abs(alpha).max()))


def test_spin_action_two_form_is_wedge():
    # B = dx1^dx2 acts on spinors as wedging with dx1^dx2
    B = np.array([[0.0, 1.0], [-1.0, 0.0]])
    act = cl.spin_lie_action(cl.two_form_so(B))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0b11, 0] = 1.0
    np.testing.assert_allclose(act, expected, atol=1e-14)

    # and in general the spinor exponential is wedging with exp(B)
    rng = np.random.default_rng(4)
    m = 4
    Bc = rng.normal(size=(m, m))
    Bc = Bc - Bc.T
    two = two_form_spinor(Bc)
    act = cl.spin_lie_action(cl.two_form_so(Bc))
    phi = rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)
    np.testing.assert_allclose(act @ phi, cl.wedge(two, phi), atol=1e-12)
    ebx = cl.spin_group_exp(cl.two_form_so(Bc))
    series = (
        form_vector(m, {(): 1.0})
        + two
        + 0.5 * cl.wedge(two, two)
        + cl.wedge(two, cl.wedge(two, two)) / 6.0
    )
    np.testing.assert_allclose(ebx @ form_vector(m, {(): 1.0}), series, atol=1e-12)


def test_spin_action_bivector_is_double_contraction():
    beta = np.array([[0.0, 1.0], [-1.0, 0.0]])  # d1 ^ d2
    act = cl.spin_lie_action(cl.bivector_so(beta))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0b11] = -1.0  # i_{d1} i_{d2} (dx1^dx2) = -1
    np.testing.assert_allclose(act, expected, atol=1e-14)


def test_spin_action_endo_block():
    # diag(A, -A^T) acts as tr(A)/2 minus sum_ij A_ij dx_j ^ i_{d_i}
    A = np.diag([1.0, -1.0])
    act = cl.spin_lie_action(cl.so_from_blocks(2, endo=A))
    dx1 = form_vector(2, {(1,): 1})
    dx2 = form_vector(2, {(2,): 1})
    np.testing.assert_allclose(act @ dx1, -dx1, atol=1e-14)
    np.testing.assert_allclose(act @ dx2, dx2, atol=1e-14)
    np.testing.assert_allclose(act @ form_vector(2, {(): 1}), 0 * dx1, atol=1e-14)

    # identity endo: scalar part tr/2 = 1 minus the degree operator
    act_id = cl.spin_lie_action(cl.so_from_blocks(2, endo=np.eye(2)))
    np.testing.assert_allclose(act_id, np.diag(1.0 - cl.degrees(2)).astype(complex))


def test_so_from_pair_spin_action():
    rng = np.random.default_rng(31)
    m = 3
    u = rand_vec(rng, m)
    v = rand_vec(rng, m)
    alpha = cl.so_from_pair(u, v)
    assert cl.so_residual(alpha) < 1e-10
    w = rand_vec(rng, m)
    np.testing.assert_allclose(
        alpha @ w,
        2 * (cl.natural_pairing(v, w) * u - cl.natural_pairing(u, w) * v),
        atol=1e-12,
    )
    # spinor side: action = cl(u) cl(v) - <u, v>
    act = cl.spin_lie_action(alpha)
    prod = cl.clifford_vector_matrix(u) @ cl.clifford_vector_matrix(v)
    np.testing.assert_allclose(
        act, prod - cl.natural_pairing(u, v) * np.eye(1 << m), atol=1e-12
    )


def test_group_exp_equivariance():
    rng = np.random.default_rng(5)
    m = 3
    alpha = 0.3 * cl.random_so_element(rng, m)
    E = cl.spin_group_exp(alpha)
    e = cl.so_exp(alpha)
    v = rand_vec(rng, m)
    lhs = E @ cl.clifford_vector_matrix(v) @ np.linalg.inv(E)
    rhs = cl.clifford_vector_matrix(e @ v)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


@pytest.mark.parametrize("m", range(1, 9))
def test_expm_matches_scipy_on_so_stacks(m):
    rng = np.random.default_rng(40 + m)
    alphas = np.stack([cl.random_so_element(rng, m) + 1j * cl.random_so_element(rng, m) for _ in range(6)])
    norms = np.abs(alphas).sum(axis=-2).max(axis=-1)
    # three below 1/2 (no squaring) and three above 4 (squared)
    scale = np.array([0.1, 0.25, 0.45, 4.5, 8.0, 20.0]) / norms
    stack = scale[:, None, None] * alphas
    got = cl._expm(stack)
    assert got.shape == stack.shape
    for a, e in zip(stack, got):
        want = scipy.linalg.expm(a)
        assert np.linalg.norm(e - want) <= 1e-13 * max(1.0, np.abs(a).sum(axis=0).max()) * np.linalg.norm(want)


def test_expm_matches_scipy_on_spin_image_and_rejects_non_finite():
    S = cl.spin_lie_action(0.5 * cl.random_so_element(np.random.default_rng(3), 8))
    assert S.shape == (256, 256) and np.abs(S).sum(axis=0).max() > 4
    want = scipy.linalg.expm(S)
    assert np.linalg.norm(cl._expm(S) - want) <= 1e-13 * np.linalg.norm(want)
    for bad in (np.nan, np.inf, -np.inf):
        a = np.zeros((2, 4, 4))
        a[1, 2, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            cl._expm(a)


def test_degree_component_and_labels():
    m = 3
    phi = form_vector(m, {(): 2.0, (1, 3): -1.0})
    np.testing.assert_allclose(
        np.where(cl.degrees(m) == 2, phi, 0.0), form_vector(m, {(1, 3): -1.0})
    )
