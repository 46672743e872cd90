import functools
import operator

import numpy as np
import pytest

from genkahler import clifford as cl
from genkahler import fields as gf
from genkahler import hodge as gh
from genkahler import structures as gs
from oracles import (
    chevalley_gram,
    dense_gram,
    dict_pack,
    dict_shifted,
    form_vector,
    int64_tables,
    l2_inner,
    lexsort_lookup,
    lexsort_rows,
    lexsort_shift_table,
    lexsort_support,
    merged_exponents,
    parity_half,
    set_support,
    with_constant,
)


@pytest.fixture(scope="module")
def t2():
    pair = gs.standard_kahler_pair(2)
    return gh.TorusBackground(pair, gf.frequencies_box(2, 2))


@pytest.fixture(scope="module")
def t4():
    pair = gs.standard_kahler_pair(4)
    return gh.TorusBackground(pair, gf.frequencies_box(4, 1))


@pytest.fixture(scope="module")
def lap4(t4):
    """The Laplacian of the (+1,+1) component of ``t4``."""
    return gh.laplacian(t4.components["delta+"], t4.gram)


def derivative_block(k, m, h=None):
    """Dense matrix of the twisted derivative on the frequency-k coefficient,
    ``i sum_j k_j dx_j ^ .`` plus wedging by the three-form, built term by term."""
    W = cl.wedge_matrices(m)
    out = np.zeros((cl.spinor_dim(m), cl.spinor_dim(m)), dtype=complex)
    for j, kj in enumerate(k):
        if kj:
            out += 1j * kj * W[j]
    if h is not None:
        out = out + cl.wedge_operator(gf.three_form_spinor(h))
    return out


def constant_operator(support, matrix):
    """The operator whose block is ``matrix`` at every frequency."""
    m = len(next(iter(support)))
    return gh.BlockOperator(support, np.zeros((1, m), dtype=int), np.asarray(matrix)[None])


def test_block_operator_support_discipline():
    support = [(0, 0), (1, 0)]
    op = constant_operator(support, np.eye(4))
    f = gf.FourierField(2, 4, {(0, 0): np.ones(4)})
    np.testing.assert_allclose(op.act(op.support.pack(f))[0], np.ones(4))
    outside = gf.FourierField(2, 4, {(0, 1): np.ones(4)})
    with pytest.raises(ValueError):
        op.act(op.support.pack(outside))
    with pytest.raises(ValueError):
        op.act(np.ones((3, 4)))
    assert (0, 1) not in op.blocks and (1, 0) in op.blocks
    with pytest.raises(ValueError):
        gh.BlockOperator(support, np.zeros((2, 2), dtype=int), np.eye(4)[None])
    with pytest.raises(ValueError):
        gh.BlockOperator([(0, 0, 0)], np.zeros((1, 2), dtype=int), np.eye(4)[None])
    other = constant_operator([(0, 0)], np.eye(4))
    with pytest.raises(ValueError):
        op @ other


def test_block_operator_arithmetic():
    """Coefficient algebra against the evaluated blocks, which are checked
    against ``sum_e (i k)^e C_e`` term by term."""
    support = [(0, 0), (1, 0), (-1, 2), (2, -3)]
    rng = np.random.default_rng(0)
    a_exps = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]
    b_exps = [(0, 0), (0, 1), (0, 2)]
    a_coeffs, b_coeffs = (rng.normal(size=(len(e), 3, 3, 2)) @ [1, 1j] for e in (a_exps, b_exps))
    A = gh.BlockOperator(support, a_exps, a_coeffs)
    B = gh.BlockOperator(support, b_exps, b_coeffs)
    a, b = A.blocks, B.blocks
    product, combination, negated = (A @ B).blocks, (A + 2.0 * B - A).blocks, (-A).blocks
    stack = A.stack
    for s, k in enumerate(A.support):
        want = sum((1j * k[0]) ** e[0] * (1j * k[1]) ** e[1] * C for e, C in zip(a_exps, a_coeffs))
        np.testing.assert_allclose(stack[s], want, rtol=1e-14, atol=1e-13)
        np.testing.assert_allclose(a[k], want, rtol=1e-14, atol=1e-13)
        np.testing.assert_allclose(product[k], a[k] @ b[k], rtol=1e-13, atol=1e-12)
        np.testing.assert_allclose(combination[k], 2.0 * b[k], rtol=1e-13, atol=1e-12)
        np.testing.assert_allclose(negated[k], -a[k])
    # products merge equal exponents: the 15 products give 11 distinct monomials
    assert len((A @ B).exponents) == 11
    # equal exponents given at construction are merged, and sums cancel exactly
    merged = gh.BlockOperator(support, [(1, 0), (1, 0)], a_coeffs[:2])
    np.testing.assert_array_equal(merged.exponents, [(1, 0)])
    np.testing.assert_array_equal(merged.coeffs[0], a_coeffs[0] + a_coeffs[1])
    assert (A - A).coeff_norm() == 0


@pytest.mark.parametrize("m", range(1, 9))
def test_block_operator_merge_matches_unique_oracle(m):
    """The sorted-row merge against ``np.unique(axis=0)`` and a 0/1 merge
    matrix: random tables with duplicates, an empty table, one row and all
    rows equal give the same exponents in the same order and the same sums,
    bit for bit those of adding each group's slices in order."""
    rng = np.random.default_rng(m)
    tables = [
        rng.integers(0, 3, size=(40, m)),
        np.zeros((0, m), dtype=int),
        rng.integers(0, 3, size=(1, m)),
        np.repeat(rng.integers(0, 3, size=(1, m)), 6, axis=0),
    ]
    for exponents in tables:
        coeffs = rng.normal(size=(len(exponents), 2, 2, 2)) @ [1, 1j]
        op = gh.BlockOperator([(0,) * m], exponents, coeffs)
        want_exponents, want_coeffs = merged_exponents(exponents, coeffs)
        assert op.exponents.shape == want_exponents.shape and op.coeffs.shape == want_coeffs.shape
        np.testing.assert_array_equal(op.exponents, want_exponents)
        assert np.abs(op.coeffs - want_coeffs).max(initial=0.0) <= 1e-15 * max(1.0, np.abs(want_coeffs).max(initial=0.0))
        order, starts = gh._sorted_rows(exponents)
        for coeff, group in zip(op.coeffs, np.split(coeffs[order], starts[1:])):
            np.testing.assert_array_equal(coeff, functools.reduce(operator.add, group))


def test_gram_properties():
    rng = np.random.default_rng(1)
    pairs = (
        gs.standard_kahler_pair(2),
        gs.standard_kahler_pair(4),
        gs.random_hermitian_pair(rng, 4),
        gs.random_hermitian_pair(rng, 2),
    )
    assert {pair.orientation for pair in pairs} == {1, -1}
    for pair in pairs:
        A = dense_gram(pair)
        np.testing.assert_allclose(A, A.T, atol=1e-10 * np.linalg.norm(A))
        assert np.min(np.linalg.eigvalsh(A)) > 0
        # the Gram matrix reuses the pair's star: orientation -1 negates it
        star = gs.hodge_star(pair.metric, pair.b_field, 1)
        np.testing.assert_array_equal(pair.orientation * pair.star, star)
        np.testing.assert_array_equal(A, (chevalley_gram(pair.m) @ star).T.real)


@pytest.mark.parametrize("parity", [0, 1])
def test_l2_gram_checks_each_parity_block(parity, monkeypatch):
    """The pair holds its Gram matrix as its two parity blocks, kept real,
    and its constructor checks each, after the star, to be real, symmetric
    and positive definite: a block corrupted after the word basis has read
    it fails with its own message."""
    pair = gs.random_hermitian_pair(np.random.default_rng(5), 4)
    good = pair.star_gram
    assert all(A.dtype == float and A.flags.c_contiguous for A in good)
    size = np.linalg.norm(good[parity])
    skew = np.triu(np.ones_like(good[parity]), 1)
    corruptions = (
        (lambda A: A + 1e-6j * size * np.eye(len(A)), "not real"),
        (lambda A: A + 1e-6 * size * skew, "not symmetric"),
        (lambda A: -A, "singular or indefinite"),
    )
    word_basis = gs._word_basis
    for corrupt, message in corruptions:

        def corrupting(*args):
            out = word_basis(*args)
            gram = args[-1][parity]
            gram[...] = corrupt(gram)
            return out

        monkeypatch.setattr(gs, "_word_basis", corrupting)
        with pytest.raises(ValueError, match=message):
            gs.HermitianPair(pair.J1, pair.J2)


def test_l2_inner_parseval_orthogonality(t2):
    c = form_vector(2, {(1,): 1.0})
    f = t2.support.pack(gf.FourierField(2, 4, {(1, 0): c}))
    g = t2.support.pack(gf.FourierField(2, 4, {(0, 1): c}))
    assert l2_inner(f, g, t2.gram) == 0
    assert l2_inner(f, f, t2.gram).real > 0


def test_l2_inner_hermitian_and_positive(t2):
    rng = np.random.default_rng(2)
    f = t2.support.pack(gf.random_field(rng, 2, 4, gf.frequencies_box(2, 1)))
    g = t2.support.pack(gf.random_field(rng, 2, 4, gf.frequencies_box(2, 1)))
    hfg = l2_inner(f, g, t2.gram)
    hgf = l2_inner(g, f, t2.gram)
    assert hgf == pytest.approx(np.conj(hfg), abs=1e-12)
    assert l2_inner(f, f, t2.gram).real > 0
    assert abs(l2_inner(f, f, t2.gram).imag) < 1e-12


def test_flat_plane_generator_norm(t2):
    # |exp(i omega)|^2 = 2 on the flat Kahler plane (hand-computed)
    w = t2.support.pack(gf.FourierField.constant(2, form_vector(2, {(): 1.0, (1, 2): 1j})))
    assert l2_inner(w, w, t2.gram).real == pytest.approx(2.0, abs=1e-13)
    assert gh.l2_norm(w, t2.gram) == pytest.approx(np.sqrt(2.0), abs=1e-13)


def test_component_shift_labels(t4, lagrange_bigrading):
    """Only the four level-one shifts are components: the twelve torsion-type
    (+-3) shifts raise like any other label, since their projector sums of
    the dense untwisted derivative vanish (the Lagrange oracle, on a Kahler
    and a b-field pair)."""
    torsion = [s for s in gh.COMPONENT_SHIFTS if s not in gh.DELTA_SHIFTS.values()]
    assert len(torsion) == 12
    for shift in [(2, 0), (0, 0), *torsion]:
        with pytest.raises(ValueError, match="unsupported shift label"):
            gh.component_operator(shift, t4.pair, t4.support)
    scale = max(np.linalg.norm(derivative_block(k, 4)) for k in t4.support)
    bfield_pair = gs.random_hermitian_pair(np.random.default_rng(12), 4, b_scale=0.7)
    for pair in (t4.pair, bfield_pair):
        grading = lagrange_bigrading(pair)
        for shift in torsion:
            ref = projector_sum_component(shift, grading, 4, t4.support)
            assert max(np.linalg.norm(B) for B in ref.values()) <= 1e-10 * scale, shift


def projector_sum_component(shift, grading, m, support, h=None):
    """Reference graded component: per frequency block, the projector sum
    ``sum_{(p,q)} P_{p+dp,q+dq} D_k P_{pq}`` of the dense derivative block
    over ``grading`` (the Lagrange oracle, independent of the library route)."""
    dp, dq = shift
    out = {}
    for k in support:
        Dk = derivative_block(k, m, h)
        out[tuple(k)] = sum(
            grading[(p + dp, q + dq)] @ Dk @ Ppq for (p, q), Ppq in grading.items() if (p + dp, q + dq) in grading
        )
    return out


def random_three_form(rng, m):
    A = rng.normal(size=(m, m, m))
    perms = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1, (1, 0, 2): -1, (0, 2, 1): -1, (2, 1, 0): -1}
    return sum(sign * A.transpose(perm) for perm, sign in perms.items()) / 6.0


def small_support(m):
    """k = 0, every unit vector, and two mixed frequencies (spans the affine dependence)."""
    eye = np.eye(m, dtype=int)
    mixed = [np.arange(m) % 3 - 1, (-1) ** np.arange(m) * (np.arange(m) % 2 + 1)]
    return [tuple(int(v) for v in k) for k in [np.zeros(m, dtype=int), *eye, *mixed]]


@pytest.mark.parametrize("twisted", [False, True])
@pytest.mark.parametrize("m", [4, 6])
def test_component_operator_matches_projector_sum(m, twisted, lagrange_bigrading):
    """Untwisted, each level-one component and the derivative against the
    Lagrange projector sums of the dense derivative blocks.  Twisted, the
    oracle's block at k = 0 is exactly H^, and its 16 projector sums are the
    constant parts ``shift_parts(H^, shifts)`` that verify-hodge reads, which
    add up to H^."""
    rng = np.random.default_rng(40 + m + twisted)
    pair = gs.random_hermitian_pair(rng, m, b_scale=0.7)
    assert np.linalg.norm(pair.b_field) > 0.1
    grading = lagrange_bigrading(pair)
    if twisted:
        zero = (0,) * m
        h = random_three_form(rng, m)
        wedge = cl.wedge_operator(gf.three_form_spinor(h))
        np.testing.assert_array_equal(derivative_block(zero, m, h), wedge)
        scale = np.linalg.norm(wedge)
        assert scale > 0.5
        parts = pair.shift_parts(wedge, gh.COMPONENT_SHIFTS)
        for shift, part in parts.items():
            ref = projector_sum_component(shift, grading, m, [zero], h)[zero]
            assert np.linalg.norm(part - ref) <= 1e-10 * scale, shift
        assert np.linalg.norm(sum(parts.values()) - wedge) <= 1e-13 * scale
        assert max(np.linalg.norm(parts[s]) for s in gh.COMPONENT_SHIFTS if 3 in map(abs, s)) > 1e-2 * scale
        return
    support = gf.frequencies_box(4, 1) if m == 4 else small_support(m)
    new = {shift: gh.component_operator(shift, pair, support) for shift in gh.DELTA_SHIFTS.values()}
    ref = {shift: projector_sum_component(shift, grading, m, support) for shift in new}
    scale = max(np.linalg.norm(B) for blocks in ref.values() for B in blocks.values())
    assert scale > 1.0
    for shift in new:
        blocks = new[shift].blocks
        assert set(blocks) == set(ref[shift])
        for k, B in ref[shift].items():
            assert np.linalg.norm(blocks[k] - B) <= 1e-10 * scale, (shift, k)
    derivative = gh.derivative_operator(m, support).blocks
    for k in support:
        assert np.linalg.norm(derivative[k] - derivative_block(k, m)) <= 1e-10 * scale, k


@pytest.mark.parametrize("twisted", [False, True])
def test_packed_derivative_matches_derivative_block_t8(twisted):
    """The stacked-row derivative (``derivative_rows``, the untwisted
    background on the half rows of each form parity and the coefficient
    operator) against the dense block per frequency, and the packed rows
    of ``twisted_derivative``, the one route that takes a twist, against
    the dense twisted block."""
    rng = np.random.default_rng(80 + twisted)
    m = 8
    h = random_three_form(rng, m) if twisted else None
    support = gh.Support(small_support(m) + [(1, -1, 0, 2, 0, 0, 1, 0)])
    rows = rng.normal(size=(len(support), 2**m)) + 1j * rng.normal(size=(len(support), 2**m))
    packed = gf.derivative_rows(support.frequencies, rows)
    bg = gh.TorusBackground(gs.standard_kahler_pair(m), support)
    for parity in (0, 1):
        half, full = parity_half(rows, parity)
        image = gf.derivative_rows(support.frequencies, full)
        np.testing.assert_array_equal(bg.differentiate(half, parity), parity_half(image, 1 - parity)[0])
        assert not parity_half(image, parity)[0].any()
    # the coefficient operator acting through its blocks
    acted = gh.derivative_operator(m, support).act(rows)
    assert np.linalg.norm(acted - packed) <= 1e-13 * np.linalg.norm(packed)
    field = support.pack(gf.twisted_derivative(support.unpack(rows, gf.FourierField, m, 2**m), h))
    if not twisted:
        np.testing.assert_array_equal(field, packed)
    for s, k in enumerate(support):
        want = derivative_block(k, m) @ rows[s]
        assert np.linalg.norm(packed[s] - want) <= 1e-13 * np.linalg.norm(want), k
        want = derivative_block(k, m, h) @ rows[s]
        assert np.linalg.norm(field[s] - want) <= 1e-13 * np.linalg.norm(want), k


def wedge_matrix_derivative_rows(freqs, rows, h=None):
    """``derivative_rows`` by the dense wedge matrices, one product per torus
    direction, plus the twist as one product."""
    out = np.zeros(rows.shape, dtype=complex)
    for j, W in enumerate(cl.wedge_matrices(freqs.shape[1])):
        out += 1j * freqs[:, j, None] * (rows @ W.T)
    if h is not None:
        out += rows @ cl.wedge_operator(gf.three_form_spinor(h)).T
    return out


@pytest.mark.parametrize("twisted", [False, True])
@pytest.mark.parametrize("m", [4, 8])
def test_derivative_rows_matches_wedge_matrix_route(m, twisted):
    """``derivative_rows``, and with a twist the packed rows of
    ``twisted_derivative``, against the dense wedge matrices."""
    rng = np.random.default_rng(60 + m + twisted)
    h = random_three_form(rng, m) if twisted else None
    support = gh.Support(small_support(m) + [tuple(rng.integers(-3, 4, size=m))])
    freqs = support.frequencies
    rows = rng.normal(size=(len(freqs), 2**m)) + 1j * rng.normal(size=(len(freqs), 2**m))
    want = wedge_matrix_derivative_rows(freqs, rows, h)
    if twisted:
        got = support.pack(gf.twisted_derivative(support.unpack(rows, gf.FourierField, m, 2**m), h))
    else:
        got = gf.derivative_rows(freqs, rows)
    assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)


@pytest.mark.parametrize("m, kind", [(4, "random"), (6, "random"), (8, "flat")])
def test_background_apply_matches_component_operator(m, kind):
    """The Clifford-gather action of each component on the half rows of each
    form parity, alone and with all four stacked on scaled rows, against its
    coefficient operator acting through its blocks on the full rows of that
    parity, whose image has the other parity; the norm on the Gram block of
    a parity is that of the full rows."""
    rng = np.random.default_rng(70 + m)
    pair = gs.random_hermitian_pair(rng, m, b_scale=0.7) if kind == "random" else gs.standard_kahler_pair(m)
    support = gh.Support(gf.frequencies_box(4, 1) if m == 4 else small_support(m))
    bg = gh.TorusBackground(pair, support)
    rows = rng.normal(size=(len(support), 2**m)) + 1j * rng.normal(size=(len(support), 2**m))
    names = list(gh.DELTA_SHIFTS)
    for parity in (0, 1):
        half, full = parity_half(rows, parity)
        assert bg.norm(half, parity) == pytest.approx(gh.l2_norm(full, bg.gram), rel=1e-13)
        stacked = bg.apply(names, np.stack([half * (1 + a) for a in range(4)]), parity)
        for a, (name, shift) in enumerate(gh.DELTA_SHIFTS.items()):
            image = gh.component_operator(shift, pair, support).act(full)
            want = parity_half(image, 1 - parity)[0]
            got = bg.apply([name], half[None], parity)[0]
            assert np.linalg.norm(want) > 1.0
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), name
            assert np.linalg.norm(stacked[a] - (1 + a) * want) <= 1e-13 * np.linalg.norm((1 + a) * want), name
            assert not parity_half(image, parity)[0].any(), name
    with pytest.raises(ValueError, match="do not match"):
        bg.apply(["delta+"], half[None, 1:], 1)
    with pytest.raises(ValueError, match="do not match"):
        bg.apply(["delta+"], rows[None], 0)
    with pytest.raises(ValueError, match="do not match"):
        bg.apply(names[:2], half[None], 1)


def test_packed_act_and_norm_match_per_frequency_loop():
    """Batched act, inner product and norm on a Gram matrix far from orthonormal."""
    rng = np.random.default_rng(90)
    pair = gs.random_hermitian_pair(rng, 4, b_scale=0.7)
    gram = dense_gram(pair)
    assert np.linalg.norm(gram - np.eye(16)) > 1.0
    op = gh.component_operator((1, 1), pair, gf.frequencies_box(4, 1))
    f, g = (rng.normal(size=(len(op.support), 16)) + 1j * rng.normal(size=(len(op.support), 16)) for _ in range(2))
    acted = op.act(f)
    for s, (k, block) in enumerate(op.blocks.items()):
        np.testing.assert_allclose(acted[s], block @ f[s], rtol=1e-13, atol=1e-13 * np.linalg.norm(acted))
    want = sum(g[s].conj() @ gram @ f[s] for s in range(len(f)))
    assert l2_inner(f, g, gram) == pytest.approx(want, rel=1e-13)
    norm = np.sqrt(sum((f[s].conj() @ gram @ f[s]).real for s in range(len(f))))
    assert gh.l2_norm(f, gram) == pytest.approx(norm, rel=1e-13)


def test_component_operator_matches_projector_sum_t8(lagrange_bigrading):
    pair = gs.standard_kahler_pair(8)
    support = [(0,) * 8, (1,) + (0,) * 7, (0, 1, 1) + (0,) * 5]
    new = gh.component_operator((1, 1), pair, support).blocks
    ref = projector_sum_component((1, 1), lagrange_bigrading(pair), 8, support)
    scale = max(np.linalg.norm(B) for B in ref.values())
    for k, B in ref.items():
        assert np.linalg.norm(new[k] - B) <= 1e-10 * scale, k


def test_component_operator_all_shifts_t8_bfield(bfield_t8):
    pair, grading = bfield_t8
    k = (1, -1, 0, 2, 0, 0, 1, 0)
    scale = np.linalg.norm(derivative_block(k, 8))
    for shift in gh.DELTA_SHIFTS.values():
        new = gh.component_operator(shift, pair, [(0,) * 8, k]).blocks
        ref = projector_sum_component(shift, grading, 8, [k])[k]
        assert np.linalg.norm(new[k] - ref) <= 1e-10 * scale, shift
        assert np.linalg.norm(new[(0,) * 8]) == 0


def test_support_is_deduplicated_once(t4):
    freqs = gf.frequencies_box(4, 1)
    repeated = freqs[::-1] + freqs[::3]
    bg = gh.TorusBackground(t4.pair, repeated)
    assert isinstance(bg.support, gh.Support) and bg.support == t4.support
    for name in ("delta+", "delta_bar-"):
        op = gh.component_operator(gh.DELTA_SHIFTS[name], t4.pair, repeated)
        assert op.support == t4.support
        np.testing.assert_array_equal(op.stack, t4.components[name].stack)
    # a Support is taken as it is, without sorting it again
    assert gh.component_operator((1, 1), t4.pair, bg.support).support is bg.support
    assert gh.derivative_operator(4, bg.support).support is bg.support


@pytest.mark.parametrize("m", range(1, 9))
def test_support_table_is_the_sorted_set_and_looks_rows_up(m):
    """A support holds the rows and order of ``sorted(set(...))`` in its
    int64 table, from tuples with duplicates and negative entries, numpy-int
    tuples, an ndarray, one row or none; ``rows``, ``pack`` and the shift
    tables match dict lookups, for absent and repeated keys too."""
    rng = np.random.default_rng(m)
    freqs = [tuple(rng.integers(-3, 4, size=m).tolist()) for _ in range(30)]
    freqs += freqs[:10]
    for given in (freqs, [tuple(np.int64(v) for v in k) for k in freqs], np.array(freqs), freqs[:1], []):
        support, want = gh.Support(given), set_support(given)
        assert support == want and all(type(v) is int for k in support for v in k)
        assert support.table.dtype == np.int64 and support.table.tolist() == [list(k) for k in want]
        assert not support.table.flags.writeable
    support = gh.Support(freqs)
    index = {k: row for row, k in enumerate(support)}
    absent = [tuple(rng.integers(4, 6, size=m).tolist()) for _ in range(5)]
    keys = absent + list(support)[::-1] + absent[:2] + list(support)[:3]
    assert support.rows(np.array(keys, dtype=np.int64)).tolist() == [index.get(k, -1) for k in keys]
    for p in [(0,) * m, freqs[0], absent[0]]:
        got = support.rows(gh._shifted_rows(support.table, [p]))
        np.testing.assert_array_equal(got, dict_shifted(support, p))
    field = gf.random_field(rng, m, 2, freqs[::3])
    np.testing.assert_array_equal(support.pack(field), dict_pack(support, field))


def test_support_rejects_frequencies_outside_int64():
    for freqs in ([(2**63,)], [(0, -(2**63) - 1)]):
        with pytest.raises(ValueError, match="int64"):
            gh.Support(freqs)
    assert gh.Support([(-(2**63),), (2**63 - 1,)]).table.tolist() == [[-(2**63)], [2**63 - 1]]
    # a shift reaching the ends of the range exactly is kept, one past them raises
    table = np.array([[-1], [0]], dtype=np.int64)
    assert gh._shifted_rows(table, [(2**63 - 1,), (-(2**63) + 1,)]).tolist() == [
        [2**63 - 2], [2**63 - 1], [-(2**63)], [-(2**63) + 1]
    ]
    for rows, step in ((table, (-(2**63),)), (table + 2, (2**63 - 2,)), (table, (2**63,))):
        with pytest.raises(ValueError, match="int64"):
            gh._shifted_rows(rows, [(0,), step])


@pytest.mark.parametrize("m", range(1, 9))
def test_keyed_lookups_match_the_lexsort_oracle(m):
    """The int64 keys of ``Support`` against the lexicographic sort they
    replaced: the deduplicated table, the stable group order of
    ``_sorted_rows``, ``rows`` of present, repeated, absent and no keys, and
    the shift tables of steps whose sums stay in int64, on every table of
    ``int64_tables``; a step whose sums leave int64 raises on both routes."""
    rng = np.random.default_rng(100 + m)
    tables = int64_tables(rng, m)
    if m == 8:
        box = functools.reduce(operator.mul, (len(np.unique(c)) for c in tables[-1].T))
        assert box > 2**63
    for given in tables:
        given = np.concatenate([given, given[::7]])  # repeated rows
        support = gh.Support(given)
        np.testing.assert_array_equal(support.table, lexsort_support(given))
        for got, want in zip(gh._sorted_rows(given), lexsort_rows(given)):
            np.testing.assert_array_equal(got, want)
        table = support.table
        absent = table[rng.integers(0, len(table), size=20)].copy()
        absent[np.arange(20), rng.integers(0, m, size=20)] ^= 1 << int(rng.integers(0, 62))
        keys = np.concatenate([table[rng.permutation(len(table))], absent, table[:5], np.zeros((1, m), dtype=np.int64)])
        for query in (keys, keys[:0]):
            np.testing.assert_array_equal(support.rows(query), lexsort_lookup(table, query))
        assert (lexsort_lookup(table, absent) < 0).any()
        pairs = rng.integers(0, len(table), size=(12, 2))
        moves = table[pairs[:, 0]] - table[pairs[:, 1]]  # may wrap: those steps raise
        candidates = [np.zeros((1, m), dtype=np.int64), moves[:6], moves[6:], absent[:3]]
        for steps in candidates:
            try:
                want = lexsort_shift_table(table, steps)
            except ValueError as exc:
                assert "int64" in str(exc)
                with pytest.raises(ValueError, match="int64"):
                    support.shifted_rows(steps)
            else:
                np.testing.assert_array_equal(support.shifted_rows(steps), want)


def test_components_sum_to_derivative(t4):
    total = None
    for op in t4.components.values():
        total = op if total is None else total + op
    assert (total - t4.derivative).coeff_norm() < 1e-9


def test_zero_frequency_blocks_vanish_without_twist(t4):
    zero = (0, 0, 0, 0)
    assert np.linalg.norm(t4.derivative.blocks[zero]) == 0
    assert np.linalg.norm(t4.components["delta+"].blocks[zero]) < 1e-14


def test_adjoint_defining_property(t4):
    rng = np.random.default_rng(3)
    f = t4.support.pack(gf.random_field(rng, 4, 16, gf.frequencies_box(4, 1)))
    g = t4.support.pack(gf.random_field(rng, 4, 16, gf.frequencies_box(4, 1)))
    op = t4.components["delta+"]
    star = t4.adjoint(op)
    lhs = l2_inner(op.act(f), g, t4.gram)
    rhs = l2_inner(f, star.act(g), t4.gram)
    assert lhs == pytest.approx(rhs, abs=1e-10)
    # involutive
    assert (t4.adjoint(star) - op).coeff_norm() < 1e-10


def test_adjoint_sign_pattern(t4):
    comp = t4.components
    r_plus = (t4.adjoint(comp["delta+"]) + comp["delta_bar+"]).coeff_norm()
    r_minus = (t4.adjoint(comp["delta-"]) - comp["delta_bar-"]).coeff_norm()
    assert r_plus < 1e-9
    assert r_minus < 1e-9


def test_adjoint_sign_pattern_random_constant_pair():
    rng = np.random.default_rng(4)
    pair = gs.random_hermitian_pair(rng, 4)
    bg = gh.TorusBackground(pair, gf.frequencies_box(4, 1))
    comp = bg.components
    scale = max(1.0, comp["delta+"].coeff_norm())
    assert (bg.adjoint(comp["delta+"]) + comp["delta_bar+"]).coeff_norm() < 1e-8 * scale
    assert (bg.adjoint(comp["delta-"]) - comp["delta_bar-"]).coeff_norm() < 1e-8 * scale


def test_laplacian_identities(t4, lap4):
    lap_d = gh.laplacian(t4.derivative, t4.gram)
    laps = {name: gh.laplacian(op, t4.gram) for name, op in t4.components.items()}
    for name, lap in laps.items():
        assert (lap_d - 4.0 * lap).coeff_norm() < 1e-9, name
    zero = gh.BlockOperator(t4.support, np.zeros((0, 4), dtype=int), np.zeros((0, 16, 16)))
    assert gh.laplacian(zero, t4.gram).coeff_norm() == 0
    # the closed form 4 Lap(k) = |k|^2_{g^-1} Id at every frequency of the support
    k2 = np.sum(t4.support.frequencies**2, axis=1)
    np.testing.assert_allclose(4.0 * lap4.stack, k2[:, None, None] * np.eye(16), atol=1e-12)


def test_laplacian_self_adjoint_psd_and_preserves_grading(t4, lap4):
    star = t4.adjoint(lap4)
    assert (star - lap4).coeff_norm() < 1e-9
    L = np.linalg.cholesky(t4.gram)
    T = L.T
    Tinv = np.linalg.inv(T)
    blocks = lap4.blocks
    for k in [(0, 0, 0, 0), (1, 0, 0, 0), (1, -1, 0, 1)]:
        Dp = T @ blocks[k] @ Tinv
        assert np.min(np.linalg.eigvalsh(0.5 * (Dp + Dp.conj().T))) > -1e-10
    for (p, q), Ppq in t4.pair.bigrading.items():
        for k in [(1, 0, 0, 0), (0, 1, -1, 0)]:
            np.testing.assert_allclose(blocks[k] @ Ppq, Ppq @ blocks[k], atol=1e-9)


def test_green_inverts_laplacian_off_kernel(t4, lap4):
    rng = np.random.default_rng(5)
    raw = t4.support.pack(gf.random_field(rng, 4, 16, gf.frequencies_box(4, 1)))
    rho = t4.derivative.act(raw)  # exact, hence orthogonal to harmonics
    for parity in (0, 1):
        half, full = parity_half(raw, parity)
        np.testing.assert_allclose(parity_half(t4.derivative.act(full), 1 - parity)[1], t4.derivative.act(full), atol=1e-13)
        np.testing.assert_allclose(t4.differentiate(half, parity), parity_half(rho, 1 - parity)[0], atol=1e-13)
    back = lap4.act(t4.green[:, None] * rho)
    assert np.linalg.norm(back - rho) < 1e-10 * max(1.0, np.linalg.norm(rho))
    # the scalar Green operator inverts every Laplacian block off k = 0
    inverted = t4.green[:, None, None] * lap4.stack
    off_kernel = np.array([any(k) for k in t4.support])
    np.testing.assert_allclose(inverted[off_kernel], np.eye(16)[None].repeat(off_kernel.sum(), 0), atol=1e-12)
    assert not inverted[~off_kernel].any()


def test_green_same_for_all_components(t4):
    for name in ("delta-", "delta_bar+", "delta_bar-"):
        lap = gh.laplacian(t4.components[name], t4.gram)
        assert_blocks_close(scalar_blocks(t4.support, t4.green, 16), oracle_green(lap, t4.gram))


def test_green_kills_harmonics(t4, lap4):
    psi = t4.support.pack(gf.FourierField.constant(4, t4.pair.canonical_generator()))
    assert np.linalg.norm(t4.green[:, None] * psi) < 1e-12
    # the harmonic part psi - Lap G psi is psi itself
    harmonic = psi - lap4.act(t4.green[:, None] * psi)
    assert np.linalg.norm(harmonic - psi) < 1e-12


def test_harmonic_projector_properties(t4, lap4):
    """``I - G Lap``, evaluated per block, is the identity at ``k = 0`` and zero
    elsewhere, as for the oracle Green operator; it is idempotent and
    commutes with the grading."""
    lap = lap4.stack
    harm = np.eye(16) - t4.green[:, None, None] * lap
    oracle = oracle_green(lap4, t4.gram)
    alt = np.stack([np.eye(16) - oracle[k] @ L for k, L in zip(t4.support, lap)])
    assert np.linalg.norm(harm - alt) < 1e-9
    assert np.linalg.norm(harm @ harm - harm) < 1e-9
    indicator = np.array([not any(k) for k in t4.support], dtype=float)
    np.testing.assert_allclose(harm, indicator[:, None, None] * np.eye(16), atol=1e-12)
    for (p, q), Ppq in t4.pair.bigrading.items():
        assert np.linalg.norm(harm @ Ppq - Ppq @ harm) < 1e-9


@pytest.mark.parametrize("m", [4, 6])
def test_scalar_green_matches_operator_route(m):
    pair = gs.random_hermitian_pair(np.random.default_rng(70 + m), m, b_scale=0.7)
    assert np.linalg.norm(pair.b_field) > 0.1
    support = gf.frequencies_box(4, 1) if m == 4 else small_support(m)
    bg = gh.TorusBackground(pair, support)
    zero = (0,) * m
    assert zero in bg.support
    indicator = np.array([k == zero for k in bg.support], dtype=float)
    for name in gh.DELTA_SHIFTS:
        lap = gh.laplacian(bg.components[name], bg.gram)
        green = oracle_green(lap, bg.gram)
        assert_blocks_close(scalar_blocks(bg.support, bg.green, 2**m), green)
        harmonic = np.eye(2**m) - lap.stack @ np.stack([green[k] for k in bg.support])
        np.testing.assert_allclose(harmonic, indicator[:, None, None] * np.eye(2**m), atol=1e-10)
    assert bg.green[bg.support.index(zero)] == 0


def oracle_adjoint(op, gram):
    """Reference adjoint: one ``solve(gram, B^H gram)`` per block."""
    return {k: np.linalg.solve(gram, B.conj().T @ gram) for k, B in op.blocks.items()}


def oracle_green(lap, gram, rcond=1e-10):
    """Reference Green operator, block by block: transport to ``T D T^-1``
    (``gram = T^T T``), hermitian part, ``eigh``, eigenvalues at most
    ``rcond`` times the block's largest modulus dropped, transport back."""
    T = np.linalg.cholesky(gram).T
    Tinv = np.linalg.inv(T)
    out = {}
    for k, D in lap.blocks.items():
        Dp = T @ D @ Tinv
        w, U = np.linalg.eigh(0.5 * (Dp + Dp.conj().T))
        wmax = np.max(np.abs(w))
        inv = np.array([1.0 / x if wmax > 0 and abs(x) > rcond * wmax else 0.0 for x in w])
        out[k] = Tinv @ ((U * inv) @ U.conj().T) @ T
    return out


def assert_blocks_close(op, ref):
    """An operator's evaluated blocks (or a frequency-keyed dict) against the reference blocks."""
    got = op.blocks if isinstance(op, gh.BlockOperator) else op
    scale = max(np.linalg.norm(B) for B in ref.values())
    assert set(got) == set(ref)
    for k, B in ref.items():
        assert np.linalg.norm(got[k] - B) <= 1e-10 * max(scale, 1e-300), k


def scalar_blocks(support, scalars, n):
    """Frequency-keyed blocks ``scalars[s] Id`` of a per-row scalar operator."""
    return {k: c * np.eye(n) for k, c in zip(support, scalars)}


def assert_matches_oracle(op, gram, pair=None):
    """Adjoint and Laplacian, evaluated per frequency, against the per-block
    route; with an untwisted ``pair``, also the closed-form Green operator."""
    ref_star = oracle_adjoint(op, gram)
    assert_blocks_close(gh.adjoint(op, gram), ref_star)
    lap = gh.laplacian(op, gram)
    blocks = op.blocks
    assert_blocks_close(lap, {k: blocks[k] @ S + S @ blocks[k] for k, S in ref_star.items()})
    if pair is not None:
        green = gh.green_operator(pair, op.support)
        assert_blocks_close(scalar_blocks(op.support, green, op.value_dim), oracle_green(lap, gram))


@pytest.mark.parametrize("twisted", [False, True])
@pytest.mark.parametrize("m", [4, 6])
def test_batched_algebra_matches_per_block_oracle(m, twisted):
    """Untwisted components, and with a twist the mixed-degree operators of
    a component plus the constant graded part of ``H^``."""
    rng = np.random.default_rng(60 + m + twisted)
    pair = gs.random_hermitian_pair(rng, m, b_scale=0.7)
    assert np.linalg.norm(pair.b_field) > 0.1
    h = random_three_form(rng, m) if twisted else None
    support = gf.frequencies_box(4, 1) if m == 4 else small_support(m)
    gram = dense_gram(pair)
    for shift in ((1, 1), (-1, 1)):
        op = gh.component_operator(shift, pair, support)
        if twisted:
            op = with_constant(op, pair.shift_parts(cl.wedge_operator(gf.three_form_spinor(h)), [shift])[shift])
            assert len(op.exponents) == m + 1
        assert_matches_oracle(op, gram, None if twisted else pair)


def test_green_oracle_all_kernel_block(t4):
    # at k = 0 the untwisted derivative vanishes: the whole block is kernel
    op = gh.component_operator((1, 1), t4.pair, [(0, 0, 0, 0), (1, 0, 0, 0)])
    assert np.linalg.norm(op.blocks[(0, 0, 0, 0)]) < 1e-14
    assert_matches_oracle(op, t4.gram, t4.pair)
    green = gh.green_operator(t4.pair, op.support)
    assert green[op.support.index((0, 0, 0, 0))] == 0
    assert np.linalg.norm(oracle_green(gh.laplacian(op, t4.gram), t4.gram)[(0, 0, 0, 0)]) < 1e-12


def test_zero_operator_matches_oracle(t4):
    zero = gh.BlockOperator(t4.support, np.zeros((0, 4), dtype=int), np.zeros((0, 16, 16)))
    assert_matches_oracle(zero, t4.gram)
    lap = gh.laplacian(zero, t4.gram)
    assert lap.coeff_norm() == 0 and not lap.stack.any()
    assert not any(B.any() for B in oracle_green(lap, t4.gram).values())


def scalar_quadratic_operator(support, q):
    """The block operator of ``sum_{j,l} kappa_j kappa_l q_jl Id``."""
    m = len(q)
    units = np.eye(m, dtype=int)
    exponents = (units[:, None] + units[None]).reshape(-1, m)
    return gh.BlockOperator(support, exponents, q.reshape(-1, 1, 1) * np.eye(2**m))


@pytest.mark.parametrize("m,twisted", [(2, False), (4, False), (4, True), (6, False), (6, True)])
def test_anticommutators_match_dense_products(m, twisted):
    """Every closed-form anticommutator of two untwisted level-one components
    is the dense product's operator coefficient by coefficient, with the
    dense operator's norm and no traceless part.  A twist of order one adds
    constants to the components whose products the closed form leaves out,
    which is why verify-hodge checks the splitting identities untwisted only."""
    rng = np.random.default_rng(80 + m + twisted)
    pair = gs.random_hermitian_pair(rng, m)
    h = random_three_form(rng, m) if twisted else None
    support = gh.Support([(0,) * m])
    ops = {name: gh.component_operator(shift, pair, support) for name, shift in gh.DELTA_SHIFTS.items()}
    if twisted:
        wedge = cl.wedge_operator(gf.three_form_spinor(h))
        parts = pair.shift_parts(wedge, gh.DELTA_SHIFTS.values())
        ops = {name: with_constant(ops[name], parts[gh.DELTA_SHIFTS[name]]) for name in ops}
    anti = gh.anticommutators(pair)
    n = 2**m
    gaps = []
    for a in ops:
        for b in ops:
            dense = ops[a] @ ops[b] + ops[b] @ ops[a]
            size = ops[a].coeff_norm() * ops[b].coeff_norm()
            gaps.append((dense - scalar_quadratic_operator(support, anti[a, b])).coeff_norm() / size)
            if not twisted:
                norm = gh.scalar_quadratic_norm(anti[a, b])
                assert norm == pytest.approx(dense.coeff_norm(), rel=1e-13, abs=1e-13 * size)
                traceless = dense.coeffs - np.trace(dense.coeffs, axis1=1, axis2=2)[:, None, None] / n * np.eye(n)
                assert np.linalg.norm(traceless) <= 1e-13 * size
    assert max(gaps) > 1e-3 if twisted else max(gaps) <= 1e-13
