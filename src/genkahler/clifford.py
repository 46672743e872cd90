"""Forms-as-spinors toolkit for the split-signature space R^m + (R^m)*.

A complex form on R^m is stored as a dense vector of length ``2**m`` indexed
by subsets of {1..m}: bit ``i`` of the index stands for ``dx_{i+1}``, and
basis monomials are written in ascending order (for m=2, index 0b11 is
dx1^dx2, index 0 is the constant 1).

Elements of the doubled space R^{2m} are stored as ``(X; xi)`` with the first
m entries the vector part and the last m the covector part.  The canonical
split-signature pairing is ``<X+xi, Y+eta> = (xi(Y) + eta(X)) / 2``; it is
complex-bilinear throughout (no conjugation).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: Largest supported number of torus/vector-space dimensions.  Everything is
#: dense, so spinor spaces have dimension 2**m and so-elements act on R^{2m};
#: beyond 8 the dense tables stop being a sensible design.
MAX_DIM = 8

__all__ = [
    "MAX_DIM",
    "spinor_dim",
    "pairing_matrix",
    "natural_pairing",
    "wedge",
    "wedge_operator",
    "transpose_form",
    "chevalley_gram",
    "chevalley_pairing",
    "chevalley_symmetry_sign",
    "wedge_matrices",
    "clifford_matrices",
    "clifford_vector_matrix",
    "clifford_relation_residual",
    "clifford_act",
    "so_residual",
    "require_so",
    "so_from_pair",
    "two_form_so",
    "bivector_so",
    "random_so_element",
    "spin_flip_weights",
    "spin_flip_dense",
    "spin_lie_action",
    "spin_group_exp",
    "so_exp",
]


def _check_m(m: int) -> int:
    m = int(m)
    if not 1 <= m <= MAX_DIM:
        raise ValueError(f"dimension m={m} outside supported range 1..{MAX_DIM}")
    return m


def spinor_dim(m: int) -> int:
    """Dimension ``2**m`` of the space of forms on R^m."""
    return 1 << _check_m(m)


def _infer_m_from_spinor(phi: np.ndarray) -> int:
    n = phi.shape[-1]
    m = n.bit_length() - 1
    if 1 << m != n:
        raise ValueError(f"spinor length {n} is not a power of two")
    return _check_m(m)


def _infer_m_from_so(alpha: np.ndarray) -> int:
    if alpha.ndim != 2 or alpha.shape[0] != alpha.shape[1] or alpha.shape[0] % 2:
        raise ValueError(f"expected a square 2m x 2m matrix, got shape {alpha.shape}")
    return _check_m(alpha.shape[0] // 2)


@lru_cache(maxsize=None)
def degrees(m: int) -> np.ndarray:
    """Form degree (bit count) of every subset index, shape ``(2**m,)``."""
    out = np.bitwise_count(np.arange(spinor_dim(m), dtype=np.uint64)).astype(np.int64)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def pairing_matrix(m: int) -> np.ndarray:
    """Gram matrix of the split-signature pairing on R^{2m} (the 1/2 convention)."""
    m = _check_m(m)
    P = np.zeros((2 * m, 2 * m))
    P[:m, m:] = 0.5 * np.eye(m)
    P[m:, :m] = 0.5 * np.eye(m)
    P.setflags(write=False)
    return P


def natural_pairing(u: np.ndarray, v: np.ndarray) -> complex:
    """Bilinear pairing ``<X+xi, Y+eta> = (xi(Y) + eta(X)) / 2``."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    m = u.shape[0] // 2
    return complex(0.5 * (u[m:] @ v[:m] + u[:m] @ v[m:]))


@lru_cache(maxsize=None)
def wedge_sign_table(m: int) -> np.ndarray:
    """Table ``t[I, J]`` with ``e_I ^ e_J = t[I, J] * e_{I(bitor)J}``.

    Zero when the subsets overlap, otherwise the parity of the shuffle that
    sorts the concatenated index lists.
    """
    m = _check_m(m)
    n = spinor_dim(m)
    idx = np.arange(n, dtype=np.uint64)
    # exponent[I, J] = sum over bits j of J of popcount(I >> (j+1))
    exponent = np.zeros((n, n), dtype=np.int64)
    for j in range(m):
        above_j = np.bitwise_count(idx >> np.uint64(j + 1)).astype(np.int64)
        has_j = ((idx >> np.uint64(j)) & np.uint64(1)).astype(np.int64)
        exponent += above_j[:, None] * has_j[None, :]
    table = np.where(exponent % 2 == 0, 1, -1).astype(np.int8)
    overlap = (idx[:, None] & idx[None, :]) != 0
    table[overlap] = 0
    table.setflags(write=False)
    return table


def wedge(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Wedge product of two form vectors."""
    g = np.asarray(g, dtype=complex)
    if g.shape != np.shape(f):
        raise ValueError("wedge operands must share a dimension")
    return wedge_operator(f) @ g


def wedge_operator(phi: np.ndarray) -> np.ndarray:
    """Matrix of ``psi -> phi ^ psi``: entry ``(I|J, J)`` is ``t[I, J] phi[I]``.

    For a fixed column ``J`` the disjoint ``I`` have distinct unions ``I|J``,
    so the matrix is one scatter over the nonzero signs."""
    phi = np.asarray(phi, dtype=complex)
    m = _infer_m_from_spinor(phi)
    n = spinor_dim(m)
    table = wedge_sign_table(m)
    I, J = np.nonzero(table)
    M = np.zeros((n, n), dtype=complex)
    M[I | J, J] = table[I, J] * phi[I]
    return M


#: Reversal signs (-1)^{k(k-1)/2} for k mod 4.
_REVERSAL = np.array([1, 1, -1, -1], dtype=np.int64)


def transpose_form(phi: np.ndarray) -> np.ndarray:
    """Main anti-automorphism: reverse each degree-k piece, sign (-1)^{k(k-1)/2}."""
    phi = np.asarray(phi, dtype=complex)
    m = _infer_m_from_spinor(phi)
    return phi * _REVERSAL[degrees(m) % 4]


@lru_cache(maxsize=None)
def chevalley_gram(m: int) -> np.ndarray:
    """Matrix ``C`` with ``pairing(f, g) = f @ C @ g`` (bilinear, no conjugation).

    The pairing is minus the top coefficient of ``f ^ reverse(g)``; it couples
    each subset with its complement only.
    """
    m = _check_m(m)
    n = spinor_dim(m)
    table = wedge_sign_table(m)
    deg = degrees(m)
    C = np.zeros((n, n))
    full = n - 1
    for I in range(n):
        J = full ^ I
        C[I, J] = -_REVERSAL[deg[J] % 4] * table[I, J]
    C.setflags(write=False)
    return C


def chevalley_pairing(f: np.ndarray, g: np.ndarray) -> complex:
    """Bilinear spinor pairing ``-(f ^ reverse(g))_top``."""
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    m = _infer_m_from_spinor(f)
    return complex(f @ chevalley_gram(m) @ g)


def chevalley_symmetry_sign(m: int) -> int:
    """Sign s with ``pairing(f, g) = s * pairing(g, f)``: (-1)^{m(m-1)/2}."""
    return int(_REVERSAL[_check_m(m) % 4])


def _ladder_step(wedge, bit, idx: np.ndarray):
    """One wedge (``wedge`` true) or contraction by ``dx_{bit+1}`` on subset
    indices: returns (nonzero, image index, sign), broadcast over the inputs."""
    one = np.uint64(1)
    has = ((idx >> bit) & one).astype(bool)
    below = np.bitwise_count(idx & ((one << bit) - one)).astype(np.int64)
    return has != wedge, idx ^ (one << bit), 1 - 2 * (below % 2)


@lru_cache(maxsize=None)
def wedge_matrices(m: int) -> tuple[np.ndarray, ...]:
    """Matrices of ``dx_{i+1} ^ .`` for i = 0..m-1, each ``(2**m, 2**m)`` and
    read-only: the Clifford matrices of the unit covectors; + 0.0 clears the
    -0.0 they get where the contractions sit."""
    m = _check_m(m)
    out = tuple(M.real + 0.0 for M in clifford_matrices(np.eye(2 * m)[m:]))
    for M in out:
        M.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _ladder_tables(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather form of the 2m Clifford ladders: ``source[j, i] = i ^ 2**j``
    and ``signs[w, j, i]``, the sign with which the contraction (w = 0) or
    wedge (w = 1) by ``dx_{j+1}`` sends ``source[j, i]`` to ``i``, 0 where
    it does not.  Shapes ``(m, 2**m)`` and ``(2, m, 2**m)``."""
    m = _check_m(m)
    n = spinor_dim(m)
    wedge = np.array([False, True])[:, None, None]
    bit = np.arange(m, dtype=np.uint64)[None, :, None]
    ok, image, sign = _ladder_step(wedge, bit, np.arange(n, dtype=np.uint64)[None, None, :])
    image = np.broadcast_to(image, ok.shape).astype(np.intp)
    signs = np.zeros(ok.shape)
    np.put_along_axis(signs, image, np.where(ok, sign, 0), axis=2)
    # the flip is an involution, so the image of i is also its source
    source = image[0]
    for arr in (source, signs):
        arr.setflags(write=False)
    return source, signs


def clifford_matrices(vectors: np.ndarray) -> np.ndarray:
    """Clifford actions of a stack of vectors, ``(..., 2m) -> (..., 2**m,
    2**m)``: the dense image of their ``_ladder_weights``, entry ``(i, i ^
    2**j)`` being ``W[..., j, i]`` and every other entry zero."""
    weights = _ladder_weights(vectors)
    m, n = weights.shape[-2:]
    out = np.zeros(weights.shape[:-2] + (n * n,), dtype=complex)
    out[..., np.arange(n) * n + _ladder_tables(m)[0]] = weights
    return out.reshape(weights.shape[:-2] + (n, n))


def clifford_vector_matrix(v: np.ndarray) -> np.ndarray:
    """Clifford action of ``X + xi``: contraction by X plus wedge by xi.

    Satisfies ``cl(v) @ cl(w) + cl(w) @ cl(v) = 2 <v, w> Id`` for the
    split-signature pairing.
    """
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1 or v.shape[0] % 2:
        raise ValueError(f"expected a flat vector of even length, got shape {v.shape}")
    return clifford_matrices(v)


def _ladder_weights(vectors: np.ndarray) -> np.ndarray:
    """Gather weights ``(..., m, 2**m)`` of the Clifford actions of a stack of
    vectors ``(..., 2m)``: ``X_j`` times the contraction signs plus ``xi_j``
    times the wedge signs."""
    v = np.asarray(vectors, dtype=complex)
    m = _check_m(v.shape[-1] // 2)
    _, signs = _ladder_tables(m)
    return np.einsum("...wj,wji->...ji", v.reshape(v.shape[:-1] + (2, m)), signs)


def _ladder_gather(weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``out[..., i] = sum_j weights[..., j, i] rows[..., i ^ 2**j]``: the
    Clifford actions whose ``_ladder_weights`` are given, on rows ``(..., n)``
    broadcast against them.  One signed gather per ladder with a nonzero
    weight, so no ``(..., m, n)`` temporary is formed."""
    m, n = weights.shape[-2:]
    source, _ = _ladder_tables(m)
    used = np.flatnonzero(weights.reshape(-1, m, n).any(axis=(0, 2)))
    if not used.size:
        return np.zeros(np.broadcast_shapes(weights.shape[:-2] + (n,), rows.shape), dtype=complex)
    first, *rest = used
    out = weights[..., first, :] * rows[..., source[first]]
    for j in rest:
        out += weights[..., j, :] * rows[..., source[j]]
    return out


def clifford_relation_residual(m: int) -> float:
    """Largest entry of ``{cl(e_r), cl(e_s)} - 2 <e_r, e_s> Id`` over all
    (2m)^2 pairs of unit vectors, exact from the ladder tables.

    ``cl(e_r)`` is the one ladder ``j_r = r mod m`` of ``_ladder_weights``,
    ``x -> w_r * x[i ^ 2**j_r]``, so the row ``i`` of ``cl(e_r) cl(e_s)``
    holds ``w_r[i] w_s[i ^ 2**j_r]`` in the column ``i ^ 2**j_r ^ 2**j_s``
    (the diagonal exactly when ``j_r = j_s``) and nothing else.  Zero for a
    Clifford representation, which ``cl`` must be for every product of
    Clifford actions to have its closed form."""
    m = _check_m(m)
    source, _ = _ladder_tables(m)
    ladder = np.arange(2 * m) % m
    w = _ladder_weights(np.eye(2 * m))[np.arange(2 * m), ladder]
    product = w[:, None] * w[:, source[ladder]].transpose(1, 0, 2)
    anti = product + product.transpose(1, 0, 2)
    return float(np.abs(anti - 2.0 * pairing_matrix(m)[:, :, None]).max())


def clifford_act(v: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Apply the Clifford action of ``v`` in R^{2m} to a form vector.

    Vectors ``(..., 2m)`` and form vectors ``(..., 2**m)`` broadcast against
    each other.  Each ladder is a signed bit flip, so the action is m signed
    gathers ``phi[..., i ^ 2**j]`` weighted by the coordinates of ``v``; no
    ``2**m x 2**m`` matrix is formed.
    """
    v = np.asarray(v, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    m = _infer_m_from_spinor(phi)
    if v.ndim == 0 or v.shape[-1] != 2 * m:
        raise ValueError(f"vector shape {v.shape} does not match spinor dim {phi.shape}")
    return _ladder_gather(_ladder_weights(v), phi)


def _frobenius(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, by one ``vecdot`` (on a
    single small matrix about half the cost of ``norm(axis=(-2, -1))``)."""
    flat = a.reshape(a.shape[:-2] + (-1,))
    return np.sqrt(np.vecdot(flat, flat).real)


def so_residual(alpha: np.ndarray) -> np.ndarray:
    """How far each matrix ``a`` of a stack ``(..., 2m, 2m)`` is from the Lie
    algebra of the pairing: ``||(P a)^T + P a||``, one value per matrix."""
    alpha = np.asarray(alpha, dtype=complex)
    Pa = pairing_matrix(_check_m(alpha.shape[-1] // 2)) @ alpha
    return _frobenius(Pa + Pa.swapaxes(-1, -2))


def _in_so(alpha: np.ndarray, tol: float) -> np.ndarray:
    """Per matrix of a stack, ``so_residual(a) <= tol * max(1, ||a||)``: the
    one membership test of so(m,m), false on NaN."""
    return so_residual(alpha) <= tol * np.maximum(1.0, _frobenius(alpha))


def require_so(alpha: np.ndarray) -> np.ndarray:
    """Validate membership in so(m,m) to 1e-9 relative; returns the array, raises ValueError."""
    alpha = np.asarray(alpha, dtype=complex)
    _infer_m_from_so(alpha)
    if not _in_so(alpha, 1e-9):
        raise ValueError(f"matrix is not skew for the split pairing (residual {so_residual(alpha):.3e})")
    return alpha


def so_from_blocks(
    m: int,
    endo: np.ndarray | None = None,
    two_form: np.ndarray | None = None,
    bivector: np.ndarray | None = None,
) -> np.ndarray:
    """Assemble ``[[A, beta], [B, -A^T]]`` from endomorphism / 2-form / bivector blocks.

    ``two_form[i, j] = B(d_i, d_j)`` and ``bivector[i, j] = beta(dx_i, dx_j)``
    must be skew; the action on ``X + xi`` is ``A X + beta xi`` plus
    ``B X - A^T xi``, i.e. ``X -> -i_X B`` and ``xi -> -i_xi beta``.
    """
    m = _check_m(m)
    alpha = np.zeros((2 * m, 2 * m), dtype=complex)
    if endo is not None:
        A = np.asarray(endo, dtype=complex)
        alpha[:m, :m] = A
        alpha[m:, m:] = -A.T
    if two_form is not None:
        B = np.asarray(two_form, dtype=complex)
        if np.linalg.norm(B + B.T) > 1e-12 * max(1.0, np.linalg.norm(B)):
            raise ValueError("two_form block must be skew-symmetric")
        alpha[m:, :m] = B
    if bivector is not None:
        b = np.asarray(bivector, dtype=complex)
        if np.linalg.norm(b + b.T) > 1e-12 * max(1.0, np.linalg.norm(b)):
            raise ValueError("bivector block must be skew-symmetric")
        alpha[:m, m:] = b
    return alpha


def so_from_pair(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """so(m,m) element ``w -> 2(<v, w> u - <u, w> v)`` built from two vectors."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    m = _check_m(u.shape[0] // 2)
    P = pairing_matrix(m)
    return 2.0 * (np.outer(u, P @ v) - np.outer(v, P @ u))


def two_form_so(two_form: np.ndarray) -> np.ndarray:
    """so(m,m) element of a 2-form: ``X + xi -> -i_X B``."""
    two_form = np.asarray(two_form, dtype=complex)
    return so_from_blocks(two_form.shape[0], two_form=two_form)


def bivector_so(bivector: np.ndarray) -> np.ndarray:
    """so(m,m) element of a bivector: ``X + xi -> -i_xi beta``."""
    bivector = np.asarray(bivector, dtype=complex)
    return so_from_blocks(bivector.shape[0], bivector=bivector)


def random_so_element(rng: np.random.Generator, m: int, scale: float = 1.0) -> np.ndarray:
    """Draw a real so(m,m) element with entries of the given scale."""
    m = _check_m(m)
    K = rng.normal(scale=scale, size=(2 * m, 2 * m))
    K = 0.5 * (K - K.T)
    # alpha = P^{-1} K, so P alpha = K is skew by construction
    Pinv = np.zeros((2 * m, 2 * m))
    Pinv[:m, m:] = 2.0 * np.eye(m)
    Pinv[m:, :m] = 2.0 * np.eye(m)
    return (Pinv @ K).astype(complex)


@lru_cache(maxsize=None)
def _spin_flip_table(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flip-mask tables of the spin images ``T[r, c] = [B_r, D_c] / 4`` of
    the matrix units of so(m,m).

    ``B_r = cl(e_r)`` (contraction for r < m, wedge after) and ``D_c`` is the
    wedge for c < m and the contraction after.  ``B_r D_c`` and ``D_c B_r``
    both send a subset ``I`` to ``I ^ f`` with ``f = bit(r % m) ^ bit(c %
    m)``, so spin images only have entries ``(i, i ^ f)`` for the F = 1 +
    m(m-1)/2 masks f with no or two bits.  Returns ``source[f, i] = i ^ f``
    ``(F, 2**m)``; ``coef[f]``, the flat indices ``r * 2m + c`` into
    ``alpha`` whose ``T[r, c]`` is nonzero and has mask f, ascending and
    padded with index 0 to a common length K; ``values[f, k, i]``, the
    coefficient ``(+-1/4, +-1/2)`` of ``alpha.flat[coef[f, k]]`` at entry
    ``(i, i ^ f)`` (zero on the padding), ``(F, K, 2**m)``; and the flat
    positions ``i * 2**m + (i ^ f)`` of those entries in a dense matrix.
    """
    m = _check_m(m)
    n = spinor_dim(m)
    coord = np.arange(2 * m)
    bit = coord % m
    b_ladder = ((coord >= m)[:, None, None], bit.astype(np.uint64)[:, None, None])
    d_ladder = ((coord < m)[None, :, None], bit.astype(np.uint64)[None, :, None])
    idx = np.arange(n, dtype=np.uint64)[None, None, :]

    def product(first, second):
        ok1, mid, s1 = _ladder_step(*first, idx)
        ok2, _, s2 = _ladder_step(*second, mid)
        return np.where(ok1 & ok2, s1 * s2, 0)

    # value[r, c, j]: the coefficient with which T[r, c] sends subset j to j ^ f
    value = 0.25 * (product(d_ladder, b_ladder) - product(b_ladder, d_ladder))
    r, c = np.nonzero(value.any(axis=2))
    flips = (1 << bit[r]) ^ (1 << bit[c])
    present = np.zeros(n, dtype=bool)
    present[flips] = True
    masks = np.flatnonzero(present)
    reach = [np.flatnonzero(flips == f) for f in masks]
    source = np.arange(n) ^ masks[:, None]
    coef = np.zeros((len(masks), max(map(len, reach))), dtype=np.intp)
    values = np.zeros(coef.shape + (n,), dtype=complex)
    for g, e in enumerate(reach):
        coef[g, : len(e)] = r[e] * (2 * m) + c[e]
        # entry i of the image reads subset i ^ f
        values[g, : len(e)] = value[r[e], c[e]][:, source[g]]
    tables = (source, coef, values, np.arange(n) * n + source)
    for arr in tables:
        arr.setflags(write=False)
    return tables


def spin_flip_weights(alphas: np.ndarray) -> np.ndarray:
    """Spinor representations of a stack of so(m,m) elements as flip-mask
    weights, ``(..., 2m, 2m) -> (..., F, 2**m)``.

    ``spin(alpha) = sum_f diag(W[f]) P_f`` over the F = 1 + m(m-1)/2 masks
    of ``_spin_flip_table``, ``P_f`` the gather ``x[i ^ f]``: 29 masks and
    7,424 weights at m = 8 against 65,536 dense entries.  The weights are
    linear in ``alpha``: per mask, one product of the few entries that
    reach it with a cached table.  Raises ``ValueError`` unless every
    element is in so(m,m) (``_in_so`` at 1e-9, false on NaN).
    """
    alphas = np.asarray(alphas, dtype=complex)
    if alphas.ndim < 2 or alphas.shape[-1] != alphas.shape[-2] or alphas.shape[-1] % 2:
        raise ValueError(f"expected stacked 2m x 2m matrices, got shape {alphas.shape}")
    m = _check_m(alphas.shape[-1] // 2)
    outside = ~_in_so(alphas, 1e-9)
    if outside.any():
        raise ValueError(
            f"matrix is not skew for the split pairing (residual {so_residual(alphas)[outside].flat[0]:.3e})"
        )
    _, coef, values, _ = _spin_flip_table(m)
    picked = alphas.reshape(-1, 4 * m * m)[:, coef].swapaxes(0, 1)  # (F, P, K)
    weights = (picked @ values).swapaxes(0, 1)
    return weights.reshape(alphas.shape[:-2] + weights.shape[1:])


def _spin_flip_outer(entry_weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``out[a, s, i] = sum_f W[a, f, i] * x[s, i ^ f]``, ``(P, r, 2**m)``:
    every operator of the flip-mask weights ``W`` ``(P, F, 2**m)`` on every
    row of ``x`` ``(r, 2**m)``.  The one applier of flip-mask weights.

    The weights come per entry, ``entry_weights[i] = W[:, :, i]``
    ``(2**m, P, F)``, a layout a caller that applies one stack many times
    keeps.  Entry i of every image is then one ``(P, F) @ (F, r)`` product
    with the gathered ``x[s, i ^ f]``, so the whole action is one batched
    matrix product; the result is a transposed view of it.
    """
    source = _spin_flip_table(_infer_m_from_spinor(x))[0]
    gathered = np.ascontiguousarray(x.T)[source.T]  # (2**m, F, r)
    return (entry_weights @ gathered).transpose(1, 2, 0)


def _flip_column_sums(weights: np.ndarray) -> np.ndarray:
    """Absolute column sums ``(..., 2**m)`` of the operators of flip-mask
    weights ``(..., F, 2**m)``: column j holds ``W[..., f, j ^ f]``."""
    source = _spin_flip_table(_infer_m_from_spinor(weights))[0]
    flat = np.abs(weights).reshape(weights.shape[:-2] + (-1,))
    return np.take(flat, np.arange(len(source))[:, None] * source.shape[1] + source, axis=-1).sum(axis=-2)


def spin_flip_dense(weights: np.ndarray) -> np.ndarray:
    """The dense matrices ``(..., 2**m, 2**m)`` of flip-mask weights: entry
    ``(i, i ^ f)`` is ``W[..., f, i]`` and every other entry is zero."""
    n = weights.shape[-1]
    positions = _spin_flip_table(_infer_m_from_spinor(weights))[3]
    out = np.zeros(weights.shape[:-2] + (n * n,), dtype=complex)
    out[..., positions] = weights
    return out.reshape(weights.shape[:-2] + (n, n))


def spin_lie_action(alpha: np.ndarray) -> np.ndarray:
    """Spinor representation of an so(m,m) element.

    The map is linear: ``spin(alpha) = sum_{r,c} alpha[r, c] T[r, c]`` with
    ``T[r, c] = [cl(e_r), D_c] / 4``, ``D_c`` the wedge by ``dx_{c+1}`` for
    c < m and the contraction by ``d_{c-m+1}`` after (one quarter of the
    commutator sum over a pairing-dual basis).  It is the unique lift with
    ``[action(a), cl(v)] = cl(a @ v)`` and no scalar part for trace-free
    ``a``.  The dense image of ``spin_flip_weights``.
    """
    _infer_m_from_so(np.asarray(alpha))
    return spin_flip_dense(spin_flip_weights(alpha))


def _one_norms(a: np.ndarray) -> np.ndarray:
    """Largest absolute column sum of each matrix of a stack ``(..., n, n)``."""
    return np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a stack ``(..., n, n)`` by scaling and squaring.

    Each matrix is scaled by ``2**-s`` to 1-norm below 1/2, its Taylor series
    is summed until a term is below roundoff of the sum (the terms fall at
    least like ``2**-j / j!``), and the sum is squared ``s`` times (Higham,
    SIAM J. Matrix Anal. Appl. 26 (2005)).  Raises ``ValueError`` when an
    entry or the 1-norm is not finite.
    """
    a = np.asarray(a)
    norm = _one_norms(a)
    if not np.isfinite(norm).all():
        raise ValueError("matrix exponential of a non-finite matrix")
    # norm < 2**e, so norm / 2**(e + 1) < 1/2
    squarings = np.where(norm > 0.5, np.frexp(norm)[1] + 1, 0)
    x = a / np.ldexp(1.0, squarings)[..., None, None]
    out = np.eye(a.shape[-1]) + x
    term, j = x, 1
    while (_one_norms(term) > np.finfo(float).eps * _one_norms(out)).any():
        j += 1
        term = (term @ x) / j
        out = out + term
    for step in range(int(squarings.max(initial=0))):
        out = np.where((squarings > step)[..., None, None], out @ out, out)
    return out


def spin_group_exp(alpha: np.ndarray) -> np.ndarray:
    """Exponential of the spinor representation, ``expm(spin_lie_action(alpha))``."""
    return _expm(spin_lie_action(alpha))


def so_exp(alpha: np.ndarray) -> np.ndarray:
    """Exponential of an so(m,m) element (an orthogonal transformation of R^{2m})."""
    return _expm(require_so(alpha))
