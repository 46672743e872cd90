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
    "degrees",
    "form_vector",
    "pairing_matrix",
    "natural_pairing",
    "wedge_sign_table",
    "wedge",
    "wedge_operator",
    "transpose_form",
    "chevalley_gram",
    "chevalley_pairing",
    "chevalley_symmetry_sign",
    "wedge_matrices",
    "clifford_matrices",
    "clifford_vector_matrix",
    "clifford_act",
    "so_residual",
    "require_so",
    "so_from_blocks",
    "so_from_pair",
    "two_form_so",
    "bivector_so",
    "two_form_spinor",
    "random_so_element",
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


def form_vector(m: int, components: dict[tuple[int, ...], complex]) -> np.ndarray:
    """Build a form vector from ``{(i1, .., ik): coeff}`` with 1-based indices.

    Index tuples may come in any order; odd permutations flip the sign.
    ``()`` is the constant term.

    >>> form_vector(2, {(): 1.0, (2, 1): 3.0})  # 1 - 3 dx1^dx2
    array([ 1.+0.j,  0.+0.j,  0.+0.j, -3.+0.j])
    """
    m = _check_m(m)
    out = np.zeros(spinor_dim(m), dtype=complex)
    for idxs, coeff in components.items():
        if len(set(idxs)) != len(idxs):
            raise ValueError(f"repeated index in {idxs}")
        if idxs and not all(1 <= i <= m for i in idxs):
            raise ValueError(f"indices {idxs} out of range 1..{m}")
        # parity of the permutation sorting idxs ascending
        sign = 1
        idx_list = list(idxs)
        for a in range(len(idx_list)):
            for b in range(a + 1, len(idx_list)):
                if idx_list[a] > idx_list[b]:
                    sign = -sign
        bits = 0
        for i in idxs:
            bits |= 1 << (i - 1)
        out[bits] += sign * coeff
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


@lru_cache(maxsize=None)
def _clifford_table(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero entries of the ladders ``cl(e_r)`` (contraction for r < m, wedge
    after): flat ``(row * 2**m + col)`` positions, the coordinate ``r`` of each
    and its sign, ordered by ``r`` and then by row.  No two ladders share a
    position, so every Clifford matrix is one scatter of ``m * 2**m`` entries."""
    source, signs = _ladder_tables(m)
    signs = signs.reshape(2 * m, -1)
    coord, row = np.nonzero(signs)
    col = source[coord % m, row]
    tables = (row * spinor_dim(m) + col, coord, signs[coord, row])
    for arr in tables:
        arr.setflags(write=False)
    return tables


def clifford_matrices(vectors: np.ndarray) -> np.ndarray:
    """Clifford actions of a stack of vectors, ``(..., 2m) -> (..., 2**m, 2**m)``."""
    v = np.asarray(vectors, dtype=complex)
    m = _check_m(v.shape[-1] // 2)
    n = spinor_dim(m)
    pos, coord, sign = _clifford_table(m)
    out = np.zeros(v.shape[:-1] + (n * n,), dtype=complex)
    out[..., pos] = v[..., coord] * sign
    return out.reshape(v.shape[:-1] + (n, n))


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
    Clifford actions whose ``_ladder_weights`` are given, on rows ``(..., n)``."""
    source, _ = _ladder_tables(weights.shape[-2])
    return np.einsum("...ji,...ji->...i", weights, np.take(rows, source, axis=-1))


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


def so_residual(alpha: np.ndarray) -> float:
    """How far ``alpha`` is from the Lie algebra of the pairing: ||(P a)^T + P a||."""
    alpha = np.asarray(alpha, dtype=complex)
    m = _infer_m_from_so(alpha)
    Pa = pairing_matrix(m) @ alpha
    return float(np.linalg.norm(Pa.T + Pa))


def require_so(alpha: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Validate membership in so(m,m); returns the array, raises ValueError."""
    alpha = np.asarray(alpha, dtype=complex)
    scale = max(1.0, float(np.linalg.norm(alpha)))
    res = so_residual(alpha)
    if res > tol * scale:
        raise ValueError(f"matrix is not skew for the split pairing (residual {res:.3e})")
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


def two_form_spinor(two_form: np.ndarray) -> np.ndarray:
    """The 2-form ``sum_{i<j} B[i,j] dx_{i+1} ^ dx_{j+1}`` as a form vector."""
    B = np.asarray(two_form, dtype=complex)
    m = _check_m(B.shape[0])
    out = np.zeros(spinor_dim(m), dtype=complex)
    for i in range(m):
        for j in range(i + 1, m):
            out[(1 << i) | (1 << j)] = B[i, j]
    return out


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
def _spin_action_table(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sparse images ``T[r, c] = [B_r, D_c] / 4`` of the matrix units of so(m,m).

    ``B_r = cl(e_r)`` (contraction for r < m, wedge after) and ``D_c`` is the
    wedge for c < m and the contraction after.  Each image is a signed partial
    permutation: ``B_r D_c`` and ``D_c B_r`` send a subset ``I`` to the same
    ``I ^ bit(r) ^ bit(c)``.  Returns flat ``(row * 2**m + col)`` indices into
    the spinor matrix, flat ``(r * 2m + c)`` indices into ``alpha`` and the
    values ``(+-1/4, +-1/2)``.
    """
    m = _check_m(m)
    n = spinor_dim(m)
    two_m = np.arange(2 * m, dtype=np.uint64)
    b_wedge, b_bit = (two_m >= m)[:, None, None], (two_m % np.uint64(m))[:, None, None]
    d_wedge, d_bit = (two_m < m)[None, :, None], (two_m % np.uint64(m))[None, :, None]
    idx = np.arange(n, dtype=np.uint64)[None, None, :]

    def product(first, second):
        ok1, mid, s1 = _ladder_step(*first, idx)
        ok2, image, s2 = _ladder_step(*second, mid)
        return np.where(ok1 & ok2, s1 * s2, 0), image

    bd, image = product((d_wedge, d_bit), (b_wedge, b_bit))
    db, _ = product((b_wedge, b_bit), (d_wedge, d_bit))
    value = 0.25 * (bd - db)
    r, c, col = np.nonzero(value)
    out_index = image[r, c, col].astype(np.int64) * n + col
    coef_index = r * (2 * m) + c
    tables = (out_index, coef_index, value[r, c, col])
    for arr in tables:
        arr.setflags(write=False)
    return tables


def spin_lie_action(alpha: np.ndarray) -> np.ndarray:
    """Spinor representation of an so(m,m) element.

    The map is linear: ``spin(alpha) = sum_{r,c} alpha[r, c] T[r, c]`` with
    ``T[r, c] = [cl(e_r), D_c] / 4``, ``D_c`` the wedge by ``dx_{c+1}`` for
    c < m and the contraction by ``d_{c-m+1}`` after (one quarter of the
    commutator sum over a pairing-dual basis).  It is the unique lift with
    ``[action(a), cl(v)] = cl(a @ v)`` and no scalar part for trace-free
    ``a``.  The ``T[r, c]`` are signed partial permutations held as flat
    tables per m, so a call is one scatter-add.
    """
    alpha = require_so(alpha)
    m = _infer_m_from_so(alpha)
    n = spinor_dim(m)
    out_index, coef_index, value = _spin_action_table(m)
    out = np.zeros(n * n, dtype=complex)
    np.add.at(out, out_index, alpha.ravel()[coef_index] * value)
    return out.reshape(n, n)


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
