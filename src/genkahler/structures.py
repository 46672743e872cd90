"""Pointwise generalized complex structures on R^m + (R^m)* and Hermitian pairs.

A generalized complex structure is a real matrix ``J`` on R^{2m} with
``J @ J = -Id`` that preserves the split-signature pairing.  Two commuting
structures whose product ``G = -J1 @ J2`` squares to the identity and induces
a positive metric form a Hermitian pair; the pair carries a bigrading of the
form space by joint eigenvalues and a distinguished star operator.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from genkahler.clifford import (
    _check_m,
    _chevalley_signs,
    _clifford_gather,
    _half_index,
    _parity_dense,
    _parity_rows,
    pairing_matrix,
    spinor_dim,
)

__all__ = [
    "require_gcs",
    "standard_complex_structure",
    "standard_symplectic_form",
    "complex_structure_gcs",
    "symplectic_gcs",
    "iso_projectors",
    "volume_spin_element",
    "l_frame",
    "hodge_star",
    "HermitianPair",
    "standard_kahler_pair",
    "random_hermitian_pair",
]


# ---------------------------------------------------------------------------
# single structures


def gcs_residual(J: np.ndarray) -> float:
    """Deviation of ``J`` from being a pairing-orthogonal complex structure."""
    J = np.asarray(J, dtype=complex)
    m = J.shape[0] // 2
    P = pairing_matrix(m)
    eye = np.eye(2 * m)
    return float(np.linalg.norm(J @ J + eye) + np.linalg.norm(J.T @ P @ J - P))


#: Absolute tolerance of the structure and pair identities; every check
#: fails on a NaN residual (``not res <= _TOL``), so an overflow never passes.
_TOL = 1e-9


def require_gcs(J: np.ndarray) -> np.ndarray:
    J = np.asarray(J, dtype=complex)
    if J.ndim != 2 or J.shape[0] != J.shape[1] or J.shape[0] % 2:
        raise ValueError(f"expected a 2m x 2m matrix, got {J.shape}")
    res = gcs_residual(J)
    if not res <= _TOL:
        raise ValueError(f"not a generalized complex structure (residual {res:.3e})")
    return J


def standard_complex_structure(m: int) -> np.ndarray:
    """Block-diagonal complex structure on R^m: d1 -> d2, d3 -> d4, ..."""
    m = _check_m(m)
    if m % 2:
        raise ValueError("a complex structure needs an even dimension")
    return np.kron(np.eye(m // 2), np.array([[0.0, -1.0], [1.0, 0.0]]))


def standard_symplectic_form(m: int) -> np.ndarray:
    """Coefficients of dx1^dx2 + dx3^dx4 + ...: ``w[i,j] = w(d_i, d_j)``."""
    return -standard_complex_structure(m)


def complex_structure_gcs(J_base: np.ndarray) -> np.ndarray:
    """Diagonal-type structure ``[[-J, 0], [0, J^T]]`` from a base complex structure."""
    J_base = np.asarray(J_base, dtype=float)
    m = J_base.shape[0]
    if np.linalg.norm(J_base @ J_base + np.eye(m)) > 1e-9:
        raise ValueError("base matrix does not square to -Id")
    out = np.zeros((2 * m, 2 * m))
    out[:m, :m] = -J_base
    out[m:, m:] = J_base.T
    return out


def symplectic_gcs(omega: np.ndarray) -> np.ndarray:
    """Off-diagonal structure of a symplectic form, fixed so that exp(i*omega)
    spans the top level of its grading.

    ``omega[i,j] = omega(d_i, d_j)`` must be invertible and skew.
    """
    W = np.asarray(omega, dtype=float)
    m = W.shape[0]
    if np.linalg.norm(W + W.T) > 1e-12 * max(1.0, np.linalg.norm(W)):
        raise ValueError("symplectic coefficient matrix must be skew")
    out = np.zeros((2 * m, 2 * m))
    out[:m, m:] = np.linalg.inv(W)
    out[m:, :m] = -W
    return out


def _clifford_product_blocks(frame: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``cl(f_1) @ cl(f_2) @ ... @ cl(f_k)`` over the columns of ``frame``, as
    its blocks on the rows of each form parity p, whose columns have parity
    ``p + k`` (``clifford._parity_dense``); it is zero off them.

    The factors multiply the identity from the right, left one first.  The
    contraction and the wedge by one coordinate are each other's transpose,
    so the rows of ``X cl(v)`` are ``cl(v') X[r]`` with the halves of ``v``
    swapped in ``v'``, one signed gather per ladder; a diagonal metric's
    frame uses one ladder per factor.  Each factor flips the parity of the
    columns a row reaches, so row h of one half-height array holds the
    rows ``rows[0][h]`` and ``rows[1][h]`` of the product on columns of
    opposite parity, and one gather per ladder acts on both blocks.
    """
    m = frame.shape[0] // 2
    rows = _parity_rows(m)
    out = (np.arange(len(rows[0]))[:, None] == _half_index(m)).astype(complex)
    for v in np.roll(frame, m, axis=0).T:
        out = _clifford_gather(v, out)
    k = frame.shape[1]
    return out[:, rows[k % 2]], out[:, rows[(k + 1) % 2]]


def _pure_spinor(L: np.ndarray) -> np.ndarray:
    """The largest column of the rank-one ``cl(l_1) ... cl(l_m) = c rho (C
    rho)^T`` of a maximal isotropic ``L`` (columns), ``rho`` its pure spinor.
    ``C`` pairs each subset with its complement, and by Cartan's relation
    ``|rho_J|^2`` is proportional to ``|det L[R_J]|`` over the rows ``R_J =
    {i not in J} + {m + i: i in J}``; so the column, the complement of the
    largest minor, is formed by m vector gathers on one unit vector."""
    m = L.shape[0] // 2
    n = spinor_dim(m)
    bits = (np.arange(n)[:, None] >> np.arange(m)) & 1
    rho = np.zeros(n, dtype=complex)
    rho[(n - 1) ^ np.argmax(np.abs(np.linalg.det(L[np.arange(m) + m * bits])))] = 1.0
    for v in L.T[::-1]:
        rho = _clifford_gather(v, rho)
    return rho


#: Largest ``|E_ij / d_i|`` of ``V^H A V = D + E`` (``D`` diagonal) that a
#: word basis accepts: orthogonal words give roundoff (below 2e-14 on random
#: pairs at m = 8), and the Neumann term that ``_gram_inverse`` drops is at
#: most ``(2^(m-1) * 1e-10)^2``, below 2e-16 relative.
_ORTHOGONALITY_TOL = 1e-10


def _gram_inverse(V: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """``(V^H A V)^-1 V^H A`` for words ``V`` orthogonal for the Gram ``A``
    as ``D^-1 H - D^-1 E D^-1 H``, ``H = V^H A``: the diagonal inverse and
    one Neumann term.  Raises ``ValueError`` above ``_ORTHOGONALITY_TOL``."""
    H = V.conj().T @ gram
    E = H @ V
    d = E.diagonal().copy()
    E /= d[:, None]
    np.fill_diagonal(E, 0.0)
    worst = np.abs(E).max()
    if not worst <= _ORTHOGONALITY_TOL:
        raise ValueError(f"the words are not orthogonal for the Gram matrix (off-diagonal {worst:.3e})")
    H /= d[:, None]
    return H - E @ H


def _word_basis(L: np.ndarray, Lbar: np.ndarray, steps, top, gram: tuple | None = None) -> tuple[np.ndarray, list]:
    """The Clifford words on a pure spinor, their labels and their blocks.

    ``L`` frames (columns) a maximal isotropic subspace, ``Lbar`` a
    complement.  The words ``cl(lbar_I) rho`` on the pure spinor of ``L``
    (``_pure_spinor``) over subsets ``I`` form a basis ``V`` (normalised
    columns), the word of ``I`` labelled ``top + sum_{i in I} steps[i]``;
    label ``s`` projects by ``V[:, s] V^-1[s]``.  ``rho`` has one form
    parity and each letter flips it, so ``V`` is exactly zero off two
    blocks and is held as them: per form parity of the rows, ``(rows,
    words, V block, V^-1 block)``, with ``V^-1`` formed per block.  The
    words are built at half height: the words of ``I`` and ``I + {0}`` have
    opposite parities and share one row of the ``(2**(m-1), 2**m)`` array
    that each further letter gathers.  Given the blocks ``gram`` of a Gram
    matrix A for which the words are orthogonal, ``V^-1`` is ``(V^H A
    V)^-1 V^H A`` (``_gram_inverse``).  A plain ``inv(V)`` loses
    idempotency to about 1e-13 of the size of the pieces at m = 8 (3.5e-10
    absolute on a random pair), the Gram route keeps it near 1e-15.
    """
    rho = _pure_spinor(L)
    # an exact quarter turn brings the largest entry within 45 degrees of the
    # positive real axis, so the phase of the words hangs little on the column
    rho = rho * 1j ** -round(float(np.angle(rho[np.argmax(np.abs(rho))])) / (np.pi / 2))
    rows = _parity_rows(L.shape[0] // 2)
    odd = int(np.abs(rho[rows[1]]).max() > 0)
    first, *rest = Lbar.T
    # the first letter's word fills the other parity of rho's row
    words = rho[None].copy()
    words[0, rows[1 - odd]] = _clifford_gather(first, rho)[rows[1 - odd]]
    labels = np.array([top, np.add(top, steps[0])])
    for v, step in zip(rest, steps[1:]):
        words, labels = np.vstack([words, _clifford_gather(v, words)]), np.concatenate([labels, labels + step])
    # per row parity p, the block (rows, words): words[i // 2] holds word i
    pairs = list(zip(rows, rows[odd:] + rows[:odd]))
    V = words[np.array([w // 2 for _, w in pairs])[:, None], np.array(rows)[:, :, None]]
    V /= np.linalg.norm(V, axis=1)[:, None]
    return labels, [
        (r, w, Vb, np.linalg.inv(Vb) if gram is None else _gram_inverse(Vb, gram[p]))
        for p, ((r, w), Vb) in enumerate(zip(pairs, V))
    ]


def _label_projectors(labels: np.ndarray, blocks: list) -> dict:
    """``V[:, s] V^-1[s]`` for every label ``s`` of a word basis, on the
    dense ``V`` and ``V^-1`` assembled from its blocks."""
    n = len(labels)
    V, V_inv = np.zeros((n, n), dtype=complex), np.zeros((n, n), dtype=complex)
    for r, w, Vb, Xb in blocks:
        V[r[:, None], w], V_inv[w[:, None], r] = Vb, Xb
    out = {}
    for label in sorted(set(map(tuple, labels.tolist()))):
        cols = (labels == label).all(axis=1)
        out[label] = V[:, cols] @ V_inv[cols]
    return out


def iso_projectors(J: np.ndarray) -> dict[int, np.ndarray]:
    """Projectors onto the eigenlevels of the spin action of ``J``.

    The spin action has spectrum ``i*k`` for ``k = -m/2 .. m/2``.  The pure
    spinor of the ``+i`` eigenspace ``L`` spans level ``n = m/2`` and every
    vector of ``conj(L)`` lowers the level by one, so the words with ``|I|``
    letters span level ``n - |I|`` (Gualtieri, Ann. of Math. 174 (2011)).
    """
    L = l_frame(J)
    m = L.shape[1]
    if m % 2:
        raise ValueError("the eigenlevel grading needs an even dimension")
    levels = _label_projectors(*_word_basis(L, L.conj(), [(-1,)] * m, (m // 2,)))
    return {k: P for (k,), P in levels.items()}


def volume_spin_element(J: np.ndarray, projectors: dict[int, np.ndarray] | None = None) -> np.ndarray:
    """Spin-group element acting as ``i**k`` on the level-k space.

    Equals the spin exponential of ``(pi/2) J``.
    """
    if projectors is None:
        projectors = iso_projectors(J)
    return sum((1j**k) * Pk for k, Pk in sorted(projectors.items()))


def _over_first_largest(v: np.ndarray) -> np.ndarray:
    """``v`` over its first entry within 1e-9 of the largest, so that entries
    equal in exact arithmetic tie whatever their rounding."""
    size = np.abs(v)
    return v / v[int(np.argmax(size >= (1 - 1e-9) * size.max()))]


def _projector_column_space(Pmat: np.ndarray, rank: int) -> np.ndarray:
    """Orthonormal basis of the column space of an idempotent of known rank."""
    U, s, _ = np.linalg.svd(Pmat)
    got = int(np.sum(s > 0.5))
    if got != rank:
        raise ValueError(f"projector rank {got} != expected {rank}")
    return U[:, :rank]


def l_frame(J: np.ndarray) -> np.ndarray:
    """Orthonormal frame (columns) of the +i eigenspace of ``J`` in C^{2m}."""
    J = require_gcs(J)
    m = J.shape[0] // 2
    proj = 0.5 * (np.eye(2 * m) - 1j * J)
    return _projector_column_space(proj, m)


# ---------------------------------------------------------------------------
# metrics and the star operator


def generalized_metric(metric: np.ndarray, b_field: np.ndarray | None = None) -> np.ndarray:
    """Involution with +1 eigenspace ``{X + (g - b) X}`` and -1 eigenspace
    ``{X - (g + b) X}`` (covectors written via index lowering)."""
    g = np.asarray(metric, dtype=float)
    m = g.shape[0]
    b = np.zeros((m, m)) if b_field is None else np.asarray(b_field, dtype=float)
    if np.linalg.norm(g - g.T) > 1e-12 * max(1.0, np.linalg.norm(g)):
        raise ValueError("metric must be symmetric")
    if np.linalg.norm(b + b.T) > 1e-12 * max(1.0, np.linalg.norm(b)):
        raise ValueError("b-field must be skew")
    S = np.zeros((2 * m, 2 * m))
    S[:m, :m] = np.eye(m)
    S[:m, m:] = np.eye(m)
    S[m:, :m] = g - b
    S[m:, m:] = -(g + b)
    signs = np.concatenate([np.ones(m), -np.ones(m)])
    return S @ (signs[:, None] * np.linalg.inv(S))


def metric_from_generalized(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Recover (metric, b_field) from a generalized metric's blocks."""
    G = np.asarray(G)
    m = G.shape[0] // 2
    g = np.linalg.inv(G[:m, m:].real)
    b = g @ G[:m, :m].real
    g = 0.5 * (g + g.T)
    b = 0.5 * (b - b.T)
    return g, b


def _metric_frame(metric: np.ndarray, b_field: np.ndarray | None, orientation: int) -> np.ndarray:
    """Pairing-orthonormal frame of the +1 eigenspace of the generalized metric.

    Columns ``(X_i; (g - b) X_i)`` with ``X^T g X = Id``; the vector parts are
    flipped to the requested orientation by negating the first column.
    """
    g = np.asarray(metric, dtype=float)
    m = g.shape[0]
    b = np.zeros((m, m)) if b_field is None else np.asarray(b_field, dtype=float)
    L = np.linalg.cholesky(g)  # raises LinAlgError unless positive definite
    X = np.linalg.solve(L, np.eye(m)).T  # X^T g X = Id, det(X) > 0
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    if orientation == -1:
        X = X.copy()
        X[:, 0] = -X[:, 0]
    return np.vstack([X, (g - b) @ X])


def _star_blocks(
    metric: np.ndarray,
    b_field: np.ndarray | None = None,
    orientation: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """The blocks of ``hodge_star`` on the rows of each form parity p, whose
    columns have parity ``p + m``: minus those of ``_clifford_product_blocks``."""
    F = _metric_frame(metric, b_field, orientation)
    return tuple(-block for block in _clifford_product_blocks(F[:, ::-1]))


def hodge_star(
    metric: np.ndarray,
    b_field: np.ndarray | None = None,
    orientation: int = 1,
) -> np.ndarray:
    """Spinor star operator of a metric (+ optional b-field) and orientation.

    Minus the Clifford product of a pairing-orthonormal frame of the +1
    eigenspace of the generalized metric, first frame vector acting first.
    The result only depends on the frame through its orientation.  It maps
    each form parity p to ``p + m`` and is assembled from its two blocks
    (``_star_blocks``).
    """
    blocks = _star_blocks(metric, b_field, orientation)
    return _parity_dense(blocks, np.shape(metric)[0] % 2)


def _complex_orientation_sign(j: np.ndarray) -> int:
    """Orientation sign of frames ``(v1, j v1, v2, j v2, ...)`` for a complex
    structure ``j`` on R^m, relative to the standard one.

    A +i eigenvector is ``w = v - i j v``, so ``(Re w, -Im w) = (v, j v)``;
    over a frame of the +i eigenspace the sign does not depend on the frame,
    since a complex change of frame scales the determinant by ``|det|^2``.
    """
    j = np.asarray(j)
    m = j.shape[0]
    w = _projector_column_space(0.5 * (np.eye(m) - 1j * j), m // 2)
    det = np.linalg.det(np.stack([w.real, -w.imag], axis=-1).reshape(m, m))
    return 1 if det > 0 else -1


# ---------------------------------------------------------------------------
# Hermitian pairs

#: ``i**k`` for ``k mod 4``.
_QUARTER_TURNS = np.array([1, 1j, -1, -1j])


class HermitianPair:
    """Two commuting generalized complex structures with positive product.

    The constructor validates every defining identity and the compatibility
    of the induced star operator with the two spin-volume elements; it raises
    ``ValueError`` when any of them fails.
    Every ``2**m``-sized operator the pair holds keeps form parity, so it
    holds each as its two ``(2**(m-1), 2**(m-1))`` blocks on the forms of
    one parity (``clifford._parity_rows``): the star, ``star_gram`` (the L2
    Gram matrix ``h(f, g) = g^H A f`` per frequency, ``A = +-(C star)^T``,
    whose blocks the constructor checks real, symmetric and positive
    definite and keeps real) and the bigrading's word basis
    (``_word_basis``), kept as one ``(p, q)`` label per word and, per row
    parity, ``(rows, words, V block, V^-1 block)`` in ``_blocks``; 1.9 MB at
    m = 8.  ``project`` applies a label's or a level's projector to rows of
    one form parity and ``shift_parts`` takes the parts of an operator that
    shift every label by one amount, both through the blocks.  The dense
    ``star``, ``bigrading``, ``proj1`` and ``proj2`` are assembled from the
    blocks only when asked for.
    """

    def __init__(self, J1: np.ndarray, J2: np.ndarray):
        J1 = require_gcs(J1)
        J2 = require_gcs(J2)
        m = J1.shape[0] // 2
        if m % 2:
            raise ValueError("Hermitian pairs need an even dimension")
        if not np.linalg.norm(J1 @ J2 - J2 @ J1) <= _TOL:
            raise ValueError("structures do not commute")
        G = -J1 @ J2
        if not np.linalg.norm(G @ G - np.eye(2 * m)) <= _TOL:
            raise ValueError("product of the pair is not an involution")
        M = pairing_matrix(m) @ G
        M = 0.5 * (M + M.T)
        if np.min(np.linalg.eigvalsh(M.real)) <= 0:
            raise ValueError("pair metric is not positive")
        self.J1 = J1.real
        self.J2 = J2.real
        self.G = G.real
        self.m = m
        self.n = m // 2
        self.metric, self.b_field = metric_from_generalized(G)
        self._check_star()

    # -- construction helpers

    @classmethod
    def from_metric(cls, J1: np.ndarray, metric: np.ndarray, b_field: np.ndarray | None = None) -> "HermitianPair":
        G = generalized_metric(metric, b_field)
        J1 = np.asarray(J1, dtype=float)
        if not np.linalg.norm(G @ J1 - J1 @ G) <= _TOL:
            raise ValueError("structure does not commute with the metric")
        return cls(J1, G @ J1)

    @classmethod
    def from_kahler(cls, J_base: np.ndarray, metric: np.ndarray | None = None) -> "HermitianPair":
        """Pair of a base complex structure and a compatible metric (no b-field)."""
        J_base = np.asarray(J_base, dtype=float)
        g = np.eye(J_base.shape[0]) if metric is None else np.asarray(metric, dtype=float)
        return cls.from_metric(complex_structure_gcs(J_base), g)

    # -- derived data

    def _check_star(self) -> None:
        """Star, its Gram matrix and the word basis, block by block; then
        the checks of the star against the product of the spin volume
        elements, ``V diag(i^{p+q}) V^-1``, and of each Gram block."""
        F = _metric_frame(self.metric, self.b_field, 1)
        j_plus = F.T @ pairing_matrix(self.m) @ self.J1 @ F
        if np.linalg.norm(j_plus @ j_plus + np.eye(self.m)) > 1e-8:
            raise ValueError("first structure does not restrict to the +1 eigenspace")
        self.orientation = _complex_orientation_sign(j_plus.real)
        self._star = _star_blocks(self.metric, self.b_field, self.orientation)
        # the L2 Gram matrix is +-(C star)^T with the star in the standard
        # orientation, which -1 negates with one frame vector; C couples each
        # subset I only with its complement n - 1 - I, which has I's parity
        # and reverses the order within it, so each block is a signed row gather
        signs = _chevalley_signs(self.m)
        gram = tuple(
            np.ascontiguousarray((signs[r][:, None] * (self.orientation * S)[::-1]).T)
            for r, S in zip(_parity_rows(self.m), self._star)
        )
        n = self.n
        L = np.hstack([self.sector_frame(True, True), self.sector_frame(False, True)])
        Lbar = np.hstack([self.sector_frame(True, False), self.sector_frame(False, False)])
        self._labels, self._blocks = _word_basis(L, Lbar, [(-1, -1)] * n + [(-1, 1)] * n, (n, 0), gram)
        turns = _QUARTER_TURNS[self._labels.sum(axis=1) % 4]
        diffs = [S + (Vb * turns[w]) @ Xb for S, (r, w, Vb, Xb) in zip(self._star, self._blocks)]
        res = np.linalg.norm(diffs)
        if not res <= 1e-8 * np.linalg.norm(self._star):
            raise ValueError(f"star does not match the spin volume elements (residual {res:.3e})")
        # each block must be real, symmetric and positive definite; otherwise
        # the inner product is built wrong, which no input should reach
        self.star_gram = tuple(np.ascontiguousarray(A.real) for A in gram)
        for A, R in zip(gram, self.star_gram):
            if np.linalg.norm(A.imag) > 1e-12 * np.linalg.norm(R):
                raise ValueError("Gram matrix is not real")
            if np.linalg.norm(R - R.T) > 1e-10 * np.linalg.norm(R):
                raise ValueError("Gram matrix is not symmetric")
            try:
                np.linalg.cholesky(R)
            except np.linalg.LinAlgError as exc:
                raise ValueError("Gram matrix is singular or indefinite") from exc

    @cached_property
    def star(self) -> np.ndarray:
        """The dense star, assembled from its blocks."""
        return _parity_dense(self._star)

    def _words(self, p: int | None, q: int | None) -> np.ndarray:
        """Mask of the words labelled ``(p, q)``; an omitted index matches any."""
        s = np.ones(len(self._labels), dtype=bool)
        for axis, k in enumerate((p, q)):
            if k is not None:
                s &= self._labels[:, axis] == k
        return s

    def project(self, rows: np.ndarray, parity: int, p: int | None = None, q: int | None = None) -> np.ndarray:
        """``rows @ P.T`` for the projector ``P`` onto ``U^{p,q}``, or with
        ``q`` (``p``) omitted onto level ``p`` of the first (level ``q`` of
        the second) structure, on rows ``(..., 2**(m-1))`` of form parity
        ``parity`` (``clifford._parity_rows``): every word has one parity,
        so ``P`` keeps it, and the two thin products run through the
        parity's block of the word basis."""
        _, w, Vb, Xb = self._blocks[parity]
        s = self._words(p, q)[w]
        return (rows @ Xb[s].T) @ Vb[:, s].T

    def shift_parts(self, op: np.ndarray, shifts) -> dict[tuple[int, int], np.ndarray]:
        """``sum_{(p,q)} P_{p+dp,q+dq} op P_{pq}`` for every ``shift = (dp,
        dq)``, the part of ``op`` that moves each ``U^{p,q}`` by it: ``V
        (moves * (V^-1 op V)) V^-1``, ``moves[s, t]`` true when word s is
        labelled word t's label plus the shift, with each nonzero block of
        ``op`` between two parity blocks transformed once and each part
        formed by two products."""
        out = {tuple(shift): np.zeros(op.shape, dtype=complex) for shift in shifts}
        for r, w, Vr, Xr in self._blocks:
            for s, u, Vs, Xs in self._blocks:
                block = op[r[:, None], s]
                if not block.any():
                    continue
                words = Xr @ block @ Vs
                steps = self._labels[w][:, None] - self._labels[u][None]
                for shift, part in out.items():
                    moves = (steps == shift).all(axis=-1)
                    if moves.any():
                        part[r[:, None], s] = Vr @ (moves * words) @ Xs
        return out

    @cached_property
    def bigrading(self) -> dict[tuple[int, int], np.ndarray]:
        """Projectors onto the ``U^{p,q}`` (|p|+|q| <= n, p+q = n mod 2).

        Exact joint eigenbasis (Gualtieri, *Generalized Kahler geometry*, CMP
        331 (2014), arXiv:1007.3485): the pure spinor of ``L_1 = V_+^{1,0} +
        V_-^{1,0}`` spans ``U^{n,0}``, and vectors of ``V_+^{0,1}`` and
        ``V_-^{0,1}`` shift (p, q) by (-1, -1) and (-1, +1), so the words with
        ``a`` and ``b`` letters from their frames span ``U^{n-a-b, b-a}``.
        These are orthogonal for the pair's L2 Gram matrix ``star_gram``.
        """
        return _label_projectors(self._labels, self._blocks)

    def _levels(self, axis: int) -> dict[int, np.ndarray]:
        levels = _label_projectors(self._labels[:, [axis]], self._blocks)
        return {k: P for (k,), P in levels.items()}

    @cached_property
    def proj1(self) -> dict[int, np.ndarray]:
        """Eigenlevel projectors of the first structure (the p of the bigrading)."""
        return self._levels(0)

    @cached_property
    def proj2(self) -> dict[int, np.ndarray]:
        """Eigenlevel projectors of the second structure (the q of the bigrading)."""
        return self._levels(1)

    def sector_projector(self, plus: bool, holo: bool) -> np.ndarray:
        """``(1 - i s_h J1)/2 (1 + s_p G)/2``, onto the +-1 eigenspace of the
        product within the (anti)holomorphic eigenspace of the first structure."""
        eye = np.eye(2 * self.m)
        s_h = 1.0 if holo else -1.0
        s_p = 1.0 if plus else -1.0
        return (0.5 * (eye - 1j * s_h * self.J1)) @ (0.5 * (eye + s_p * self.G))

    def sector_frame(self, plus: bool, holo: bool) -> np.ndarray:
        """Orthonormal frame of the rank-n image of ``sector_projector``."""
        return _projector_column_space(self.sector_projector(plus, holo), self.n)

    def canonical_generator(self, which: int = 2) -> np.ndarray:
        """Generator of the top eigenlevel line of structure ``which``: the
        one word labelled (n, 0) or (0, n), over its first largest entry
        (``_over_first_largest``), so no projector is formed."""
        (word,) = np.flatnonzero(self._words(None, self.n) if which == 2 else self._words(self.n, None))
        out = np.zeros(spinor_dim(self.m), dtype=complex)
        for r, w, Vb, _ in self._blocks:
            if word in w:
                out[r] = Vb[:, np.searchsorted(w, word)]
        return _over_first_largest(out)


def standard_kahler_pair(m: int) -> HermitianPair:
    """Flat pair: standard complex structure, identity metric, no b-field."""
    return HermitianPair.from_kahler(standard_complex_structure(m))


def random_hermitian_pair(rng: np.random.Generator, m: int, b_scale: float = 1.0) -> HermitianPair:
    """Draw a pair from a random metric, b-field and two orthogonal complex
    structures on the +-1 eigenspaces of the generalized metric."""
    m = _check_m(m)
    if m % 2:
        raise ValueError("Hermitian pairs need an even dimension")
    A = rng.normal(size=(m, m))
    g = A @ A.T + 0.5 * np.eye(m)
    b = rng.normal(scale=b_scale, size=(m, m))
    b = b - b.T
    G = generalized_metric(g, b)
    P = pairing_matrix(m)

    # pairing-orthonormal frames of both eigenspaces, on the same vector parts
    F_plus = _metric_frame(g, b, 1)
    X = F_plus[:m]
    F_minus = np.vstack([X, -(g + b) @ X])

    def random_orthogonal_complex_structure() -> np.ndarray:
        Q, R = np.linalg.qr(rng.normal(size=(m, m)))
        Q = Q * np.sign(np.diag(R))
        return Q @ standard_complex_structure(m) @ Q.T

    j_p = random_orthogonal_complex_structure()
    j_m = random_orthogonal_complex_structure()
    J1 = F_plus @ j_p @ F_plus.T @ P - F_minus @ j_m @ F_minus.T @ P
    return HermitianPair(J1, G @ J1)
