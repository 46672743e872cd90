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
    _ladder_tables,
    _ladder_weights,
    chevalley_gram,
    pairing_matrix,
    spinor_dim,
)

__all__ = [
    "gcs_residual",
    "require_gcs",
    "standard_complex_structure",
    "standard_symplectic_form",
    "complex_structure_gcs",
    "symplectic_gcs",
    "iso_projectors",
    "volume_spin_element",
    "canonical_generator",
    "l_frame",
    "generalized_metric",
    "metric_from_generalized",
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


#: Absolute tolerance of the structure and pair identities.
_TOL = 1e-9


def require_gcs(J: np.ndarray) -> np.ndarray:
    J = np.asarray(J, dtype=complex)
    if J.ndim != 2 or J.shape[0] != J.shape[1] or J.shape[0] % 2:
        raise ValueError(f"expected a 2m x 2m matrix, got {J.shape}")
    res = gcs_residual(J)
    if res > _TOL:
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


def _act_on_rows(weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The Clifford action whose ``_ladder_weights`` ``(m, 2**m)`` are given
    on each row of ``rows``: a sum of one signed gather per ladder with a
    nonzero weight (``clifford_act`` takes all m at once, an m-fold larger
    temporary).  Some weight must be nonzero."""
    source, _ = _ladder_tables(len(weights))
    first, *rest = np.flatnonzero(weights.any(axis=1))
    out = weights[first] * rows[..., source[first]]
    for j in rest:
        out += weights[j] * rows[..., source[j]]
    return out


def _clifford_product(frame: np.ndarray) -> np.ndarray:
    """``cl(f_1) @ cl(f_2) @ ... @ cl(f_k)`` over the columns of ``frame``.

    The factors multiply the identity from the right, left one first.  The
    contraction and the wedge by one coordinate are each other's transpose,
    so the rows of ``X cl(v)`` are ``cl(v') X[r]`` with the halves of ``v``
    swapped in ``v'``; a diagonal metric's frame uses one ladder per factor.
    """
    m = frame.shape[0] // 2
    out = np.eye(spinor_dim(m), dtype=complex)
    for weights in _ladder_weights(np.roll(frame, m, axis=0).T):
        out = _act_on_rows(weights, out)
    return out


def _word_basis(
    L: np.ndarray, Lbar: np.ndarray, steps, top, gram: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Clifford words on a pure spinor, their inverse and their labels.

    ``L`` frames (columns) a maximal isotropic subspace, ``Lbar`` a
    complement.  The pure spinor ``rho`` of ``L`` spans the common kernel of
    ``cl(L)``, the image of the rank-one ``cl(l_1) ... cl(l_m)``.  The words
    ``cl(lbar_I) rho`` over subsets ``I`` form a basis ``V`` (normalised
    columns), the word of ``I`` labelled ``top + sum_{i in I} steps[i]``
    (one row of ``labels`` per word); label ``s`` projects by
    ``V[:, s] V^-1[s]``.
    Given a ``gram`` A making the words orthogonal, ``V^-1 = (V^H A V)^-1
    V^H A`` is solved from a nearly diagonal matrix.  In exact arithmetic any
    A with ``V^H A V`` invertible gives the same result; in floating point a
    plain ``inv(V)`` loses idempotency to about 1e-13 of the size of the
    pieces at m = 8 (3.5e-10 absolute on a random pair), the solve keeps it
    below 1e-15.
    """
    M = _clifford_product(L)
    rho = M[:, np.argmax(np.linalg.norm(M, axis=0))]
    V, labels = rho[:, None], np.array([top])
    for weights, step in zip(_ladder_weights(Lbar.T), steps):
        V, labels = np.hstack([V, _act_on_rows(weights, V.T).T]), np.concatenate([labels, labels + step])
    V /= np.linalg.norm(V, axis=0)
    if gram is None:
        V_inv = np.linalg.inv(V)
    else:
        H = V.conj().T @ gram
        V_inv = np.linalg.solve(H @ V, H)
    return V, V_inv, labels


def _label_projectors(V: np.ndarray, V_inv: np.ndarray, labels: np.ndarray) -> dict:
    """``V[:, s] V^-1[s]`` for every label ``s`` of a word basis."""
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
    J = require_gcs(J)
    m = J.shape[0] // 2
    if m % 2:
        raise ValueError("the eigenlevel grading needs an even dimension")
    L = _projector_column_space(0.5 * (np.eye(2 * m) - 1j * J), m)
    levels = _label_projectors(*_word_basis(L, L.conj(), [(-1,)] * m, (m // 2,)))
    return {k: P for (k,), P in levels.items()}


def volume_spin_element(J: np.ndarray, projectors: dict[int, np.ndarray] | None = None) -> np.ndarray:
    """Spin-group element acting as ``i**k`` on the level-k space.

    Equals the spin exponential of ``(pi/2) J``.
    """
    if projectors is None:
        projectors = iso_projectors(J)
    return sum((1j**k) * Pk for k, Pk in sorted(projectors.items()))


def canonical_generator(J: np.ndarray, projectors: dict[int, np.ndarray] | None = None) -> np.ndarray:
    """Generator of the top eigenlevel line, scaled so max|coeff| = 1.

    Deterministic: picks the largest column of the top-level projector and
    divides by its largest entry (first index on ties).  ``projectors`` are
    the eigenlevel projectors of ``J`` if already at hand.  The projector is
    idempotent, so its trace is its rank and must be one.
    """
    if projectors is None:
        projectors = iso_projectors(J)
    Pn = projectors[max(projectors)]
    if abs(np.trace(Pn) - 1) > 0.5:
        raise ValueError("top eigenlevel is not a line")
    col = int(np.argmax(np.linalg.norm(Pn, axis=0)))
    v = Pn[:, col]
    piv = int(np.argmax(np.abs(v)))
    return v / v[piv]


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


def hodge_star(
    metric: np.ndarray,
    b_field: np.ndarray | None = None,
    orientation: int = 1,
) -> np.ndarray:
    """Spinor star operator of a metric (+ optional b-field) and orientation.

    Minus the Clifford product of a pairing-orthonormal frame of the +1
    eigenspace of the generalized metric, first frame vector acting first.
    The result only depends on the frame through its orientation.
    """
    F = _metric_frame(metric, b_field, orientation)
    return -_clifford_product(F[:, ::-1])


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
    The bigrading is kept as one word basis (``_word_basis``): the words
    ``V``, their inverse and one ``(p, q)`` label per word.  ``project``
    applies a label's or a level's projector to rows and ``shift_part``
    takes the part of an operator that shifts every label by one amount,
    both through the basis; the dense projectors (``bigrading``, ``proj1``,
    ``proj2``) are formed only when asked for.
    """

    def __init__(self, J1: np.ndarray, J2: np.ndarray):
        J1 = require_gcs(J1)
        J2 = require_gcs(J2)
        m = J1.shape[0] // 2
        if m % 2:
            raise ValueError("Hermitian pairs need an even dimension")
        if np.linalg.norm(J1 @ J2 - J2 @ J1) > _TOL:
            raise ValueError("structures do not commute")
        G = -J1 @ J2
        if np.linalg.norm(G @ G - np.eye(2 * m)) > _TOL:
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
        if np.linalg.norm(G @ J1 - J1 @ G) > _TOL:
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
        """Star, its Gram matrix, the word basis, and the star against the
        product of the spin volume elements, ``V diag(i^{p+q}) V^-1``."""
        F = _metric_frame(self.metric, self.b_field, 1)
        j_plus = F.T @ pairing_matrix(self.m) @ self.J1 @ F
        if np.linalg.norm(j_plus @ j_plus + np.eye(self.m)) > 1e-8:
            raise ValueError("first structure does not restrict to the +1 eigenspace")
        self.orientation = _complex_orientation_sign(j_plus.real)
        self.star = hodge_star(self.metric, self.b_field, self.orientation)
        # C couples each subset I only with its complement n - 1 - I, so C star
        # is a signed row gather; the orientation sign is that of hodge.l2_gram
        signs = chevalley_gram(self.m)[:, ::-1].diagonal()
        self.star_gram = (signs[:, None] * (self.orientation * self.star)[::-1]).T
        n = self.n
        L = np.hstack([self.sector_frame(True, True), self.sector_frame(False, True)])
        Lbar = np.hstack([self.sector_frame(True, False), self.sector_frame(False, False)])
        self._V, self._V_inv, self._labels = _word_basis(
            L, Lbar, [(-1, -1)] * n + [(-1, 1)] * n, (n, 0), self.star_gram
        )
        vol = (self._V * _QUARTER_TURNS[self._labels.sum(axis=1) % 4]) @ self._V_inv
        res = np.linalg.norm(self.star + vol)
        if res > 1e-8 * np.linalg.norm(self.star):
            raise ValueError(f"star does not match the spin volume elements (residual {res:.3e})")

    def _words(self, p: int | None, q: int | None) -> np.ndarray:
        """Mask of the words labelled ``(p, q)``; an omitted index matches any."""
        s = np.ones(len(self._labels), dtype=bool)
        for axis, k in enumerate((p, q)):
            if k is not None:
                s &= self._labels[:, axis] == k
        return s

    def project(self, rows: np.ndarray, p: int | None = None, q: int | None = None) -> np.ndarray:
        """``rows @ P.T`` for the projector ``P`` onto ``U^{p,q}``, or with
        ``q`` (``p``) omitted onto level ``p`` of the first (level ``q`` of
        the second) structure, as two thin products through the word basis."""
        s = self._words(p, q)
        return (rows @ self._V_inv[s].T) @ self._V[:, s].T

    def shift_part(self, op: np.ndarray, shift: tuple[int, int]) -> np.ndarray:
        """``sum_{(p,q)} P_{p+dp,q+dq} op P_{pq}``, the part of ``op`` that moves
        each ``U^{p,q}`` by ``shift = (dp, dq)``, as ``V (moves * (V^-1 op V))
        V^-1`` with ``moves[s, t]`` true when word s is labelled word t's
        label plus the shift."""
        moves = (self._labels[:, None] == self._labels[None] + np.asarray(shift)).all(axis=-1)
        return self._V @ (moves * (self._V_inv @ op @ self._V)) @ self._V_inv

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
        return _label_projectors(self._V, self._V_inv, self._labels)

    def _levels(self, axis: int) -> dict[int, np.ndarray]:
        levels = _label_projectors(self._V, self._V_inv, self._labels[:, [axis]])
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
        """``canonical_generator`` of one structure from the rank-one
        projector of its top level, the one word labelled (n, 0) or (0, n)."""
        J, s = (self.J2, self._words(None, self.n)) if which == 2 else (self.J1, self._words(self.n, None))
        return canonical_generator(J, projectors={self.n: self._V[:, s] @ self._V_inv[s]})


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

    # pairing-orthonormal frames of both eigenspaces
    Lch = np.linalg.cholesky(g)
    X = np.linalg.solve(Lch, np.eye(m)).T
    F_plus = np.vstack([X, (g - b) @ X])
    F_minus = np.vstack([X, -(g + b) @ X])

    def random_orthogonal_complex_structure() -> np.ndarray:
        Q, R = np.linalg.qr(rng.normal(size=(m, m)))
        Q = Q * np.sign(np.diag(R))
        return Q @ standard_complex_structure(m) @ Q.T

    j_p = random_orthogonal_complex_structure()
    j_m = random_orthogonal_complex_structure()
    J1 = F_plus @ j_p @ F_plus.T @ P - F_minus @ j_m @ F_minus.T @ P
    return HermitianPair(J1, G @ J1)
