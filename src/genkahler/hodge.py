"""L2 theory for form fields over a constant generalized Kahler background.

Because the background pair, b-field and twisting three-form are constant on
the torus, every operator of interest (twisted derivative, its graded
components, their adjoints, Laplacians and Green operators) is block-diagonal
over frequencies.  A spinor field is packed as one ``(S, n)`` array over a
:class:`Support` of ``S`` sorted frequencies (``n = 2**m``; row ``s`` holds
the coefficient of frequency ``s``), and a :class:`BlockOperator` holds its
``n x n`` blocks as one ``(S, n, n)`` array over the same support.  Every
operation is one batched numpy call: an operator acts on a packed field by
one batched ``matmul``, the inner product is one ``vdot``, sums and scalar
multiples work on the stack, products are one batched ``matmul`` and
adjoints use one factorization of the Gram matrix for all blocks.

Untwisted, Gualtieri's identities (*Generalized Kahler geometry*, CMP 331
(2014), arXiv:1007.3485) give the graded structure in closed form: the
components are Clifford actions ``delta_s(k) = i cl(pi_s k)`` and
``4 Lap_{delta+}(k) = |k|^2_{g^-1} Id``.  ``laplacian`` and the batched
``eigh`` of ``green_operator`` serve the twisted case and cross-checks.

The inner product is ``h(f, g) = sum_k (f_k, star conj(g_k))_Ch`` with the
star taken in the standard torus orientation; this is the unique placement of
the conjugation for which the adjoint sign pattern of the four graded
components comes out right (shipped as a test on the flat Kahler plane).
"""

from __future__ import annotations

import copy
import itertools
from functools import cached_property

import numpy as np

from genkahler.clifford import chevalley_gram, clifford_matrices, spinor_dim, wedge_matrices, wedge_operator
from genkahler.fields import FourierOperatorField, derivative_rows, three_form_spinor
from genkahler.structures import HermitianPair

__all__ = [
    "DELTA_SHIFTS",
    "COMPONENT_SHIFTS",
    "Support",
    "BlockOperator",
    "l2_gram",
    "l2_inner",
    "l2_norm",
    "adjoint",
    "derivative_operator",
    "component_operator",
    "laplacian",
    "green_operator",
    "TorusBackground",
]

#: The four level-(+-1) shifts of the twisted derivative on an integrable
#: background and their conventional names.
DELTA_SHIFTS: dict[str, tuple[int, int]] = {
    "delta+": (1, 1),
    "delta-": (1, -1),
    "delta_bar+": (-1, -1),
    "delta_bar-": (-1, 1),
}

#: Every shift the twisted derivative can realize on a non-integrable
#: background (torsion adds the +-3 entries).
COMPONENT_SHIFTS: tuple[tuple[int, int], ...] = tuple(
    itertools.product((-3, -1, 1, 3), repeat=2)
)


class Support(tuple):
    """Sorted distinct integer frequencies and their row index; sorted once,
    since a ``Support`` given where a support is expected is used as it is."""

    def __new__(cls, frequencies):
        if isinstance(frequencies, Support):
            return frequencies
        return super().__new__(cls, sorted({tuple(int(v) for v in k) for k in frequencies}))

    @cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        return {k: row for row, k in enumerate(self)}

    @cached_property
    def _shifts(self) -> dict[tuple[int, ...], np.ndarray]:
        return {}

    def shifted(self, p) -> np.ndarray:
        """Row of ``k + p`` for the frequency ``k`` of every row, -1 where that
        leaves the support; one lookup table per shift, cached."""
        p = tuple(int(v) for v in p)
        rows = self._shifts.get(p)
        if rows is None:
            columns = [[k[d] + p[d] for k in self] for d in range(len(p))]
            rows = np.array([self.index.get(k, -1) for k in zip(*columns)], dtype=np.intp)
            rows.setflags(write=False)
            self._shifts[p] = rows
        return rows

    @cached_property
    def frequencies(self) -> np.ndarray:
        """The frequencies as one read-only float ``(S, m)`` matrix."""
        freqs = np.array(self, dtype=float).reshape(len(self), len(self[0]) if self else 0)
        freqs.setflags(write=False)
        return freqs

    def pack(self, field) -> np.ndarray:
        """Coefficients of a Fourier field as one ``(S, *value shape)`` array
        over the support; a frequency outside it raises."""
        shape = (field.value_dim,) * (2 if isinstance(field, FourierOperatorField) else 1)
        out = np.zeros((len(self), *shape), dtype=complex)
        for k, c in field.coeffs.items():
            row = self.index.get(k)
            if row is None:
                raise ValueError(f"frequency {k} lies outside the support")
            out[row] = c
        return out

    def unpack(self, arr: np.ndarray | None, cls, torus_dim: int, value_dim: int):
        """The Fourier field (``cls``) of a packed array, keyed by its nonzero
        rows; None stands for the zero field."""
        out = cls(torus_dim, value_dim)
        if arr is not None:
            rows = np.flatnonzero(arr.reshape(len(arr), -1).any(axis=1))
            out.coeffs = dict(zip((self[r] for r in rows), arr[rows]))
        return out


class BlockOperator:
    """Frequency-diagonal operator on spinor fields over a fixed support.

    ``support`` is the :class:`Support` of the ``S`` frequencies, ``index``
    maps each of them to its row, and ``stack`` is one complex ``(S, n, n)``
    array holding the block of row ``s`` at ``stack[s]`` (a zero block where
    none was given).  Results of the algebra share the support and index of
    their operands.  The operator acts on fields packed over its support.
    """

    def __init__(self, torus_dim: int, value_dim: int, support, blocks=None):
        self.torus_dim, self.value_dim = int(torus_dim), int(value_dim)
        n = self.value_dim
        self.support = Support(support)
        self.index = self.support.index
        self.stack = np.zeros((len(self.support), n, n), dtype=complex)
        for k, B in (blocks or {}).items():
            key = tuple(int(v) for v in k)
            if key not in self.index:
                raise ValueError(f"block frequency {key} outside declared support")
            B = np.asarray(B, dtype=complex)
            if B.shape != (n, n):
                raise ValueError(f"block shape {B.shape} != square {n}")
            self.stack[self.index[key]] = B

    @classmethod
    def identity(cls, torus_dim: int, value_dim: int, support) -> "BlockOperator":
        return cls.from_constant(torus_dim, support, np.eye(value_dim))

    @classmethod
    def from_constant(cls, torus_dim: int, support, matrix) -> "BlockOperator":
        matrix = np.asarray(matrix, dtype=complex)
        op = cls(torus_dim, matrix.shape[0], support)
        op.stack[:] = matrix
        return op

    def _like(self, stack: np.ndarray) -> "BlockOperator":
        """An operator over the same support holding ``stack`` (not copied)."""
        out = copy.copy(self)
        out.stack = stack
        return out

    @property
    def blocks(self) -> dict[tuple[int, ...], np.ndarray]:
        """Frequency-keyed views into ``stack``."""
        return dict(zip(self.support, self.stack))

    def __getitem__(self, k) -> np.ndarray:
        key = tuple(int(v) for v in k)
        row = self.index.get(key)
        if row is None:
            raise ValueError(f"frequency {key} outside operator support")
        return self.stack[row]

    def _matching(self, other: "BlockOperator") -> np.ndarray:
        """The stack of ``other``, which must live over the same support."""
        if (
            other.torus_dim != self.torus_dim
            or other.value_dim != self.value_dim
            or (other.support is not self.support and other.support != self.support)
        ):
            raise ValueError("block operators live over different supports")
        return other.stack

    def act(self, rows: np.ndarray) -> np.ndarray:
        """The operator on a field packed as ``(S, n)`` over its support."""
        if np.shape(rows) != self.stack.shape[:2]:
            raise ValueError(f"packed field of shape {np.shape(rows)} does not match the operator")
        return np.matmul(self.stack, rows[:, :, None])[:, :, 0]

    def __matmul__(self, other: "BlockOperator") -> "BlockOperator":
        if not isinstance(other, BlockOperator):
            return NotImplemented
        return self._like(np.matmul(self.stack, self._matching(other)))

    def __add__(self, other: "BlockOperator") -> "BlockOperator":
        return self._like(self.stack + self._matching(other))

    def __sub__(self, other: "BlockOperator") -> "BlockOperator":
        return self._like(self.stack - self._matching(other))

    def __mul__(self, scalar):
        return self._like(complex(scalar) * self.stack)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def coeff_norm(self) -> float:
        return float(np.linalg.norm(self.stack))


# ---------------------------------------------------------------------------
# inner product and adjoints


def l2_gram(pair: HermitianPair) -> np.ndarray:
    """Gram matrix ``A`` with ``h(f, g) = g^H A f`` per frequency.

    Real, symmetric and positive definite; raises ``ValueError`` otherwise
    (that signals an inner-product construction bug, not bad user data).
    """
    # the pair's star is taken in its own orientation; -1 negates one frame
    # vector and with it the star
    star = pair.orientation * pair.star
    A = (chevalley_gram(pair.m) @ star).T
    if np.linalg.norm(A.imag) > 1e-12 * np.linalg.norm(A.real):
        raise ValueError("Gram matrix is not real")
    A = A.real
    if np.linalg.norm(A - A.T) > 1e-10 * np.linalg.norm(A):
        raise ValueError("Gram matrix is not symmetric")
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise ValueError("Gram matrix is singular or indefinite") from exc
    return A


def _as_gram(pair_or_gram) -> np.ndarray:
    if isinstance(pair_or_gram, HermitianPair):
        return l2_gram(pair_or_gram)
    return np.asarray(pair_or_gram, dtype=float)


def l2_inner(f: np.ndarray, g: np.ndarray, pair_or_gram) -> complex:
    """Hermitian inner product of two fields packed over one support,
    conjugate-linear in the second argument."""
    return complex(np.vdot(g, f @ _as_gram(pair_or_gram).T))


def l2_norm(f: np.ndarray, pair_or_gram) -> float:
    return float(np.sqrt(max(l2_inner(f, f, pair_or_gram).real, 0.0)))


def adjoint(op: BlockOperator, pair_or_gram) -> BlockOperator:
    """Adjoint for ``h``: the block ``A^-1 B^H A`` at every frequency.

    The Gram matrix ``A`` is factorized once (as its inverse) for all blocks.
    """
    A = _as_gram(pair_or_gram)
    work = np.conj(op.stack)
    rhs = np.matmul(work.transpose(0, 2, 1), A)
    np.matmul(np.linalg.inv(A), rhs, out=work)
    return op._like(work)


# ---------------------------------------------------------------------------
# the twisted derivative and its graded components


def _affine_stack(support: Support, terms: np.ndarray, constant: bool) -> np.ndarray:
    """``i sum_j k_j terms[j] (+ terms[-1])`` for every frequency ``k``, as one GEMM."""
    coeff = 1j * support.frequencies.reshape(len(support), len(terms) - constant)
    if constant:
        coeff = np.concatenate([coeff, np.ones((len(support), 1))], axis=1)
    n = terms.shape[-1]
    return (coeff @ terms.reshape(len(terms), n * n)).reshape(len(support), n, n)


def derivative_operator(torus_dim: int, support, h: np.ndarray | None = None) -> BlockOperator:
    """Twisted derivative ``i sum_j k_j W_j + H^`` (``W_j`` the wedge by ``dx_{j+1}``)."""
    op = BlockOperator(torus_dim, spinor_dim(torus_dim), support)
    terms = np.stack(wedge_matrices(torus_dim)).astype(complex)
    if h is not None:
        terms = np.concatenate([terms, wedge_operator(three_form_spinor(h))[None]])
    op.stack = _affine_stack(op.support, terms, h is not None)
    return op


def component_operator(
    shift: tuple[int, int],
    pair: HermitianPair,
    support,
    h: np.ndarray | None = None,
) -> BlockOperator:
    """Graded component of the twisted derivative for one (dp, dq) shift.

    Affine in the frequency: the block at ``k`` is ``i sum_j k_j C_j + C_H``.
    ``i sum_j k_j dx_j^`` is the Clifford action of the covector ``k``, and
    that of a vector in the sector ``pi_s = (1 - i dp J1)/2 (1 + dp dq G)/2``
    shifts every ``U^{p,q}`` by exactly ``(dp, dq)`` (Gualtieri, CMP 331
    (2014)).  So ``C_j = cl(pi_s dx_j)`` for the level-one shifts and 0 for
    the +-3 shifts; ``C_H`` (only with ``h``) is the bigrading sum
    ``sum_{(p,q)} P_{p+dp,q+dq} H^ P_{pq}``.  The stack is one GEMM.
    """
    shift = (int(shift[0]), int(shift[1]))
    if shift not in COMPONENT_SHIFTS:
        raise ValueError(f"unsupported shift label {shift}")
    dp, dq = shift
    m = pair.m
    n = spinor_dim(m)
    out = BlockOperator(m, n, support)
    if abs(dp) == abs(dq) == 1:
        terms = clifford_matrices(pair.sector_projector(dp * dq > 0, dp > 0)[:, m:].T)
    else:
        terms = np.zeros((m, n, n), dtype=complex)
    if h is not None:
        Hw, grading = wedge_operator(three_form_spinor(h)), pair.bigrading
        C_H = sum(grading[(p + dp, q + dq)] @ Hw @ P for (p, q), P in grading.items() if (p + dp, q + dq) in grading)
        terms = np.concatenate([terms, np.broadcast_to(C_H, (1, n, n))])  # C_H is 0 when no level is shifted
    out.stack = _affine_stack(out.support, terms, h is not None)
    return out


def laplacian(op: BlockOperator, pair_or_gram) -> BlockOperator:
    star = adjoint(op, pair_or_gram).stack
    lap = np.matmul(op.stack, star)
    lap += np.matmul(star, op.stack)
    return op._like(lap)


def green_operator(lap: BlockOperator, pair_or_gram, rcond: float = 1e-10) -> BlockOperator:
    """Inverse of a Laplacian on the orthogonal complement of its kernel.

    With ``A = L L^T`` and ``T = L^T``, every block is transported to
    ``T D T^-1``, where the inner product is standard, and replaced by its
    hermitian part.  One batched ``eigh`` diagonalizes all of them; in each
    block the eigenvalues at most ``rcond`` times that block's largest
    modulus count as kernel (all of them in a zero block, which maps to
    zero) and the rest are inverted before transporting back.
    """
    A = _as_gram(pair_or_gram)
    T = np.linalg.cholesky(A).T
    T_inv = np.linalg.inv(T)
    work = np.matmul(T, lap.stack)
    herm = np.matmul(work, T_inv)
    # hermitian part in place: symmetric real part, antisymmetric imaginary part
    np.add(herm.real, herm.real.transpose(0, 2, 1), out=herm.real)
    np.subtract(herm.imag, herm.imag.transpose(0, 2, 1), out=herm.imag)
    herm *= 0.5
    w, U = np.linalg.eigh(herm)
    keep = np.abs(w) > rcond * np.abs(w).max(axis=1, initial=0.0, keepdims=True)
    inv_w = np.divide(1.0, w, out=np.zeros_like(w), where=keep)
    np.multiply(U, inv_w[:, None, :], out=work)
    np.conj(U, out=U)
    np.matmul(work, U.transpose(0, 2, 1), out=herm)
    np.matmul(T_inv, herm, out=work)
    np.matmul(work, T, out=herm)
    return lap._like(herm)


# ---------------------------------------------------------------------------
# a bundled background


class TorusBackground:
    """Constant generalized Kahler background over one :class:`Support`.

    Caches the Gram matrix, the twisted derivative, its four components, the
    reference Laplacian (of the (+1,+1) component), its Green operator and
    the harmonic projector.  Untwisted, ``4 Lap_{delta+}(k) = |k|^2_{g^-1}
    Id`` (Gualtieri, CMP 331 (2014)): the Green operator is ``4/|k|^2_{g^-1}``
    off ``k = 0`` and zero there, the harmonic projector the identity at
    ``k = 0``.  Twisted, both come from the computed Laplacian.  Fields are packed over
    the background's support.
    """

    def __init__(self, pair: HermitianPair, support, h: np.ndarray | None = None):
        self.pair = pair
        self.h = h
        self.support = Support(support)

    @cached_property
    def gram(self) -> np.ndarray:
        return l2_gram(self.pair)

    @cached_property
    def derivative(self) -> BlockOperator:
        return derivative_operator(self.pair.m, self.support, self.h)

    @cached_property
    def components(self) -> dict[str, BlockOperator]:
        return {
            name: component_operator(shift, self.pair, self.support, self.h)
            for name, shift in DELTA_SHIFTS.items()
        }

    @cached_property
    def laplace(self) -> BlockOperator:
        return laplacian(self.components["delta+"], self.gram)

    def _scalar(self, of_k2) -> BlockOperator:
        """The operator ``of_k2(|k|^2_{g^-1}) Id`` on the block of every ``k``."""
        m = self.pair.m
        k = self.support.frequencies.reshape(len(self.support), m)
        k2 = np.einsum("si,ij,sj->s", k, np.linalg.inv(self.pair.metric), k)
        op = BlockOperator(m, spinor_dim(m), self.support)
        op.stack = of_k2(k2)[:, None, None] * np.eye(op.value_dim, dtype=complex)
        return op

    @cached_property
    def green(self) -> BlockOperator:
        if self.h is not None:
            return green_operator(self.laplace, self.gram)
        return self._scalar(lambda k2: np.divide(4.0, k2, out=np.zeros_like(k2), where=k2 > 0))

    @cached_property
    def harmonic(self) -> BlockOperator:
        if self.h is not None:
            lap = self.laplace
            return BlockOperator.identity(lap.torus_dim, lap.value_dim, lap.support) - lap @ self.green
        return self._scalar(lambda k2: (k2 == 0).astype(float))

    def differentiate(self, rows: np.ndarray) -> np.ndarray:
        """The twisted derivative of a field packed over the support."""
        return derivative_rows(self.support.frequencies, rows, self.h)

    def norm(self, f: np.ndarray) -> float:
        return l2_norm(f, self.gram)

    def adjoint(self, op: BlockOperator) -> BlockOperator:
        return adjoint(op, self.gram)
