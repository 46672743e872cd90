"""L2 theory for form fields over a constant generalized Kahler background.

Because the background pair, b-field and twisting three-form are constant on
the torus, every operator of interest (twisted derivative, its graded
components, their adjoints, Laplacians and Green operators) is block-diagonal
over frequencies.  A :class:`BlockOperator` stores one ``2**m x 2**m`` block
per frequency of a declared support and refuses to act outside of it.

The inner product is ``h(f, g) = sum_k (f_k, star conj(g_k))_Ch`` with the
star taken in the standard torus orientation; this is the unique placement of
the conjugation for which the adjoint sign pattern of the four graded
components comes out right (shipped as a test on the flat Kahler plane).
"""

from __future__ import annotations

import itertools
from functools import cached_property

import numpy as np

from genkahler.clifford import chevalley_gram, spinor_dim, wedge_matrices, wedge_operator
from genkahler.fields import FourierField, derivative_block, three_form_spinor
from genkahler.structures import HermitianPair, hodge_star

__all__ = [
    "DELTA_SHIFTS",
    "COMPONENT_SHIFTS",
    "BlockOperator",
    "l2_gram",
    "l2_inner",
    "l2_norm",
    "adjoint_block",
    "adjoint",
    "derivative_operator",
    "component_operator",
    "laplacian",
    "green_operator",
    "harmonic_projector",
    "green_apply",
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


class BlockOperator:
    """Frequency-diagonal operator on spinor fields over a fixed support."""

    def __init__(self, torus_dim: int, value_dim: int, support, blocks=None, label: str = ""):
        self.torus_dim = int(torus_dim)
        self.value_dim = int(value_dim)
        self.support = tuple(sorted(tuple(int(v) for v in k) for k in support))
        self._support_set = set(self.support)
        self.label = label
        self.blocks: dict[tuple[int, ...], np.ndarray] = {}
        for k, B in (blocks or {}).items():
            key = tuple(int(v) for v in k)
            if key not in self._support_set:
                raise ValueError(f"block frequency {key} outside declared support")
            B = np.asarray(B, dtype=complex)
            if B.shape != (self.value_dim, self.value_dim):
                raise ValueError(f"block shape {B.shape} != square {self.value_dim}")
            self.blocks[key] = B.copy()

    @classmethod
    def identity(cls, torus_dim: int, value_dim: int, support, label: str = "Id") -> "BlockOperator":
        eye = np.eye(value_dim, dtype=complex)
        op = cls(torus_dim, value_dim, support, label=label)
        op.blocks = {k: eye.copy() for k in op.support}
        return op

    @classmethod
    def from_constant(cls, torus_dim: int, support, matrix, label: str = "") -> "BlockOperator":
        matrix = np.asarray(matrix, dtype=complex)
        op = cls(torus_dim, matrix.shape[0], support, label=label)
        op.blocks = {k: matrix.copy() for k in op.support}
        return op

    def __getitem__(self, k) -> np.ndarray:
        key = tuple(int(v) for v in k)
        if key not in self._support_set:
            raise ValueError(f"frequency {key} outside operator support")
        B = self.blocks.get(key)
        return B if B is not None else np.zeros((self.value_dim, self.value_dim), dtype=complex)

    def _like(self, label: str) -> "BlockOperator":
        return BlockOperator(self.torus_dim, self.value_dim, self.support, label=label)

    def _check_match(self, other: "BlockOperator") -> None:
        if (
            other.torus_dim != self.torus_dim
            or other.value_dim != self.value_dim
            or other.support != self.support
        ):
            raise ValueError("block operators live over different supports")

    def act(self, field: FourierField) -> FourierField:
        if field.torus_dim != self.torus_dim or field.value_dim != self.value_dim:
            raise ValueError("field shape does not match operator")
        out = FourierField(self.torus_dim, self.value_dim)
        for k, c in sorted(field.coeffs.items()):
            if k not in self._support_set:
                raise ValueError(f"field frequency {k} outside operator support")
            B = self.blocks.get(k)
            out.coeffs[k] = (B @ c) if B is not None else np.zeros_like(c)
        return out

    def __matmul__(self, other: "BlockOperator") -> "BlockOperator":
        if not isinstance(other, BlockOperator):
            return NotImplemented
        self._check_match(other)
        out = self._like(f"{self.label}*{other.label}" if self.label or other.label else "")
        for k in self.support:
            A = self.blocks.get(k)
            B = other.blocks.get(k)
            if A is not None and B is not None:
                out.blocks[k] = A @ B
        return out

    def _binary(self, other: "BlockOperator", sign: float) -> "BlockOperator":
        self._check_match(other)
        out = self._like("")
        for k in self.support:
            A = self.blocks.get(k)
            B = other.blocks.get(k)
            if A is None and B is None:
                continue
            out.blocks[k] = self[k] + sign * other[k]
        return out

    def __add__(self, other):
        return self._binary(other, 1.0)

    def __sub__(self, other):
        return self._binary(other, -1.0)

    def __mul__(self, scalar):
        out = self._like(self.label)
        out.blocks = {k: complex(scalar) * B for k, B in self.blocks.items()}
        return out

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def map_blocks(self, func, label: str = "") -> "BlockOperator":
        out = self._like(label)
        out.blocks = {k: np.asarray(func(B), dtype=complex) for k, B in sorted(self.blocks.items())}
        return out

    def coeff_norm(self) -> float:
        if not self.blocks:
            return 0.0
        return float(np.sqrt(sum(np.linalg.norm(B) ** 2 for B in self.blocks.values())))

    def max_block_norm(self) -> float:
        if not self.blocks:
            return 0.0
        return float(max(np.linalg.norm(B) for B in self.blocks.values()))


# ---------------------------------------------------------------------------
# inner product and adjoints


def l2_gram(pair: HermitianPair) -> np.ndarray:
    """Gram matrix ``A`` with ``h(f, g) = g^H A f`` per frequency.

    Real, symmetric and positive definite; raises ``ValueError`` otherwise
    (that signals an inner-product construction bug, not bad user data).
    """
    star = hodge_star(pair.metric, pair.b_field, orientation=1)
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


def l2_inner(f: FourierField, g: FourierField, pair_or_gram) -> complex:
    """Hermitian inner product, conjugate-linear in the second argument."""
    A = _as_gram(pair_or_gram)
    total = 0.0
    for k, fk in f.coeffs.items():
        gk = g.coeffs.get(k)
        if gk is not None:
            total = total + gk.conj() @ A @ fk
    return complex(total)


def l2_norm(f: FourierField, pair_or_gram) -> float:
    return float(np.sqrt(max(l2_inner(f, f, pair_or_gram).real, 0.0)))


def adjoint_block(B: np.ndarray, gram: np.ndarray) -> np.ndarray:
    return np.linalg.solve(gram, B.conj().T @ gram)


def adjoint(op: BlockOperator, pair_or_gram) -> BlockOperator:
    A = _as_gram(pair_or_gram)
    return op.map_blocks(lambda B: adjoint_block(B, A), label=f"{op.label}*")


# ---------------------------------------------------------------------------
# the twisted derivative and its graded components


def derivative_operator(
    torus_dim: int, support, h: np.ndarray | None = None, label: str = "dH"
) -> BlockOperator:
    op = BlockOperator(torus_dim, spinor_dim(torus_dim), support, label=label)
    op.blocks = {k: derivative_block(k, torus_dim, h) for k in op.support}
    return op


def component_operator(
    shift: tuple[int, int],
    pair: HermitianPair,
    support,
    h: np.ndarray | None = None,
) -> BlockOperator:
    """Graded component of the twisted derivative for one (dp, dq) shift.

    Affine in the frequency: ``derivative_block(k) = i sum_j k_j W_j + H^``
    (``W_j`` the wedge by ``dx_{j+1}``), so the block at ``k`` is
    ``i sum_j k_j C_j + C_H`` with ``C_j = sum_{(p,q)} P_{p+dp,q+dq} W_j P_{pq}``
    over the bigrading and ``C_H`` the same sum with ``H^`` in place of
    ``W_j`` (only when ``h`` is set).  The m (+1) matrices are built once per
    call; the blocks are views into one ``(S, n, n)`` stack.
    """
    shift = (int(shift[0]), int(shift[1]))
    if shift not in COMPONENT_SHIFTS:
        raise ValueError(f"unsupported shift label {shift}")
    dp, dq = shift
    m = pair.m
    n = spinor_dim(m)
    out = BlockOperator(m, n, support, label=f"dH[{dp},{dq}]")

    # W_j is a signed row permutation: (W_j @ X)[J] = sign[j, J] * X[src[j, J]]
    W = np.stack(wedge_matrices(m))
    src = np.abs(W).argmax(axis=2)
    sign = np.take_along_axis(W, src[..., None], axis=2)
    Hw = None if h is None else wedge_operator(three_form_spinor(h))
    grading = pair.bigrading
    terms = np.zeros((m + (Hw is not None), n, n), dtype=complex)
    for (p, q), Ppq in grading.items():
        target = grading.get((p + dp, q + dq))
        if target is None:
            continue
        right = sign * Ppq[src]
        if Hw is not None:
            right = np.concatenate([right, (Hw @ Ppq)[None]])
        terms += target @ right

    freqs = np.array(out.support, dtype=float).reshape(len(out.support), m)
    coeff = 1j * freqs
    if Hw is not None:
        coeff = np.concatenate([coeff, np.ones((len(freqs), 1))], axis=1)
    stack = np.einsum("sj,jab->sab", coeff, terms)
    out.blocks = dict(zip(out.support, stack))
    return out


def laplacian(op: BlockOperator, pair_or_gram) -> BlockOperator:
    A = _as_gram(pair_or_gram)
    star_op = adjoint(op, A)
    out = op @ star_op + star_op @ op
    out.label = f"Lap({op.label})"
    return out


def green_operator(lap: BlockOperator, pair_or_gram, rcond: float = 1e-10) -> BlockOperator:
    """Inverse of a Laplacian on the orthogonal complement of its kernel.

    Per block: transport to coordinates where the inner product is standard,
    invert by eigendecomposition with singular values below ``rcond`` times
    the largest treated as kernel, transport back.
    """
    A = _as_gram(pair_or_gram)
    L = np.linalg.cholesky(A)
    T = L.T
    Tinv = np.linalg.inv(T)

    def block(Dk: np.ndarray) -> np.ndarray:
        Dp = T @ Dk @ Tinv
        Dp = 0.5 * (Dp + Dp.conj().T)
        w, U = np.linalg.eigh(Dp)
        wmax = float(np.max(np.abs(w))) if w.size else 0.0
        inv = np.where(np.abs(w) > rcond * wmax, 1.0 / np.where(w == 0, 1.0, w), 0.0) if wmax > 0 else 0.0 * w
        Gp = (U * inv) @ U.conj().T
        return Tinv @ Gp @ T

    return lap.map_blocks(block, label=f"Green({lap.label})")


def harmonic_projector(lap: BlockOperator, green: BlockOperator) -> BlockOperator:
    eye = BlockOperator.identity(lap.torus_dim, lap.value_dim, lap.support)
    out = eye - lap @ green
    out.label = "harmonic"
    return out


def green_apply(
    rho: FourierField,
    pair: HermitianPair,
    h: np.ndarray | None = None,
    support=None,
    shift: tuple[int, int] = (1, 1),
) -> FourierField:
    """Apply the Green operator of one graded component's Laplacian to a field."""
    if support is None:
        support = rho.support()
    comp = component_operator(shift, pair, support, h)
    gram = l2_gram(pair)
    G = green_operator(laplacian(comp, gram), gram)
    return G.act(rho)


# ---------------------------------------------------------------------------
# a bundled background


class TorusBackground:
    """Constant generalized Kahler background with a fixed frequency support.

    Caches the Gram matrix, the twisted derivative, its four components,
    the reference Laplacian (of the (+1,+1) component), its Green operator
    and the harmonic projector.
    """

    def __init__(self, pair: HermitianPair, support, h: np.ndarray | None = None, rcond: float = 1e-10):
        self.pair = pair
        self.h = h
        self.rcond = rcond
        self.support = tuple(sorted(tuple(int(v) for v in k) for k in support))

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

    @cached_property
    def green(self) -> BlockOperator:
        return green_operator(self.laplace, self.gram, rcond=self.rcond)

    @cached_property
    def harmonic(self) -> BlockOperator:
        return harmonic_projector(self.laplace, self.green)

    def inner(self, f: FourierField, g: FourierField) -> complex:
        return l2_inner(f, g, self.gram)

    def norm(self, f: FourierField) -> float:
        return l2_norm(f, self.gram)

    def adjoint(self, op: BlockOperator) -> BlockOperator:
        return adjoint(op, self.gram)
