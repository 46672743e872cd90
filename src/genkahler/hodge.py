"""L2 theory for form fields over a constant generalized Kahler background.

Because the background pair, b-field and twisting three-form are constant on
the torus, every operator of interest (twisted derivative, its graded
components, their adjoints and Laplacians) is block-diagonal over
frequencies, and its block is a polynomial of degree at most 2 in
``kappa = i k``.  A :class:`BlockOperator` stores the coefficient matrices of
that polynomial (m or m+1 of them for the derivative and its components), so
products, sums and adjoints work on a few ``n x n`` matrices and an identity
checked on the coefficients holds at every frequency in ``Z^m``.  A spinor
field is packed as one ``(S, n)`` array over a :class:`Support` of ``S``
sorted frequencies (``n = 2**m``; row ``s`` holds the coefficient of
frequency ``s``); an operator acts on it through the blocks it evaluates
there, and the inner product is one ``vdot``.

Untwisted, Gualtieri's identities (*Generalized Kahler geometry*, CMP 331
(2014), arXiv:1007.3485) give the graded structure in closed form: the
components are Clifford actions ``delta_s(k) = i cl(pi_s k)`` and
``4 Lap_{delta+}(k) = |k|^2_{g^-1} Id``, so the Green operator is the scalar
``4/|k|^2_{g^-1}`` off ``k = 0``.  A Clifford action is a weighted sum of the
2m ladders, which are signed bit flips, so :class:`TorusBackground`, the
untwisted background the solver works on, applies the components to packed
rows as signed gathers weighted by the per-row vectors ``i pi_s k`` and
builds no coefficient matrices.  The :class:`BlockOperator` algebra
(``derivative_operator``, ``component_operator``, ``adjoint``) serves the
operator identities; ``verify-hodge`` builds it itself, twisted or not, but
multiplies no two of its operators: since ``{cl(u), cl(v)} = 2 <u, v> Id``,
every anticommutator of two components is a :class:`ScalarQuadratic`, an
``m x m`` pairing matrix of the sector covectors times the identity plus,
under a twist, lower-degree terms from the constants (``anticommutators``).

The inner product is ``h(f, g) = sum_k (f_k, star conj(g_k))_Ch`` with the
star taken in the standard torus orientation; this is the unique placement of
the conjugation for which the adjoint sign pattern of the four graded
components comes out right (shipped as a test on the flat Kahler plane).
"""

from __future__ import annotations

import itertools
from functools import cached_property

import numpy as np

from genkahler.clifford import _ladder_gather, _ladder_weights
from genkahler.clifford import clifford_matrices, pairing_matrix, spinor_dim, wedge_matrices, wedge_operator
from genkahler.fields import derivative_rows, three_form_spinor
from genkahler.structures import HermitianPair

__all__ = [
    "DELTA_SHIFTS",
    "COMPONENT_SHIFTS",
    "Support",
    "BlockOperator",
    "l2_gram",
    "l2_norm",
    "adjoint",
    "derivative_operator",
    "component_operator",
    "laplacian",
    "ScalarQuadratic",
    "anticommutators",
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


def _sorted_rows(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lexicographic order of the rows of an integer ``(R, m)`` table
    (first column primary, equal rows kept in their given order) and the
    start of each group of equal rows within that order."""
    order = np.lexsort(table.T[::-1]) if table.size else np.arange(0)
    ordered = table[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return order, np.flatnonzero(first)


def _frequency_table(frequencies) -> np.ndarray:
    """Integer frequencies, an ndarray converted whole, as a new int64 ``(R, m)``
    table (``(0, 0)`` for none); one outside int64 raises ``ValueError``."""
    try:
        table = np.array(frequencies if isinstance(frequencies, np.ndarray) else list(frequencies), dtype=np.int64)
    except OverflowError as exc:
        raise ValueError("a frequency does not fit in int64") from exc
    return table if table.size else table.reshape(0, 0)


def _shifted_rows(table: np.ndarray, steps) -> np.ndarray:
    """Every row of an int64 ``(R, m)`` table plus every step, with the rows
    plus step ``a`` in block ``a``: the one place frequencies are added.  A
    sum outside int64 raises ``ValueError`` instead of wrapping."""
    steps = _frequency_table(steps)
    limits = np.iinfo(np.int64)
    ends = zip(*(x.tolist() for x in (table.min(axis=0), table.max(axis=0), steps.min(axis=0), steps.max(axis=0))))
    if any(low + bottom < limits.min or high + top > limits.max for low, high, bottom, top in ends):
        raise ValueError("frequency sums leave the int64 range")
    return (steps[:, None] + table[None]).reshape(-1, table.shape[1])


class Support(tuple):
    """Distinct integer frequencies in lexicographic order: a tuple of tuples over
    one read-only int64 ``(S, m)`` ``table`` sorted once by ``_sorted_rows``, and
    its float copy ``frequencies``; a ``Support`` given is used as it is."""

    def __new__(cls, frequencies):
        if isinstance(frequencies, Support):
            return frequencies
        table = _frequency_table(frequencies)
        order, starts = _sorted_rows(table)
        table = table[order[starts]]
        out = super().__new__(cls, map(tuple, table.tolist()))
        out.table, out.frequencies = table, table.astype(float)
        table.setflags(write=False)
        out.frequencies.setflags(write=False)
        return out

    def rows(self, keys) -> np.ndarray:
        """The row of every key frequency, -1 where it is absent: one
        ``_sorted_rows`` pass over the table and the keys, in which each
        support row comes first in its run of equal rows."""
        keys = _frequency_table(keys).reshape(-1, self.table.shape[1])
        order, starts = _sorted_rows(np.concatenate([self.table, keys]))
        head = order[starts]
        out = np.empty(len(order), dtype=np.intp)
        out[order] = np.repeat(np.where(head < len(self), head, -1), np.diff(starts, append=len(order)))
        return out[len(self) :]

    def pack(self, field) -> np.ndarray:
        """Coefficients of a Fourier field as one ``(S, *value shape)`` array
        over the support; a frequency outside it raises."""
        freqs, coeffs = field.stacked()
        rows = self.rows(freqs)
        if (rows < 0).any():
            raise ValueError(f"frequency {freqs[np.argmin(rows)]} lies outside the support")
        out = np.zeros((len(self), *coeffs.shape[1:]), dtype=complex)
        out[rows] = coeffs
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

    The block at frequency ``k`` is a polynomial in ``kappa = i k``,
    ``sum_t kappa^exponents[t] coeffs[t]``: ``exponents`` is a ``(T, m)``
    table of distinct nonnegative integer exponents in lexicographic order
    and ``coeffs`` the ``(T, n, n)`` stack of coefficient matrices.  The
    constructor sorts the given rows once (``_sorted_rows``) and sums the
    coefficients of equal exponents by one ``np.add.reduceat``.  The algebra
    works on the coefficients, so an identity whose coefficients vanish
    holds at every ``k`` in ``Z^m``.
    Blocks at the ``S`` frequencies of ``support`` (``stack``, ``blocks``)
    are only an evaluation, and ``act`` applies them to a field packed over
    the support.
    """

    def __init__(self, support, exponents, coeffs):
        exponents = np.asarray(exponents, dtype=int)
        coeffs = np.asarray(coeffs, dtype=complex)
        if exponents.ndim != 2 or coeffs.ndim != 3 or coeffs.shape != (len(exponents), coeffs.shape[1], coeffs.shape[1]):
            raise ValueError(f"exponents {exponents.shape} and coefficients {coeffs.shape} do not match")
        self.support = Support(support)
        self.torus_dim, self.value_dim = exponents.shape[1], coeffs.shape[2]
        if self.support and len(self.support[0]) != self.torus_dim:
            raise ValueError("support frequencies do not match the torus dimension")
        order, starts = _sorted_rows(exponents)
        self.exponents = exponents[order[starts]]
        coeffs = coeffs[order]
        self.coeffs = coeffs if len(starts) == len(order) else np.add.reduceat(coeffs, starts)

    def _kappa_powers(self, freqs: np.ndarray) -> np.ndarray:
        """``kappa^e`` for every row ``k`` of ``freqs`` and every exponent ``e``, ``(F, T)``."""
        real = np.prod(freqs[:, None, :] ** self.exponents[None], axis=2)
        # powers of i from a table, so they are exact
        return real * np.array([1, 1j, -1, -1j])[self.exponents.sum(axis=1) % 4]

    def _evaluate(self, freqs: np.ndarray) -> np.ndarray:
        """The blocks at the rows of ``freqs``, one ``(F, n, n)`` array."""
        n = self.value_dim
        return (self._kappa_powers(freqs) @ self.coeffs.reshape(-1, n * n)).reshape(-1, n, n)

    @property
    def stack(self) -> np.ndarray:
        """The ``(S, n, n)`` blocks over the support, row ``s`` at ``stack[s]``."""
        return self._evaluate(self.support.frequencies)

    @property
    def blocks(self) -> dict[tuple[int, ...], np.ndarray]:
        """The blocks over the support keyed by frequency."""
        return dict(zip(self.support, self.stack))

    def act(self, rows: np.ndarray) -> np.ndarray:
        """The operator on a field packed as ``(S, n)`` over its support:
        each row times its block of ``stack``."""
        if np.shape(rows) != (len(self.support), self.value_dim):
            raise ValueError(f"packed field of shape {np.shape(rows)} does not match the operator")
        return np.matmul(self.stack, rows[:, :, None])[:, :, 0]

    def _matching(self, other: "BlockOperator") -> "BlockOperator":
        """``other``, which must live over the same support."""
        if (
            other.torus_dim != self.torus_dim
            or other.value_dim != self.value_dim
            or (other.support is not self.support and other.support != self.support)
        ):
            raise ValueError("block operators live over different supports")
        return other

    def __matmul__(self, other: "BlockOperator") -> "BlockOperator":
        if not isinstance(other, BlockOperator):
            return NotImplemented
        other = self._matching(other)
        exponents = self.exponents[:, None] + other.exponents[None]
        coeffs = np.matmul(self.coeffs[:, None], other.coeffs[None])
        n = self.value_dim
        return BlockOperator(self.support, exponents.reshape(-1, self.torus_dim), coeffs.reshape(-1, n, n))

    def __add__(self, other: "BlockOperator") -> "BlockOperator":
        other = self._matching(other)
        exponents = np.concatenate([self.exponents, other.exponents])
        return BlockOperator(self.support, exponents, np.concatenate([self.coeffs, other.coeffs]))

    def __sub__(self, other: "BlockOperator") -> "BlockOperator":
        return self + (-other)

    def __mul__(self, scalar):
        return BlockOperator(self.support, self.exponents, complex(scalar) * self.coeffs)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def coeff_norm(self) -> float:
        """Frobenius norm of the coefficients."""
        return float(np.linalg.norm(self.coeffs))


# ---------------------------------------------------------------------------
# inner product and adjoints


def l2_gram(pair: HermitianPair) -> np.ndarray:
    """Gram matrix ``A`` with ``h(f, g) = g^H A f`` per frequency.

    Real, symmetric and positive definite; raises ``ValueError`` otherwise
    (that signals an inner-product construction bug, not bad user data).
    """
    # the pair forms ``+-(C star)^T`` once: its star is taken in its own
    # orientation, and -1 negates one frame vector and with it the star
    A = pair.star_gram
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


def l2_inner(f: np.ndarray, g: np.ndarray, gram: np.ndarray) -> complex:
    """Hermitian inner product of two fields packed over one support,
    conjugate-linear in the second argument; ``gram`` is ``l2_gram``."""
    return complex(np.vdot(g, f @ gram.T))


def l2_norm(f: np.ndarray, gram: np.ndarray) -> float:
    """``sqrt(h(f, f))`` as one real product: ``gram`` is real and symmetric,
    so ``Re(f^H A f) = x.A x + y.A y`` for ``f = x + i y``, with the real and
    imaginary rows stacked (a complex product would upcast ``A``)."""
    x = np.concatenate([f.real, f.imag])
    return float(np.sqrt(max(np.vdot(x, x @ gram), 0.0)))


def adjoint(op: BlockOperator, gram: np.ndarray) -> BlockOperator:
    """Adjoint for ``h``: the coefficient ``(-1)^deg A^-1 C^H A`` of every
    term (``A = gram``), since ``conj(kappa) = -kappa``.  ``A^-1`` is formed once."""
    star = np.linalg.inv(gram) @ np.conj(op.coeffs).transpose(0, 2, 1) @ gram
    sign = (-1.0) ** op.exponents.sum(axis=1)
    return BlockOperator(op.support, op.exponents, sign[:, None, None] * star)


# ---------------------------------------------------------------------------
# the twisted derivative and its graded components


def _affine(support, linear: np.ndarray, constant: np.ndarray | None) -> BlockOperator:
    """``sum_j kappa_j linear[j] (+ constant)``: m (+1) coefficients."""
    m = len(linear)
    if constant is None:
        return BlockOperator(support, np.eye(m, dtype=int), linear)
    return BlockOperator(support, np.eye(m + 1, m, dtype=int), np.concatenate([linear, constant[None]]))


def derivative_operator(torus_dim: int, support, h: np.ndarray | None = None) -> BlockOperator:
    """Twisted derivative ``sum_j kappa_j W_j + H^`` (``W_j`` the wedge by ``dx_{j+1}``)."""
    constant = None if h is None else wedge_operator(three_form_spinor(h))
    return _affine(support, np.stack(wedge_matrices(torus_dim)), constant)


def _sector_covectors(pair: HermitianPair, shift: tuple[int, int]) -> np.ndarray:
    """``pi_s dx_j`` for the sector ``pi_s`` of a level-one shift, as the
    columns of a ``(2m, m)`` matrix."""
    dp, dq = shift
    return pair.sector_projector(dp * dq > 0, dp > 0)[:, pair.m :]


def component_operator(
    shift: tuple[int, int],
    pair: HermitianPair,
    support,
    h: np.ndarray | None = None,
) -> BlockOperator:
    """Graded component of the twisted derivative for one (dp, dq) shift.

    Affine in the frequency: ``sum_j kappa_j C_j + C_H``.
    ``sum_j kappa_j dx_j^`` is the Clifford action of the covector ``k``, and
    that of a vector in the sector ``pi_s = (1 - i dp J1)/2 (1 + dp dq G)/2``
    shifts every ``U^{p,q}`` by exactly ``(dp, dq)`` (Gualtieri, CMP 331
    (2014)).  So ``C_j = cl(pi_s dx_j)`` for the level-one shifts and 0 for
    the +-3 shifts; ``C_H`` (only with ``h``) is the bigrading sum
    ``sum_{(p,q)} P_{p+dp,q+dq} H^ P_{pq}``, formed through the pair's word
    basis (``HermitianPair.shift_part``).
    """
    shift = (int(shift[0]), int(shift[1]))
    if shift not in COMPONENT_SHIFTS:
        raise ValueError(f"unsupported shift label {shift}")
    dp, dq = shift
    m = pair.m
    n = spinor_dim(m)
    if abs(dp) == abs(dq) == 1:
        linear = clifford_matrices(_sector_covectors(pair, shift).T)
    else:
        linear = np.zeros((m, n, n), dtype=complex)
    C_H = None if h is None else pair.shift_part(wedge_operator(three_form_spinor(h)), shift)
    return _affine(support, linear, C_H)


def laplacian(op: BlockOperator, gram: np.ndarray) -> BlockOperator:
    star = adjoint(op, gram)
    return op @ star + star @ op


class ScalarQuadratic:
    """Frequency-diagonal operator whose block at ``k`` is
    ``sum_{j,l} kappa_j kappa_l quadratic[j, l] Id + sum_j kappa_j lower[j]
    + lower[m]``: a scalar quadratic part, an ``(m, m)`` matrix, and an
    ``(m + 1, n, n)`` stack of lower-degree coefficients, ``(0, n, n)`` when
    there are none.  The form every anticommutator of two level-one components
    takes (``anticommutators``)."""

    def __init__(self, quadratic: np.ndarray, lower: np.ndarray):
        self.quadratic, self.lower = quadratic, lower

    def __add__(self, other: "ScalarQuadratic") -> "ScalarQuadratic":
        return ScalarQuadratic(self.quadratic + other.quadratic, self.lower + other.lower)

    def __sub__(self, other: "ScalarQuadratic") -> "ScalarQuadratic":
        return self + (-other)

    def __mul__(self, scalar) -> "ScalarQuadratic":
        return ScalarQuadratic(scalar * self.quadratic, scalar * self.lower)

    __rmul__ = __mul__

    def __neg__(self) -> "ScalarQuadratic":
        return self * -1.0

    def coeff_norm(self) -> float:
        """``BlockOperator.coeff_norm`` of the same operator: the merged
        ``kappa_j kappa_l`` coefficient is ``(q_jl + q_lj) Id`` for j < l."""
        q = self.quadratic
        n = self.lower.shape[-1]
        merged = np.triu(q + q.T, 1) + np.diag(np.diag(q))
        return float(np.hypot(np.sqrt(n) * np.linalg.norm(merged), np.linalg.norm(self.lower)))

    def scalar_defect(self) -> float:
        """Frobenius norm of the traceless part of the coefficients (the
        quadratic part is scalar)."""
        n = self.lower.shape[-1]
        trace = np.trace(self.lower, axis1=1, axis2=2)
        return float(np.linalg.norm(self.lower - trace[:, None, None] / n * np.eye(n)))


def _affine_parts(op: BlockOperator) -> tuple[np.ndarray, np.ndarray] | None:
    """The ``(m, n, n)`` linear coefficients, ``kappa_j``'s at ``j``, and the
    constant of an affine operator with a constant term; None without one."""
    # the zero exponent sorts first
    if op.exponents[0].any():
        return None
    linear = np.empty((op.torus_dim, op.value_dim, op.value_dim), dtype=complex)
    linear[op.exponents[1:].argmax(axis=1)] = op.coeffs[1:]
    return linear, op.coeffs[0]


def anticommutators(
    pair: HermitianPair, components: dict[str, BlockOperator]
) -> dict[tuple[str, str], ScalarQuadratic]:
    """``{delta_a, delta_b}`` for every ordered pair of named level-one
    components (``DELTA_SHIFTS`` names), in closed form.

    The linear coefficients are Clifford actions ``cl(w_j)`` of the sector
    covectors, and ``{cl(u), cl(v)} = 2 <u, v> Id`` for a Clifford
    representation (``clifford_relation_residual``), so the quadratic part is
    ``P + P^T`` with ``P_jl = <w^a_j, w^b_l>``.  With a twist the components
    have constants ``C_H`` (read off ``components``), which add the
    ``kappa_j`` coefficients ``{C^a_j, C^b_H} + {C^a_H, C^b_j}`` and the
    constant ``{C^a_H, C^b_H}``, formed as ``n x n`` products."""
    pairing = pairing_matrix(pair.m)
    n = spinor_dim(pair.m)
    covectors = {name: _sector_covectors(pair, DELTA_SHIFTS[name]) for name in components}
    parts = {name: _affine_parts(op) for name, op in components.items()}
    out = {}
    for a, b in itertools.combinations_with_replacement(components, 2):
        P = covectors[a].T @ pairing @ covectors[b]
        if parts[a] is None:
            lower = np.zeros((0, n, n), dtype=complex)
        else:
            (la, ca), (lb, cb) = parts[a], parts[b]
            lower = np.concatenate([la @ cb + cb @ la + ca @ lb + lb @ ca, (ca @ cb + cb @ ca)[None]])
        out[a, b] = out[b, a] = ScalarQuadratic(P + P.T, lower)
    return out


def green_operator(pair: HermitianPair, support) -> np.ndarray:
    """Green operator of the untwisted Laplacian, one scalar per row of
    ``support``: ``4 Lap_{delta+}(k) = |k|^2_{g^-1} Id`` (Gualtieri, CMP 331
    (2014)), so it is ``4/|k|^2_{g^-1}`` off ``k = 0`` and zero there."""
    k = Support(support).frequencies
    k2 = np.einsum("si,ij,sj->s", k, np.linalg.inv(pair.metric), k)
    return np.divide(4.0, k2, out=np.zeros_like(k2), where=k2 > 0)


# ---------------------------------------------------------------------------
# a bundled background


class TorusBackground:
    """Constant generalized Kahler background over one :class:`Support`.

    Untwisted: a constant generalized Kahler pair on a flat torus has
    ``H = 0`` (Gualtieri, CMP 331 (2014)).  Caches the Gram matrix, the
    ladder gather weights of the four components (folded once from the
    per-row vectors ``i pi_s k``; see ``apply``) and the Green operator as
    one scalar per row.  The coefficient operators of the derivative and its
    four components are built on first use.  Fields are packed over the
    background's support.
    """

    def __init__(self, pair: HermitianPair, support):
        self.pair = pair
        self.support = Support(support)

    @cached_property
    def gram(self) -> np.ndarray:
        return l2_gram(self.pair)

    @cached_property
    def derivative(self) -> BlockOperator:
        return derivative_operator(self.pair.m, self.support)

    @cached_property
    def components(self) -> dict[str, BlockOperator]:
        return {
            name: component_operator(shift, self.pair, self.support)
            for name, shift in DELTA_SHIFTS.items()
        }

    @cached_property
    def _component_weights(self) -> dict[str, np.ndarray]:
        """Ladder gather weights ``(S, m, n)`` of each component, whose
        block at ``k`` is the Clifford action of ``i pi_s k``."""
        kappa = 1j * self.support.frequencies
        return {
            name: _ladder_weights(kappa @ _sector_covectors(self.pair, shift).T)
            for name, shift in DELTA_SHIFTS.items()
        }

    def apply(self, name: str, rows: np.ndarray) -> np.ndarray:
        """The component ``name`` on a field packed over the support, as one
        gather-and-sum over the 2m Clifford ladders."""
        if np.shape(rows) != (len(self.support), spinor_dim(self.pair.m)):
            raise ValueError(f"packed field of shape {np.shape(rows)} does not match the background")
        return _ladder_gather(self._component_weights[name], rows)

    @cached_property
    def green(self) -> np.ndarray:
        return green_operator(self.pair, self.support)

    def differentiate(self, rows: np.ndarray) -> np.ndarray:
        """The exterior derivative of a field packed over the support."""
        return derivative_rows(self.support.frequencies, rows)

    def norm(self, f: np.ndarray) -> float:
        return l2_norm(f, self.gram)

    def adjoint(self, op: BlockOperator) -> BlockOperator:
        return adjoint(op, self.gram)
