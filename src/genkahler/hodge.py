"""L2 theory for form fields over a constant generalized Kahler background.

Because the background pair and b-field are constant on the torus, every
operator of interest (the exterior derivative, its graded components, their
adjoints and Laplacians) is block-diagonal over frequencies, and its block is
a polynomial of degree at most 2 in ``kappa = i k``.  A :class:`BlockOperator`
stores the coefficient matrices of that polynomial (m of them for the
derivative and its components), so products, sums and adjoints work on a few
``n x n`` matrices and an identity checked on the coefficients holds at every
frequency in ``Z^m``.  A spinor field is packed as one ``(S, n)`` array over
a :class:`Support` of ``S`` sorted frequencies (``n = 2**m``; row ``s`` holds
the coefficient of frequency ``s``); an operator acts on it through the
blocks it evaluates there, and the inner product is one ``vdot``.

No operator here takes a twist.  A constant generalized Kahler pair on a
flat torus has ``H = 0`` (Gualtieri, *Generalized Kahler geometry*, CMP 331
(2014), arXiv:1007.3485); a constant twist adds only the constant matrix
``H^`` to the derivative, and its graded parts are the constants
``HermitianPair.shift_parts(H^, shifts)``, which ``verify-hodge`` reads.
Gualtieri's identities give the graded structure in closed form: the
components are Clifford actions ``delta_s(k) = i cl(pi_s k)`` and
``4 Lap_{delta+}(k) = |k|^2_{g^-1} Id``, so the Green operator is the scalar
``4/|k|^2_{g^-1}`` off ``k = 0``.  A Clifford action is a weighted sum of the
2m ladders, which are signed bit flips, so :class:`TorusBackground`, the
background the solver works on, applies the components to packed rows as
signed gathers weighted by the per-row vectors ``i pi_s k`` and builds no
coefficient matrices.  The :class:`BlockOperator` algebra
(``derivative_operator``, ``component_operator``, ``adjoint``) serves the
operator identities; ``verify-hodge`` reads it from a one-frequency
``TorusBackground`` and multiplies no two of its operators: since
``{cl(u), cl(v)} = 2 <u, v> Id``, every anticommutator of two components
is an ``m x m`` pairing matrix of the sector covectors times the identity
(``anticommutators``, ``scalar_quadratic_norm``).

The inner product is ``h(f, g) = sum_k (f_k, star conj(g_k))_Ch`` with the
star taken in the standard torus orientation; this is the unique placement of
the conjugation for which the adjoint sign pattern of the four graded
components comes out right (shipped as a test on the flat Kahler plane).
"""

from __future__ import annotations

import itertools
from functools import cached_property

import numpy as np

from genkahler.clifford import _clifford_gather, _parity_dense
from genkahler.clifford import clifford_matrices, pairing_matrix, spinor_dim, wedge_matrices
from genkahler.fields import derivative_rows
from genkahler.structures import HermitianPair

__all__ = [
    "COMPONENT_SHIFTS",
    "Support",
    "BlockOperator",
    "l2_norm",
    "adjoint",
    "component_operator",
    "laplacian",
    "anticommutators",
    "scalar_quadratic_norm",
    "green_operator",
    "TorusBackground",
]

#: The four level-(+-1) shifts of the derivative on a generalized Kahler
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


def _rank(values: np.ndarray, entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The position of every entry among the sorted distinct ``values``
    (``np.searchsorted``, clipped into range) and whether it is there."""
    at = np.searchsorted(values, entries)
    np.minimum(at, len(values) - 1, out=at)
    return at, values[at] == entries


def _row_keys(table: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """One int64 key per row of an int64 ``(R, m)`` table, in the rows'
    lexicographic order (first column primary, equal rows equal keys), and
    what keys other rows the same way.

    The key packs the ranks of the row's entries among sorted distinct
    ``values``, axis by axis in mixed radix: every integer from the least
    entry to the greatest where those number at most the entries, as for
    any table of bounded frequencies (the ranks are then offsets and no sort
    is made), else the distinct entries of all columns (``np.unique``).
    After j axes the keys lie in a box of ``len(values)**j`` cells.  Where
    the next axis would take the box past ``2**63`` cells, which int64
    holds, the keys so far are ranked among their own distinct values
    first, so a box never exceeds ``R * len(values)`` cells after a fold.
    Returns the keys, ``values``, the ``(R, m)`` ranks and, per axis, the
    distinct keys ranked before it (None where none are)."""
    low, high = (int(table.min()), int(table.max())) if table.size else (0, -1)
    if high - low < table.size:
        values, ranks = np.arange(low, high + 1, dtype=np.int64), table - low
    else:
        values, ranks = np.unique(table, return_inverse=True)
        ranks = ranks.reshape(table.shape)
    keys, box, folds = np.zeros(len(table), dtype=np.int64), 1, []
    for column in ranks.T:
        folded = None
        if box * len(values) > 2**63:
            folded, keys = np.unique(keys, return_inverse=True)
            box = len(folded)
        keys = keys * len(values) + column
        box *= len(values)
        folds.append(folded)
    return keys, values, ranks, folds


def _key_groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ascending order of int64 keys, equal keys kept in their given
    order, and the start of each run of equal keys within it."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return order, np.flatnonzero(first)


def _sorted_rows(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lexicographic order of the rows of an integer ``(R, m)`` table
    (equal rows kept in their given order) and the start of each group of
    equal rows within that order: ``_key_groups`` of their ``_row_keys``."""
    return _key_groups(_row_keys(np.asarray(table, dtype=np.int64))[0])


def _frequency_table(frequencies) -> np.ndarray:
    """Integer frequencies, an ndarray converted whole, as a new int64 ``(R, m)``
    table (``(0, 0)`` for none); one outside int64 raises ``ValueError``."""
    try:
        table = np.array(frequencies if isinstance(frequencies, np.ndarray) else list(frequencies), dtype=np.int64)
    except OverflowError as exc:
        raise ValueError("a frequency does not fit in int64") from exc
    return table if table.size else table.reshape(0, 0)


def _check_sums(table: np.ndarray, steps: np.ndarray) -> None:
    """Raise ``ValueError`` when a row of one int64 table plus a row of the
    other would leave int64, from the ends of their columns."""
    limits = np.iinfo(np.int64)
    ends = zip(*(x.tolist() for x in (table.min(axis=0), table.max(axis=0), steps.min(axis=0), steps.max(axis=0))))
    if any(low + bottom < limits.min or high + top > limits.max for low, high, bottom, top in ends):
        raise ValueError("frequency sums leave the int64 range")


def _shifted_rows(table: np.ndarray, steps) -> np.ndarray:
    """Every row of an int64 ``(R, m)`` table plus every step, with the rows
    plus step ``a`` in block ``a``.  A sum outside int64 raises
    ``ValueError`` instead of wrapping."""
    steps = _frequency_table(steps)
    _check_sums(table, steps)
    return (steps[:, None] + table[None]).reshape(-1, table.shape[1])


class Support(tuple):
    """Distinct integer frequencies in lexicographic order: a tuple of tuples over
    one read-only int64 ``(S, m)`` ``table``, its float copy ``frequencies``
    and the ascending int64 ``keys`` of its rows (``_row_keys``), by which
    the constructor drops repeated rows and every lookup finds a row with
    ``np.searchsorted``; a ``Support`` given is used as it is."""

    def __new__(cls, frequencies):
        if isinstance(frequencies, Support):
            return frequencies
        table = _frequency_table(frequencies)
        keys, values, ranks, folds = _row_keys(table)
        order, starts = _key_groups(keys)
        table, keys = table[order[starts]], keys[order[starts]]
        out = super().__new__(cls, map(tuple, table.tolist()))
        out.table, out.frequencies, out.keys = table, table.astype(float), keys
        out._values, out._ranks, out._folds = values, ranks[order[starts]], folds
        for arr in (table, out.frequencies, keys):
            arr.setflags(write=False)
        return out

    def _find(self, shape, ranked) -> np.ndarray:
        """The rows of an array of frequencies given axis by axis, -1 where
        one is absent: ``ranked(j)`` gives, in ``shape``, the rank of every
        entry on axis j among the support's distinct ``_values`` and whether
        it is one of them.  The ranks are packed as the support's keys were
        and the keys looked up in ``keys``."""
        keys, present = np.zeros(shape, dtype=np.int64), np.ones(shape, dtype=bool)
        for j, folded in enumerate(self._folds):
            if folded is not None:
                keys, found = _rank(folded, keys)
                present &= found
            rank, found = ranked(j)
            present &= found
            keys *= len(self._values)
            keys += rank
            del rank, found
        rows, found = _rank(self.keys, keys)
        del keys
        present &= found
        rows[~present] = -1
        return rows

    def rows(self, keys) -> np.ndarray:
        """The row of every key frequency, -1 where it is absent."""
        keys = _frequency_table(keys).reshape(-1, self.table.shape[1])
        return self._find(len(keys), lambda j: _rank(self._values, keys[:, j]))

    def shifted_rows(self, steps) -> np.ndarray:
        """``out[a, r]``, the row of frequency ``r`` plus ``steps[a]``, -1
        where it is absent, ``(P, S)``.  Per axis, the sums of the step
        entries and the support's distinct values are ranked once, ``(P,
        len(_values))``, and the ranks of the ``(P, S)`` sums are gathered
        from them at the ranks of the support's own entries, so no ``(P * S,
        m)`` table is formed.  A sum outside int64 raises ``ValueError``
        instead of wrapping; sums with values the axis does not hold may
        wrap, and are never gathered."""
        steps = _frequency_table(steps)
        _check_sums(self.table, steps)

        def ranked(j):
            rank, found = _rank(self._values, steps[:, j, None] + self._values)
            return rank[:, self._ranks[:, j]], found[:, self._ranks[:, j]]

        return self._find((len(steps), len(self)), ranked)

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
    constructor sorts the given rows once (``_sorted_rows``) and adds the
    coefficients of equal exponents slice by slice, in their sorted order.
    The algebra works on the coefficients, so an identity whose
    coefficients vanish holds at every ``k`` in ``Z^m``.
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
        self.coeffs = coeffs[order[starts]]
        first = np.zeros(len(order), dtype=bool)
        first[starts] = True
        np.add.at(self.coeffs, np.cumsum(first)[~first] - 1, coeffs[order[~first]])

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
# the derivative and its graded components


def derivative_operator(torus_dim: int, support) -> BlockOperator:
    """Exterior derivative ``sum_j kappa_j W_j`` (``W_j`` the wedge by ``dx_{j+1}``)."""
    return BlockOperator(support, np.eye(torus_dim, dtype=int), np.stack(wedge_matrices(torus_dim)))


def _sector_covectors(pair: HermitianPair, shift: tuple[int, int]) -> np.ndarray:
    """``pi_s dx_j`` for the sector ``pi_s`` of a level-one shift, as the
    columns of a ``(2m, m)`` matrix."""
    dp, dq = shift
    return pair.sector_projector(dp * dq > 0, dp > 0)[:, pair.m :]


def component_operator(shift: tuple[int, int], pair: HermitianPair, support) -> BlockOperator:
    """Graded component of the exterior derivative for one level-one
    (dp, dq) shift of ``DELTA_SHIFTS``; any other label raises ``ValueError``.

    Linear in the frequency: ``sum_j kappa_j C_j``.
    ``sum_j kappa_j dx_j^`` is the Clifford action of the covector ``k``, and
    that of a vector in the sector ``pi_s = (1 - i dp J1)/2 (1 + dp dq G)/2``
    shifts every ``U^{p,q}`` by exactly ``(dp, dq)`` (Gualtieri, CMP 331
    (2014)), so ``C_j = cl(pi_s dx_j)``.  The +-3 shifts of the untwisted
    derivative vanish; those of a twist are the constants
    ``HermitianPair.shift_parts(H^, shifts)``.
    """
    shift = (int(shift[0]), int(shift[1]))
    if shift not in DELTA_SHIFTS.values():
        raise ValueError(f"unsupported shift label {shift}")
    linear = clifford_matrices(_sector_covectors(pair, shift).T)
    return BlockOperator(support, np.eye(pair.m, dtype=int), linear)


def laplacian(op: BlockOperator, gram: np.ndarray) -> BlockOperator:
    star = adjoint(op, gram)
    return op @ star + star @ op


def anticommutators(pair: HermitianPair) -> dict[tuple[str, str], np.ndarray]:
    """``{delta_a, delta_b}`` for every ordered pair of untwisted level-one
    components (``DELTA_SHIFTS`` names), in closed form: the ``(m, m)``
    matrix ``q`` of ``sum_{j,l} kappa_j kappa_l q_jl Id``.

    The components are Clifford actions ``cl(w_j)`` of the sector covectors,
    and ``{cl(u), cl(v)} = 2 <u, v> Id`` for a Clifford representation
    (``clifford_relation_residual``), so ``q = P + P^T`` with
    ``P_jl = <w^a_j, w^b_l>``."""
    pairing = pairing_matrix(pair.m)
    covectors = {name: _sector_covectors(pair, shift) for name, shift in DELTA_SHIFTS.items()}
    out = {}
    for a, b in itertools.combinations_with_replacement(covectors, 2):
        P = covectors[a].T @ pairing @ covectors[b]
        out[a, b] = out[b, a] = P + P.T
    return out


def scalar_quadratic_norm(q: np.ndarray) -> float:
    """``BlockOperator.coeff_norm`` of ``sum_{j,l} kappa_j kappa_l q_jl Id``
    on the spinors of ``T^m`` (``q`` is ``(m, m)``): the merged
    ``kappa_j kappa_l`` coefficient is ``(q_jl + q_lj) Id`` for j < l."""
    merged = np.triu(q + q.T, 1) + np.diag(np.diag(q))
    return float(np.sqrt(spinor_dim(len(q))) * np.linalg.norm(merged))


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
    ``H = 0`` (Gualtieri, CMP 331 (2014)).  Fields are ``(S, 2**(m-1))``
    half rows over the support on the forms of one parity
    (``clifford._parity_rows``), passed beside them; ``d`` and the four
    components flip it.  ``norm`` uses the pair's Gram block on the parity
    (``HermitianPair.star_gram``), ``apply`` and ``differentiate`` are
    half-coordinate Clifford gathers of the per-row vectors ``i pi_s k`` and
    ``i k`` (``clifford._clifford_gather``), of which the background keeps
    the ``(4, S, 2m)`` stack of the components, and the Green operator is
    one scalar per row.  The dense ``gram`` and the coefficient operators of
    ``d`` and the components are built only when asked for.
    """

    def __init__(self, pair: HermitianPair, support):
        self.pair = pair
        self.support = Support(support)

    @cached_property
    def gram(self) -> np.ndarray:
        return _parity_dense(self.pair.star_gram)

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
    def _vectors(self) -> np.ndarray:
        """``i pi_s k`` for every component (``DELTA_SHIFTS`` order) and row, ``(4, S, 2m)``."""
        kappa = 1j * self.support.frequencies
        return np.stack([kappa @ _sector_covectors(self.pair, shift).T for shift in DELTA_SHIFTS.values()])

    def apply(self, names, rows: np.ndarray, parity: int) -> np.ndarray:
        """The components ``names`` on the fields of form parity ``parity``
        stacked in ``rows``, ``(len(names), S, 2**(m-1))``: one Clifford
        gather of the vectors ``i pi_s k`` over the 2m ladders onto the
        other parity for the whole stack."""
        if np.shape(rows) != (len(names), len(self.support), spinor_dim(self.pair.m) // 2):
            raise ValueError(f"packed fields of shape {np.shape(rows)} do not match the background's half rows")
        index = [list(DELTA_SHIFTS).index(name) for name in names]
        return _clifford_gather(self._vectors[index], rows, 1 - parity)

    @cached_property
    def green(self) -> np.ndarray:
        return green_operator(self.pair, self.support)

    def differentiate(self, rows: np.ndarray, parity: int) -> np.ndarray:
        """The exterior derivative of a field of form parity ``parity``."""
        return derivative_rows(self.support.frequencies, rows, parity)

    def norm(self, f: np.ndarray, parity: int) -> float:
        """``l2_norm`` of a field of form parity ``parity``, on that Gram block."""
        return l2_norm(f, self.pair.star_gram[parity])

    def adjoint(self, op: BlockOperator) -> BlockOperator:
        return adjoint(op, self.gram)
