"""Order-by-order correction of deformed spinor families on flat tori.

Setup: a constant generalized Kahler pair on T^m with a closed pure spinor
``psi`` for the second structure, and an analytic family ``t -> exp(a_t)``
of orthogonal transformations deforming the first structure.  The task is a
compensating family ``b_t`` with values in the stabilizer algebra of the
first structure such that

    psi(t) = exp(a_t) exp(b_t) psi

stays closed for the exterior derivative ``d``, order by order in ``t``.
The differential is untwisted because a constant generalized Kahler pair
on a flat torus has ``H = 0``: in bihermitian form ``d^c_+ omega_+ = H =
-d^c_- omega_-``, and constant two-forms have ``d^c omega = 0``.

The per-order obstruction ``rho`` lives in the four corner components
adjacent to ``U^{0,n-2}``; it is resolved through the Green operator of the
background Laplacian and converted into a correction ``beta_k`` acting from
``V_-^{1,0} (x) V_+^{0,1}``.  All fields are trigonometric polynomials, so
every step here is exact linear algebra on Fourier coefficients; the only
truncation is the order cap of the series itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .clifford import (
    _expm,
    _flip_column_sums,
    _in_so,
    _parity_rows,
    _spin_flip_outer,
    _wedge_sum,
    pairing_matrix,
    so_from_pair,
    spin_flip_dense,
    spin_flip_weights,
    spinor_dim,
)
from .fields import (
    FourierField,
    FourierOperatorField,
    uniform_points,
)
from .hodge import Support, TorusBackground, _frequency_table, _shifted_rows
from .structures import HermitianPair

__all__ = [
    "IntegrabilityError",
    "SeriesSoField",
    "series_exp_action",
    "support_closure",
    "first_structure_defects",
    "OrderData",
    "order_residual",
    "solve_phi",
    "CorrectionSystem",
    "beta_from_phi",
    "SolutionReport",
    "run_deformation",
    "verify_gk_at_t",
    "conjugated_structure_series",
    "structure_series_of_family",
    "extract_transverse_family",
    "commutant_part",
]

MAX_ORDER = 8


class IntegrabilityError(RuntimeError):
    """A precondition on the input family (not a solver identity) failed."""

    def __init__(self, message: str, order: int | None = None):
        super().__init__(message)
        self.order = order


def _exceeds(value: float, bound: float) -> bool:
    """``value > bound``, and true on NaN: an overflowed check fails, never passes."""
    return not value <= bound


# ---------------------------------------------------------------------------
# series containers

# one order of a family: its sorted frequencies and their (P, 2m, 2m) matrices
_Stack = tuple[list, np.ndarray]


def _term_stack(torus_dim: int, term) -> _Stack | None:
    """One order given as None, a constant matrix or an operator field, as a stack."""
    if isinstance(term, FourierOperatorField):
        return term.stacked() if term.coeffs else None
    if term is None:
        return None
    mat = np.asarray(term, dtype=complex)
    if mat.shape != (2 * torus_dim, 2 * torus_dim):
        raise ValueError(f"constant term shape {mat.shape} != ({2 * torus_dim}, {2 * torus_dim})")
    return [(0,) * torus_dim], mat[None].copy()


def _first_outside_so(stack: _Stack, tol: float):
    """The first frequency whose matrix fails ``clifford._in_so`` at ``tol``,
    None when every one is in so(m,m)."""
    freqs, mats = stack
    bad = np.flatnonzero(~_in_so(mats, tol))
    return freqs[bad[0]] if bad.size else None


def _is_real(stack: _Stack, tol: float) -> bool:
    """``||f - conj f|| <= tol * max(1, ||f||)``.  On the sorted support closed
    under ``k -> -k``, the mirror of row r is row S - 1 - r."""
    freqs, mats = stack
    table = _frequency_table(freqs)
    if (table == np.iinfo(np.int64).min).any():
        raise ValueError("a frequency of -2**63 has no mirror in int64")
    support = Support(np.concatenate([table, -table]))
    field = np.zeros((len(support), *mats.shape[1:]), dtype=complex)
    field[support.rows(table)] = mats
    return bool(np.linalg.norm(field - field[::-1].conj()) <= tol * max(1.0, np.linalg.norm(mats)))


class SeriesSoField:
    """Polynomial family ``t -> so(m,m)-valued field`` vanishing at t = 0.

    ``stacks[j]``, the coefficient of ``t**j``, is its sorted frequencies and
    their ``(P, 2m, 2m)`` matrices, or None where it vanishes; ``term(j)`` is
    its Fourier-field view.  The constructor takes None, a constant matrix
    or an operator field per order, and checks that the order-0 term
    vanishes, so the family is the identity at t = 0, and that every
    coefficient is in so(m,m) and describes a real field.
    """

    def __init__(self, torus_dim: int, terms):
        stacks = [_term_stack(int(torus_dim), t) for t in terms]
        if stacks and stacks[0] is not None and _exceeds(float(np.linalg.norm(stacks[0][1])), 1e-9):
            raise ValueError("series family does not vanish at t = 0")
        for j, stack in enumerate(stacks):
            k = None if stack is None else _first_outside_so(stack, 1e-9)
            if k is not None:
                raise ValueError(f"order-{j} coefficient at {k} is not in so(m,m)")
            if stack is not None and not _is_real(stack, 1e-9):
                raise ValueError(f"order-{j} term is not a real field")
        self.torus_dim = int(torus_dim)
        self.value_dim = 2 * self.torus_dim
        self.stacks: list[_Stack | None] = stacks or [None]
        self._spin_stacks: dict[int, list[_Stack | None]] = {}

    @classmethod
    def _packed(cls, torus_dim: int, stacks: list) -> "SeriesSoField":
        """Family of already-checked stacks, held as given: the empty family
        passes the checks trivially and takes the stacks."""
        out = cls(torus_dim, [])
        out.stacks = list(stacks) or [None]
        return out

    @classmethod
    def linear(cls, torus_dim: int, term) -> "SeriesSoField":
        """Family ``t * term`` for a single so-valued field or matrix."""
        return cls(torus_dim, [None, term])

    @property
    def order_cap(self) -> int:
        return len(self.stacks) - 1

    def term(self, j: int) -> FourierOperatorField:
        """The order-j coefficient as a Fourier field (zero beyond the cap)."""
        stack = self.stacks[j] if 0 <= j < len(self.stacks) else None
        return FourierOperatorField(self.torus_dim, self.value_dim, {} if stack is None else dict(zip(*stack)))

    def truncate(self, order_cap: int) -> "SeriesSoField":
        cap = max(order_cap, 0) + 1
        return SeriesSoField._packed(self.torus_dim, self.stacks[:cap] + [None] * (cap - len(self.stacks)))

    def weighted_support(self) -> list[tuple[int, tuple[int, ...]]]:
        """Pairs (order, frequency) over all listed coefficients."""
        return [(j, k) for j, stack in enumerate(self.stacks) if stack is not None for k in stack[0]]

    def jet(self, t: float, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values ``(N, 2m, 2m)`` at the points and partial derivatives in the
        torus directions ``(m, N, 2m, 2m)``: per order, one phase matrix
        ``exp(i <k, x>)`` and one product of its rows, alone and times each
        ``i k_d`` and stacked, with the stacked matrices.  The points go in
        chunks of at most ``_JET_PRODUCT_ENTRIES`` product entries, so the
        largest temporary stays far below the size of the gradients."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        values = np.zeros((len(points), self.value_dim, self.value_dim), dtype=complex)
        grads = np.zeros((self.torus_dim, *values.shape), dtype=complex)
        chunk = max(1, _JET_PRODUCT_ENTRIES // ((self.torus_dim + 1) * self.value_dim**2))
        for j, stack in enumerate(self.stacks):
            if stack is not None:
                k = np.array(stack[0], dtype=float)
                phase = np.exp(1j * points @ k.T)
                for part in (slice(lo, lo + chunk) for lo in range(0, len(points), chunk)):
                    rows = np.concatenate([phase[None, part], (1j * k.T)[:, None] * phase[part]])
                    prod = np.tensordot(rows, stack[1], 1)
                    values[part] += t**j * prod[0]
                    grads[:, part] += t**j * prod[1:]
        return values, grads

    def spin_stacks(self, parity: int) -> list[_Stack | None]:
        """Per order, the frequencies and read-only spin images of the
        coefficients as entry-major flip-mask weights on the entries of one
        form parity (``_spin_stack``), computed on the first call for that
        parity: a family's stacks are not changed after construction (every
        method above returns a new one)."""
        if parity not in self._spin_stacks:
            self._spin_stacks[parity] = [None if s is None else _spin_stack(s, parity) for s in self.stacks]
        return self._spin_stacks[parity]


def _spin_stack(stack: _Stack, parity: int) -> _Stack:
    """Frequencies and read-only spin images of an so-valued stack as the
    flip-mask weights ``W`` ``(P, F, 2**(m-1))`` on the entries of one form
    parity, one batched ``spin_flip_weights`` call, held entry-major,
    ``out[i] = W[:, :, i]`` ``(2**(m-1), P, F)``, the layout that
    ``clifford._spin_flip_outer`` reads: 0.75 MB at m = 8 and 13
    frequencies, against 13.6 MB dense."""
    freqs, coeffs = stack
    weights = np.ascontiguousarray(spin_flip_weights(coeffs, parity).transpose(2, 0, 1))
    weights.setflags(write=False)
    return freqs, weights


# ---------------------------------------------------------------------------
# the series exponential


def _sum(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | None:
    """Sum of two packed coefficients, either of which may be None (zero)."""
    if a is None:
        return b
    return a if b is None else a + b


class _Coefficient:
    """One coefficient ``x = sum_p x_p exp(i <p, .>)`` of a factor, ready to act.

    ``rows[a, r]`` is the row of ``k_r + p`` for ``p = freqs[a]`` (-1
    outside the support, ``Support.shifted_rows``).  On operator columns
    (``parity`` None) ``mats[a] = x_p``, a ``(2m, 2m)`` matrix.  On spinor
    columns of one form parity ``mats`` is the entry-major stack of
    ``_spin_stack``, ``mats[h, a]`` the flip-mask weights ``(P, F)`` of the
    spin image of ``x_p`` at entry h of that parity, the layout of
    ``clifford._spin_flip_outer``, held as given; no dense spin image is
    formed.
    """

    def __init__(self, support: Support, freqs: list, mats: np.ndarray, parity: int | None):
        self.freqs, self.mats = freqs, mats
        self.rows = support.shifted_rows(freqs)


class _SeriesExp:
    """``exp(X^1_t) ... exp(X^F_t)`` applied to a series ``Y_t``, one power of t at a time.

    Every coefficient is a packed ``(S, *shape)`` array over one
    :class:`~genkahler.hodge.Support`, or None where it vanishes; spinor
    columns are ``(S, 2**(m-1))`` half rows of the seed's form ``parity``,
    which spin images keep.  A factor coefficient ``X_i`` is given as the
    entry-major flip-mask weights of its spin images
    (``SeriesSoField.spin_stacks``) and acts on spinor columns by the
    half-coordinate flip gather; with ``parity`` None it is given as so(m,m)
    matrices and acts on operator columns by ``[x, y] = x y - y x``.  Per
    call, the nonzero rows of the column are
    gathered, acted on by all frequencies of ``X_i`` in one batched product
    (``clifford._spin_flip_outer`` on spinors), and summed into their rows
    of the coefficient's shift table.  A nonzero row that a shift would take
    outside the support raises ``ValueError``.

    Factor f turns its input ``term_0`` (the output of factor f + 1, or
    ``Y`` for the last) into ``sum_j term_j`` with ``term_j[n] = (1/j) sum_i
    X_i term_{j-1}[n-i]``.  As ``X_0 = 0`` this reads only columns below n,
    so ``fill(n)`` computes column n of every factor, right to left, from
    the filled ones.  A coefficient ``X^f_n`` given after column n is filled
    (``extend``) enters that column only through ``X^f_n term_0[0]``.
    """

    def __init__(self, support: Support, factors: list[list], source: list, order_cap: int, parity: int | None):
        """``factors[f][i]``: the frequencies and entry-major spin weights
        (or, with ``parity`` None, matrices) of ``X^f_i``, or None; ``source[n]``:
        column n of ``Y``."""
        self.support, self.order_cap, self.parity = support, order_cap, parity
        self.X = [[None] * (order_cap + 1) for _ in factors]
        for f, terms in enumerate(factors):
            for i in range(1, min(len(terms), order_cap + 1)):
                self._set(f, i, terms[i])
        columns = list(source[: order_cap + 1]) + [None] * (order_cap + 1 - len(source))
        # out[f][n]: column n after factor f acts; out[F] is the source series
        self.out = [[None] * (order_cap + 1) for _ in factors] + [columns]
        # terms[f][j][n]; term_0 of factor f is its input, out[f + 1]
        self.terms = [
            [self.out[f + 1]] + [[None] * (order_cap + 1) for _ in range(order_cap)] for f in range(len(factors))
        ]
        self.filled = 0

    def _set(self, f: int, i: int, stack: _Stack | None) -> None:
        if stack is not None:
            self.X[f][i] = _Coefficient(self.support, *stack, self.parity)

    def _apply(self, pairs) -> np.ndarray | None:
        """``sum x y`` over the (coefficient, column) pairs; None when it vanishes."""
        targets, values = [], []
        for x, y in pairs:
            nonzero = np.flatnonzero(y.reshape(len(y), -1).any(axis=1))
            if not nonzero.size:
                continue
            dst = x.rows[:, nonzero]  # (P, r), the layout of the products below
            if (dst < 0).any():
                a, r = np.argwhere(dst < 0)[0]
                raise ValueError(
                    f"series coefficient at frequency {self.support[nonzero[r]]} leaves the "
                    f"support when shifted by {x.freqs[a]}"
                )
            rows = y[nonzero]
            if self.parity is None:
                prod = x.mats[:, None] @ rows - rows @ x.mats[:, None]
            else:
                prod = _spin_flip_outer(x.mats, rows, self.parity)
            targets.append(dst.ravel())
            values.append(prod.reshape(dst.size, *y.shape[1:]))
        if not targets:
            return None
        dst = np.concatenate(targets)
        order = np.argsort(dst, kind="stable")
        dst = dst[order]
        starts = np.flatnonzero(np.concatenate(([True], dst[1:] != dst[:-1])))
        vals = np.concatenate(values)[order]
        out = np.zeros((len(self.support), *vals.shape[1:]), dtype=complex)
        out[dst[starts]] = np.add.reduceat(vals, starts, axis=0)
        return out

    def fill(self, n: int) -> np.ndarray | None:
        """Compute column n (the lower ones must be filled) and return it."""
        if n != self.filled or n > self.order_cap:
            raise ValueError(f"column {n} cannot be filled after {self.filled} columns")
        for f in reversed(range(len(self.X))):
            X, terms = self.X[f], self.terms[f]
            total = terms[0][n]
            for j in range(1, n + 1):
                pairs = [
                    (X[i], terms[j - 1][n - i])
                    for i in range(1, n - j + 2)
                    if X[i] is not None and terms[j - 1][n - i] is not None
                ]
                col = self._apply(pairs)
                if col is not None:
                    col *= 1.0 / j
                terms[j][n] = col
                total = _sum(total, col)
            self.out[f][n] = total
        self.filled = n + 1
        if n == self.order_cap:
            # no column is left to fill: release the coefficients and the
            # higher terms, which only ``fill`` reads
            self.X = [[None] * (n + 1) for _ in self.X]
            for terms in self.terms:
                terms[1:] = [[None] * (n + 1) for _ in terms[1:]]
        return self.out[0][n]

    def extend(self, f: int, i: int, stack: _Stack | None) -> np.ndarray | None:
        """Give factor f its order-i coefficient once column i is the last filled.

        The change to column i is ``X^f_i term_0[0]``: it joins ``term_1[i]``
        of factor f and the input and output of every factor left of it.
        Returns that change, None when it vanishes.
        """
        if i != self.filled - 1 or i < 1 or self.X[f][i] is not None:
            raise ValueError(f"order-{i} coefficient cannot be added after {self.filled} columns")
        self._set(f, i, stack)
        if self.X[f][i] is None or self.terms[f][0][0] is None:
            return None
        delta = self._apply([(self.X[f][i], self.terms[f][0][0])])
        self.terms[f][1][i] = _sum(self.terms[f][1][i], delta)
        for g in range(f, -1, -1):
            self.out[g][i] = _sum(self.out[g][i], delta)
        return delta

    def fill_all(self) -> list:
        """Fill the remaining columns; returns every column of the output."""
        for n in range(self.filled, self.order_cap + 1):
            self.fill(n)
        return self.out[0]


def _factor_list(a) -> list[SeriesSoField]:
    if a is None:
        return []
    if isinstance(a, SeriesSoField):
        return [a]
    factors = list(a)
    if not all(isinstance(f, SeriesSoField) for f in factors):
        raise TypeError("deformation factors must be SeriesSoField instances")
    return factors


def _seed_field(torus_dim: int, psi) -> FourierField:
    if isinstance(psi, FourierField):
        return psi.copy()
    vec = np.asarray(psi, dtype=complex)
    if vec.shape != (spinor_dim(torus_dim),):
        raise ValueError("seed spinor has the wrong length")
    return FourierField.constant(torus_dim, vec)


def _seed_parity(rows: np.ndarray) -> int:
    """The form parity of a seed spinor's rows ``(..., 2**m)``; a pure spinor
    is even or odd, so entries of both parities raise ``ValueError``."""
    even, odd = (bool(rows[..., r].any()) for r in _parity_rows(rows.shape[-1].bit_length() - 1))
    if even and odd:
        raise ValueError("seed spinor has nonzero entries of both form parities, so it is not a pure spinor")
    return int(odd)


def _half(rows: np.ndarray, parity: int) -> np.ndarray:
    """Rows ``(..., 2**m)`` on the forms of one parity, ``(..., 2**(m-1))``."""
    return rows[..., _parity_rows(rows.shape[-1].bit_length() - 1)[parity]]


def _widen(rows: np.ndarray, parity: int) -> np.ndarray:
    """Half rows of one form parity as full rows, zero on the other parity."""
    out = np.zeros(rows.shape[:-1] + (2 * rows.shape[-1],), dtype=complex)
    out[..., _parity_rows(out.shape[-1].bit_length() - 1)[parity]] = rows
    return out


def _reach(factors: list[SeriesSoField], order_cap: int) -> Support:
    """The closure (``support_closure``) of the factors' weighted supports."""
    return support_closure([p for f in factors for p in f.weighted_support()], order_cap, factors[0].torus_dim)


def _series_support(reach: Support, seed: FourierField) -> Support:
    """Frequencies of every coefficient of factors applied to the seed up to
    the cap: the seed's frequencies shifted by the factors' closure ``reach``."""
    return Support(_shifted_rows(reach.table, seed.support() or [(0,) * seed.torus_dim]))


def _spinor_fields(support: Support, columns: list, parity: int) -> list[FourierField]:
    """Half-row columns of one form parity as full-width Fourier fields."""
    m = len(support[0])
    return [support.unpack(c if c is None else _widen(c, parity), FourierField, m, spinor_dim(m)) for c in columns]


def _seeded_series(a, b, psi, order_cap: int, reach: Support | None = None) -> tuple[list[SeriesSoField], Support, int, list]:
    """The factors of ``a`` then ``b``, the support of ``exp(a_t) exp(b_t) psi``
    up to the cap (from their closure ``reach``, formed when not given), the
    seed's form parity and the packed half-row columns."""
    factors = _factor_list(a) + _factor_list(b)
    if not factors:
        raise ValueError("need at least one series family")
    seed = _seed_field(factors[0].torus_dim, psi)
    support = _series_support(_reach(factors, order_cap) if reach is None else reach, seed)
    rows = support.pack(seed)
    parity = _seed_parity(rows)
    engine = _SeriesExp(support, [f.spin_stacks(parity) for f in factors], [_half(rows, parity)], order_cap, parity)
    return factors, support, parity, engine.fill_all()


def series_exp_action(a, b, psi, order_cap: int) -> list[FourierField]:
    """Series coefficients of ``exp(a_t) exp(b_t) psi`` up to the order cap.

    ``a`` may be a single family or a sequence of factor families composed
    left to right (leftmost acts last on the spinor); ``b`` may be None.
    The factors act on the spinor series one at a time, right to left, each
    as the series exponential of its spin representation; ``psi`` has one
    form parity, as a pure spinor has.
    """
    _, support, parity, columns = _seeded_series(a, b, psi, order_cap)
    return _spinor_fields(support, columns, parity)


# ---------------------------------------------------------------------------
# frequency bookkeeping


def support_closure(weighted, order_cap: int, torus_dim: int, limit: int | None = None) -> Support:
    """The :class:`~genkahler.hodge.Support` of the sums of ``(weight,
    frequency)`` steps of total weight at most the cap, such as a family's
    ``weighted_support``; steps of weight below 1 are ignored.

    ``reach[c]``, the sums of weight at most c, is the ``Support`` of
    ``reach[c - 1]`` and every ``reach[c - w] + k`` (``hodge._shifted_rows``,
    which raises on a sum outside int64), from the zero frequency.  The
    result bounds the support of every series term up to the cap.  Given a
    ``limit``, a ``reach[c]`` of more frequencies raises ``ValueError``
    naming its size before ``reach[c + 1]`` is formed, so sizing a support
    far above the limit costs little.
    """
    steps: dict[int, list] = {}
    for w, k in weighted:
        if 1 <= w <= order_cap:
            steps.setdefault(int(w), []).append(k)
    reach = [Support(np.zeros((1, torus_dim), dtype=np.int64))]
    for c in range(1, order_cap + 1):
        moved = [_shifted_rows(reach[c - w].table, ks) for w, ks in steps.items() if w <= c]
        reach.append(Support(np.concatenate([reach[c - 1].table, *moved])))
        if limit is not None and len(reach[c]) > limit:
            raise ValueError(
                f"the frequency support reaches {len(reach[c])} frequencies at order {c} of {order_cap}, "
                f"above the limit of {limit}"
            )
    return reach[-1]


# ---------------------------------------------------------------------------
# integrability of the deformed first structure


def first_structure_defects(a, pair: HermitianPair, order_cap: int, reach: Support | None = None) -> list[float]:
    """Per-order norm of the part of ``exp(-a) d exp(a) gen`` outside the
    level just below the top of the first structure's grading.

    ``gen`` is the canonical top-level generator of the first structure.
    The series of ``exp(a) gen`` is differentiated termwise, then the
    factors act again left to right with negated spin terms.  A nonzero
    value at order j means the deformed first structure fails to be
    integrable at that order, which breaks the induction hypothesis.
    ``reach``, the closure of the factors' supports, is formed when not
    given.
    """
    factors, support, parity, moved = _seeded_series(a, None, pair.canonical_generator(1), order_cap, reach)
    background = TorusBackground(pair, support)
    derivs = [None if c is None else background.differentiate(c, parity) for c in moved]
    # the negated entry-major weights are those of the negated coefficients
    inverse = [[None if x is None else (x[0], -x[1]) for x in f.spin_stacks(1 - parity)] for f in reversed(factors)]
    columns = _SeriesExp(support, inverse, derivs, order_cap, 1 - parity).fill_all()
    return [0.0 if q is None else float(np.linalg.norm(q - pair.project(q, 1 - parity, p=pair.n - 1))) for q in columns]


# ---------------------------------------------------------------------------
# one order of the induction


@dataclass
class OrderData:
    """Obstruction at one order, its corner components and closedness data;
    ``rho``, the components and ``routes`` (the lower and the upper arrows
    into the middle space, applied to the corners and summed; the mixed
    corner sum is their total) are half rows over the background's support:
    ``rho`` and the components of form ``parity``, the other of the seed's,
    and the routes of the seed's."""

    order: int
    parity: int
    rho: np.ndarray
    components: dict[tuple[int, int], np.ndarray]
    routes: tuple[np.ndarray, np.ndarray]
    outside_norm: float
    component_closed: dict[str, float]
    cross_sum: float
    rho_norm: float


def _corner_keys(n: int) -> tuple[tuple[int, int], ...]:
    return ((1, n - 1), (1, n - 3), (-1, n - 1), (-1, n - 3))


def _annihilating_arrows(n: int) -> dict[str, tuple[int, int]]:
    """Which corner each level-one operator must kill on a closed obstruction."""
    return {
        "delta+": (1, n - 1),
        "delta_bar+": (-1, n - 3),
        "delta-": (1, n - 3),
        "delta_bar-": (-1, n - 1),
    }


def order_residual(order: int, a, b: SeriesSoField | None, background: TorusBackground, psi) -> OrderData:
    """Obstruction with the trial order-``order`` correction set to zero.

    Returns the order-``order`` coefficient of ``d^H exp(a_t) exp(b_{<order})
    psi`` together with its four corner components, the norm outside those
    corners, and the closedness checks that the corner structure demands.
    Violations, beyond 1e-10 of the seed norm, and a seed with entries of
    both form parities raise distinct ValueErrors.
    """
    if order < 1:
        raise ValueError("orders start at 1")
    support = background.support
    rows = support.pack(_seed_field(background.pair.m, psi))
    parity = _seed_parity(rows)
    seed = _half(rows, parity)
    scale = max(background.norm(seed, parity), 1e-300)
    factors = _factor_list(a) + _factor_list(b.truncate(order - 1) if b is not None else None)
    if not factors:
        raise ValueError("need at least one series family")
    columns = _SeriesExp(support, [f.spin_stacks(parity) for f in factors], [seed], order, parity).fill_all()
    derivs = [background.differentiate(_dense(c, seed), parity) for c in columns]
    bad = [j for j in range(order) if _exceeds(background.norm(derivs[j], 1 - parity), 1e-10 * scale)]
    if bad:
        raise ValueError(f"residual below order {order} is nonzero at orders {bad}")
    return _obstruction(order, derivs[order], 1 - parity, background, scale, tol=1e-10)


def _dense(column: np.ndarray | None, like: np.ndarray) -> np.ndarray:
    """A packed series column, zeros (shaped like ``like``) where it vanishes."""
    return np.zeros_like(like) if column is None else column


def _obstruction(order: int, rho: np.ndarray, parity: int, background: TorusBackground, scale: float, *, tol: float) -> OrderData:
    """Corner components of the order-``order`` obstruction's half rows of
    form parity ``parity`` and their checks."""
    pair = background.pair
    n = pair.n
    norm = background.norm
    comps = {key: pair.project(rho, parity, *key) for key in _corner_keys(n)}
    outside_norm = norm(rho - sum(comps.values()), parity)
    if _exceeds(outside_norm, tol * scale):
        raise ValueError(f"order-{order} obstruction leaks outside the four corners ({outside_norm:.3e})")

    def apply(arrows):
        """Each component on its corner, the four by one stacked gather."""
        return background.apply(list(arrows), np.stack([comps[c] for c in arrows.values()]), parity)

    arrows = _annihilating_arrows(n)
    closed = {name: norm(image, 1 - parity) for name, image in zip(arrows, apply(arrows))}
    bad_ops = {k: v for k, v in closed.items() if _exceeds(v, tol * scale)}
    if bad_ops:
        raise ValueError(f"corner components are not closed under their outgoing arrows: {bad_ops}")

    down, down_bar, up, up_bar = apply(
        {"delta-": (-1, n - 1), "delta_bar-": (1, n - 3), "delta+": (-1, n - 3), "delta_bar+": (1, n - 1)}
    )
    route_down = down + down_bar
    route_up = up + up_bar
    cross_sum = norm(route_down + route_up, 1 - parity)
    if _exceeds(cross_sum, tol * scale):
        raise ValueError(f"mixed corner sum does not cancel ({cross_sum:.3e})")

    return OrderData(
        order=order,
        parity=parity,
        rho=rho,
        components=comps,
        routes=(route_down, route_up),
        outside_norm=outside_norm,
        component_closed=closed,
        cross_sum=cross_sum,
        rho_norm=norm(rho, parity),
    )


def solve_phi(
    data: OrderData,
    background: TorusBackground,
    *,
    tol_agree: float = 1e-10,
    tol_exact: float = 1e-9,
) -> tuple[FourierField, dict[str, float]]:
    """Potential ``phi`` in ``U^{0,n-2}`` with ``d^H phi = rho``.

    Both Green-operator expressions (on the lower arrows into the middle
    space and on the negated upper ones, ``data.routes``) are formed; they must agree,
    and the recovered potential must reproduce the obstruction exactly.
    The work is on the routes' half rows; ``phi`` is returned full width.
    """
    pair = background.pair
    n = pair.n
    G = background.green
    parity = 1 - data.parity
    route_down, route_up = data.routes
    phi = G[:, None] * route_down
    phi_b = -G[:, None] * route_up

    scale = max(data.rho_norm, 1e-300)
    agreement = background.norm(phi - phi_b, parity)
    exactness = background.norm(background.differentiate(phi, parity) - data.rho, data.parity)
    off_grade = background.norm(phi - pair.project(phi, parity, 0, n - 2), parity)
    info = {
        "phi_norm": background.norm(phi, parity),
        "phi_agreement": agreement,
        "phi_exactness": exactness,
        "phi_off_grade": off_grade,
    }
    if _exceeds(agreement, tol_agree * scale):
        raise ValueError(f"the two potential expressions disagree ({agreement:.3e})")
    if _exceeds(exactness, tol_exact * scale):
        raise ValueError(f"potential does not reproduce the obstruction ({exactness:.3e})")
    if _exceeds(off_grade, tol_agree * scale):
        raise ValueError(f"potential leaves the middle component ({off_grade:.3e})")
    return background.support.unpack(_widen(phi, parity), FourierField, pair.m, spinor_dim(pair.m)), info


def _beta_basis(pair: HermitianPair) -> np.ndarray:
    """so-basis of ``V_-^{1,0} (x) V_+^{0,1}``, stacked ``(n*n, 2m, 2m)``."""
    lm = pair.sector_frame(False, True)
    lp = pair.sector_frame(True, False)
    return np.stack([so_from_pair(lm[:, i], lp[:, j]) for i in range(lm.shape[1]) for j in range(lp.shape[1])])


class CorrectionSystem:
    """The map ``c -> spin(sum_i c_i alpha_i) psi`` for a constant seed.

    The ``alpha_i`` (``basis``) span ``V_-^{1,0} (x) V_+^{0,1}``, the unique
    sector that maps the top antiholomorphic line onto ``U^{0,n-2}``.
    ``images`` holds the columns ``spin(alpha_i) psi`` on the half of the
    seed's form ``parity``, from one ``spin_flip_weights`` call, and
    ``pinv`` its pseudo-inverse.  Built once per seed; a seed that is not a
    single constant spinor of one parity, or a rank-deficient system, raises.
    """

    def __init__(self, psi, pair: HermitianPair):
        if isinstance(psi, FourierField):
            if len(psi.coeffs) != 1 or (0,) * psi.torus_dim not in psi.coeffs:
                raise ValueError("the seed spinor must be constant")
            psi = psi[(0,) * psi.torus_dim]
        self.seed = np.asarray(psi, dtype=complex)
        self.parity = _seed_parity(self.seed)
        self.basis = _beta_basis(pair)
        # applied once, so the per-entry layout stays a view: a copy would
        # only raise the peak (0.95 MB at m = 8)
        weights = spin_flip_weights(self.basis, self.parity).transpose(2, 0, 1)
        self.images = _spin_flip_outer(weights, _half(self.seed, self.parity)[None], self.parity)[:, 0].T
        sv = np.linalg.svd(self.images, compute_uv=False)
        if sv.size == 0 or sv[-1] <= 1e-12 * sv[0]:
            raise ValueError("seed spinor gives a singular correction system")
        self.pinv = np.linalg.pinv(self.images, rcond=1e-12)


def beta_from_phi(phi: FourierField, system: CorrectionSystem) -> FourierOperatorField:
    """so-valued field ``beta`` with ``beta . psi = phi`` in the sector of the system.

    All frequencies of ``phi`` are solved by one product with the
    pseudo-inverse; a frequency whose potential lies outside the range of
    the system (beyond 1e-8 of its norm) raises, naming the first such
    frequency.
    """
    out = FourierOperatorField(phi.torus_dim, system.basis.shape[-1])
    if not phi.coeffs:
        return out
    keys, V = phi.stacked()
    C = _half(V, system.parity) @ system.pinv.T
    resid = np.linalg.norm(_widen(C @ system.images.T, system.parity) - V, axis=1)
    bad = np.flatnonzero(~(resid <= 1e-8 * np.maximum(np.linalg.norm(V, axis=1), 1e-300)))
    if bad.size:
        k = bad[0]
        raise ValueError(f"potential at frequency {keys[k]} is not in the correction range ({resid[k]:.3e})")
    basis = system.basis
    betas = (C @ basis.reshape(len(basis), -1)).reshape(len(keys), *basis.shape[1:])
    out.coeffs = {keys[r]: betas[r] for r in np.flatnonzero(betas.reshape(len(keys), -1).any(axis=1))}
    return out


# ---------------------------------------------------------------------------
# the full induction


@dataclass
class SolutionReport:
    """Everything the induction produced, plus the data needed to verify it.

    ``orders[k - 1]`` is order k's record: its obstruction, correction and
    check figures under the keys ``as_dict`` writes for that order.
    ``residual_norms[k]`` is the residual after order k, with the seed's at
    index 0, and ``order_wall_ms[k - 1]`` the wall time of order k.
    """

    pair: HermitianPair
    order_cap: int
    psi0: FourierField
    psi_norm: float
    factors: list[SeriesSoField]
    b: SeriesSoField
    betas: list[FourierOperatorField]
    orders: list[dict]
    precondition_defects: list[float]
    residual_norms: list[float]
    support: tuple
    psi_series: list[FourierField]
    order_wall_ms: list[float] = field(default_factory=list)

    def as_dict(self) -> dict:
        """JSON-ready summary; deliberately excludes timings and raw arrays."""
        return {
            "torus_dim": self.pair.m,
            "order_cap": self.order_cap,
            "psi_norm": self.psi_norm,
            "support_size": len(self.support),
            "precondition_defects": list(self.precondition_defects),
            "orders": [{**rec, "residual_norm": self.residual_norms[rec["order"]]} for rec in self.orders],
            "residual_norms": list(self.residual_norms),
            # a report exists only for a run whose every order closed
            "ok": True,
        }


def run_deformation(
    a,
    pair: HermitianPair,
    *,
    order_cap: int = 4,
    psi=None,
    tol_order: float = 1e-9,
    tol_checks: float = 1e-10,
) -> SolutionReport:
    """Build the compensating family order by order and verify each step.

    Preconditions (integrable deformed first structure, closed seed) raise
    IntegrabilityError; identity failures along the induction raise
    ValueError, and so does a seed with entries of both form parities,
    which is not a pure spinor.  Tolerances are relative to the seed norm,
    except the first-structure check, which is relative to the norm of that
    structure's canonical generator.  Packed fields are half rows: the
    series and potential of the seed's form parity, the obstruction and
    the derivatives of the other; ``psi_series`` is full width.
    """
    if not 1 <= order_cap <= MAX_ORDER:
        raise ValueError(f"order cap must be between 1 and {MAX_ORDER}")
    factors = _factor_list(a)
    if not factors:
        raise ValueError("need at least one deformation family")
    torus_dim = pair.m
    seed = _seed_field(torus_dim, psi if psi is not None else pair.canonical_generator(2))
    reach = _reach(factors, order_cap)
    support = _series_support(reach, seed)
    background = TorusBackground(pair, support)
    seed_rows = support.pack(seed)
    parity = _seed_parity(seed_rows)
    seed_rows = _half(seed_rows, parity)
    psi_norm = background.norm(seed_rows, parity)
    if not 0 < psi_norm < np.inf:
        raise ValueError(f"seed spinor norm {psi_norm:.3e} is zero or not finite")

    seed_closed = background.norm(background.differentiate(seed_rows, parity), 1 - parity)
    if _exceeds(seed_closed, tol_checks * psi_norm):
        raise IntegrabilityError(f"seed spinor is not closed ({seed_closed:.3e})", order=0)

    # the defects measure the transported generator of the first structure,
    # so they scale with it and not with the seed
    defects = first_structure_defects(factors, pair, order_cap, reach)
    gen_norm = float(np.linalg.norm(pair.canonical_generator(1)))
    for j, d in enumerate(defects):
        if _exceeds(d, tol_checks * gen_norm):
            raise IntegrabilityError(
                f"deformed first structure loses integrability at order {j} ({d:.3e})", order=j
            )
    system = CorrectionSystem(seed, pair)

    betas: list[FourierOperatorField] = []
    b_stacks: list[_Stack | None] = [None]
    orders: list[dict] = []
    wall_ms: list[float] = []

    # the series exp(a_t) exp(b_t) psi is carried forward one column per
    # order: column k is built with b_k = 0, and b_k then adds spin(b_k) psi
    engine = _SeriesExp(support, [f.spin_stacks(parity) for f in factors] + [[]], [seed_rows], order_cap, parity)
    engine.fill(0)
    residual_norms = [seed_closed]

    for order in range(1, order_cap + 1):
        t0 = time.perf_counter()
        bad = [j for j in range(order) if _exceeds(residual_norms[j], tol_checks * psi_norm)]
        if bad:
            raise ValueError(f"residual below order {order} is nonzero at orders {bad}")
        rho = background.differentiate(_dense(engine.fill(order), seed_rows), parity)
        data = _obstruction(order, rho, 1 - parity, background, psi_norm, tol=tol_checks)
        phi, info = solve_phi(data, background, tol_agree=tol_checks, tol_exact=tol_order)
        beta = -beta_from_phi(phi, system)
        # the real term b_k = beta + conj(beta); conj(beta) lies in
        # V_-^{0,1} (x) V_+^{1,0} and annihilates psi, so the increment
        # spin(b_k) psi the engine adds to column k is spin(beta) psi
        stack = _term_stack(torus_dim, beta + beta.conj())
        acted = _dense(engine.extend(len(factors), order, None if stack is None else _spin_stack(stack, parity)), seed_rows)
        grading = background.norm(acted - pair.project(acted, parity, 0, pair.n - 2), parity)
        if _exceeds(grading, tol_checks * psi_norm):
            raise ValueError(f"order-{order} correction acts outside the middle component ({grading:.3e})")

        column = _dense(engine.out[0][order], seed_rows)
        residual_norms.append(background.norm(background.differentiate(column, parity), 1 - parity))
        betas.append(beta)
        b_stacks.append(stack)
        orders.append(
            {
                "order": order,
                "rho_norm": data.rho_norm,
                "beta_norm": beta.coeff_norm(),
                "outside_norm": data.outside_norm,
                "cross_sum": data.cross_sum,
                "component_closed": data.component_closed,
                "grading_defect": grading,
                **info,
            }
        )
        wall_ms.append(1e3 * (time.perf_counter() - t0))

    bad = [j for j in range(1, order_cap + 1) if _exceeds(residual_norms[j], tol_order * psi_norm)]
    if bad:
        raise ValueError(
            f"compensated residuals stay above tolerance at orders {bad}: "
            + ", ".join(f"{residual_norms[j]:.3e}" for j in bad)
        )
    return SolutionReport(
        pair=pair,
        order_cap=order_cap,
        psi0=seed,
        psi_norm=psi_norm,
        factors=factors,
        b=SeriesSoField._packed(torus_dim, b_stacks),
        betas=betas,
        orders=orders,
        precondition_defects=defects,
        residual_norms=residual_norms,
        support=support,
        psi_series=_spinor_fields(support, engine.out[0], parity),
        order_wall_ms=wall_ms,
    )


# ---------------------------------------------------------------------------
# pointwise verification at a finite parameter


# Taylor terms allowed per step of the jet exponential.  Each step has
# 1-norm at most one, so roundoff is reached after about 18 terms; hitting
# the cap means the terms stopped decreasing (NaN or overflow inside the sum).
_JET_TERM_CAP = 40

# Steps allowed in one verify_gk_at_t call, summed over its points and
# families: the count grows with the exponents' 1-norms, so a large valid
# family could run for days.  One exact-b-field mode at |k| = 64 verified at
# t = 1 over 16 points takes 18,567 steps (at most 1,177 for one point).
_JET_STEP_BUDGET = 200_000

# Entries of one stacked product of ``SeriesSoField.jet``, (m + 1) (2m)^2 per
# point: 28 points at m = 8, 65 at m = 6 and 204 at m = 4.
_JET_PRODUCT_ENTRIES = 1 << 16

# Dense exponent entries one chunk of verification points holds, (2^(m-1))^2
# per point on one parity block: 64 points at m = 4, 4 at m = 6 and 1 at m = 8.
_JET_CHUNK_ENTRIES = 4_096


def _exp_jet(W: np.ndarray, v: np.ndarray, D: np.ndarray, budget: int, parity: int) -> tuple[np.ndarray, np.ndarray, int]:
    """One factor applied to the first-order jets of a chunk of B points:
    ``(exp(S) v, exp(S) D_d + L(S, G_d) v)`` per point, and the steps taken.

    Everything is on the forms of one ``parity`` (a pure spinor's jets keep
    it) in half coordinates: ``W`` ``(B, m + 1, F, 2**(m-1))`` holds each
    point's flip-mask weights of ``S`` and of its m directional derivatives
    ``G_d`` at those entries, ``v`` ``(B, 2**(m-1))`` and ``D`` ``(B, m,
    2**(m-1))`` the jets.  ``exp([[S, G_d], [0, S]])`` acts on ``[D_d; v]``
    as a Taylor series on vectors in equal steps of 1-norm at most one, the
    1-norms being the largest column sums of the weights.  One batched loop
    drops the points whose steps are done and the terms of the points that
    converged; ``S`` is dense on its block, and the ``G_d`` act on ``v``'s
    column per entry (``_spin_flip_outer``).  More steps in all than
    ``budget`` raise before the first step.
    """
    norms = _flip_column_sums(W, parity).max(axis=-1)
    norm = norms[:, 0] + norms[:, 1:].sum(axis=1)
    if not np.isfinite(norm).all():
        raise ValueError("jet exponential needs a finite exponent")
    steps = np.maximum(1.0, np.ceil(norm))
    total = int(steps.sum())
    if total > budget:
        raise ValueError(f"jet exponential needs {total} steps, above the {budget} left of the budget of {_JET_STEP_BUDGET}")
    m = W.shape[1] - 1
    S, G = spin_flip_dense(W[:, 0], parity=parity), np.ascontiguousarray(W[:, 1:].transpose(0, 3, 1, 2))
    x = np.ascontiguousarray(np.concatenate([D, v[:, None]], axis=1).transpose(0, 2, 1))
    live = np.arange(len(x))  # the points still stepping, whose rows S and G hold
    for i in range(int(steps.max())):
        if steps[live].min() <= i:
            keep = steps[live] > i
            live, S, G = live[keep], S[keep], G[keep]
        # the step's 1/steps is applied to the vectors, so no scaled copy of S or G is made
        scale = steps[live, None, None]
        acc = term = x[live]
        for k in range(1, _JET_TERM_CAP + 1):
            nxt = S @ term
            nxt[..., :m] += _spin_flip_outer(G, term[:, None, :, m], parity)[:, :, 0].swapaxes(1, 2)
            term = nxt / (k * scale)
            acc = acc + term
            done = np.abs(term).sum(axis=(1, 2)) <= np.finfo(float).eps * np.abs(acc).sum(axis=(1, 2))
            if done.all():
                break
            term[done] = 0.0  # a converged point adds no further terms
        else:
            raise ValueError(f"jet exponential did not converge in {_JET_TERM_CAP} terms")
        x[live] = acc
    return x[..., m], x[..., :m].swapaxes(1, 2), total


def _pairing_inverse(F: np.ndarray) -> np.ndarray:
    """Inverses of a stack of maps that preserve the pairing ``P``: ``K F^T K``
    with ``K = 2 P``, which swaps the two halves of ``R^{2m}``, so no inverse
    is solved for and an overflowed map stays a non-finite one."""
    swap = np.roll(np.arange(F.shape[-1]), F.shape[-1] // 2)
    return F.swapaxes(-1, -2)[..., swap[:, None], swap]


def _stacked_norm(X: np.ndarray) -> float:
    """Largest Frobenius norm over a stack of matrices."""
    return float(np.linalg.norm(X, axis=(-2, -1)).max())


def verify_gk_at_t(report: SolutionReport, t: float, *, count: int = 16, seed: int = 0) -> dict[str, float]:
    """Check the deformed pair at ``count`` uniform points drawn from ``seed``.

    Conjugates both structures by the pointwise exponentials (compensating
    family included), verifies the structure axioms, their commutation, the
    positivity of the induced metric, and measures the sup of the exterior
    derivative of the transported spinor over the sample, which should
    scale like t**(order_cap + 1).  Non-finite structures or a metric that
    is not positive raise ValueError before the spinor side runs.

    The orthogonal side (2m x 2m) is batched over the points.  The spinor
    side forms no 2^m x 2^m exponential: with ``S = spin(alpha_f(x))`` and
    ``G_d = spin(d_d alpha_f(x))``, each factor maps the first-order jet
    ``(v, D_1..D_m)`` of ``exp(alpha_1) ... exp(alpha_F) psi0`` to
    ``(exp(S) v, exp(S) D_d + L(S, G_d) v)``, the action of
    ``exp([[S, G_d], [0, S]])`` on ``[D_d; v]`` (Van Loan, IEEE TAC 1978).
    Factors are applied right to left from ``(psi0, 0)``.  The action is a
    Taylor series on vectors after splitting into ``ceil(|S|_1 + sum_d
    |G_d|_1)`` steps of 1-norm at most one (Al-Mohy & Higham, SISC 2011),
    at most ``_JET_STEP_BUDGET`` summed over the call's points and families,
    checked before each chunk's first step.  ``psi0`` is a pure spinor, so
    the jets, the weights, ``S``, the 1-norms and ``d psi_t`` are formed on
    the half of its form parity, which spin images keep.  Points go in
    chunks of ``max(1, _JET_CHUNK_ENTRIES // 4**(m-1))``; per chunk and family,
    one ``spin_flip_weights`` call and one batched Taylor loop
    (``_exp_jet``) densify only that block of ``S``, so the spinor side
    holds one chunk's weights and block (under 1 MB at m = 8) whatever the
    sample size.  Then ``psi_t = v`` and ``d psi_t = sum_d dx_d ^ D_d``.
    """
    pair = report.pair
    m = pair.m
    if count < 1:
        raise ValueError("verification needs at least one sample point")
    points = uniform_points(seed, count, m)
    families = list(report.factors) + [report.b]
    vals, grads = zip(*(f.jet(t, points) for f in families))

    # orthogonal side, stacked over the points; an overflow here ends in the
    # finite or the metric check, so numpy is not asked to warn about it
    with np.errstate(over="ignore", invalid="ignore"):
        exps = [_expm(v) for v in vals]
        E_no_b = np.eye(2 * m, dtype=complex)
        for ex in exps[:-1]:
            E_no_b = E_no_b @ ex
        E = E_no_b @ exps[-1]
        Einv = _pairing_inverse(E)
        J1t = (E @ pair.J1 @ Einv).real
        J2t = (E @ pair.J2 @ Einv).real
        J1_only_a = (E_no_b @ pair.J1 @ _pairing_inverse(E_no_b)).real
        if not all(np.isfinite(J).all() for J in (J1t, J2t, J1_only_a)):
            raise ValueError(f"the transported structures at t={t:g} are not finite")

        eye = np.eye(2 * m)
        P = pairing_matrix(m)
        PJ1, PJ2 = P @ J1t, P @ J2t
        Gt = -J1t @ J2t
        Msym = P @ Gt
        min_eig = float(np.linalg.eigvalsh(0.5 * (Msym + Msym.swapaxes(-1, -2))).min())
        # an indefinite metric fails the check whatever the spinor side gives
        if not min_eig > 0:
            raise ValueError(f"induced metric is not positive at t={t:g} (min eig {min_eig:.3e})")
        structure_residual = max(
            _stacked_norm(J1t @ J1t + eye),
            _stacked_norm(J2t @ J2t + eye),
            _stacked_norm(PJ1 + PJ1.swapaxes(-1, -2)),
            _stacked_norm(PJ2 + PJ2.swapaxes(-1, -2)),
        )
        commutation = _stacked_norm(J1t @ J2t - J2t @ J1t)
        involution = _stacked_norm(Gt @ Gt - eye)
        stabilizer_defect = _stacked_norm(J1t - J1_only_a)

    # spinor side, in chunks of points, on the seed's half
    psi0 = report.psi0[(0,) * m]
    parity = _seed_parity(psi0)
    psi0 = _half(psi0, parity)
    chunk = max(1, _JET_CHUNK_ENTRIES // psi0.size**2)
    derivative_sup = 0.0
    psi_sup = 0.0
    budget = _JET_STEP_BUDGET
    for part in (slice(lo, lo + chunk) for lo in range(0, count, chunk)):
        v = np.broadcast_to(psi0, (len(points[part]), psi0.size))
        D = np.zeros((len(v), m, psi0.size), dtype=complex)
        for f in reversed(range(len(families))):
            W = spin_flip_weights(np.concatenate([vals[f][part, None], grads[f][:, part].swapaxes(0, 1)], axis=1), parity)
            v, D, steps = _exp_jet(W, v, D, budget, parity)
            budget -= steps
        psi_sup = max(psi_sup, float(np.linalg.norm(v, axis=-1).max()))
        # the wedge by dx_d of the direction-d derivative, onto the other parity
        dpsi = _wedge_sum(D, 1 - parity)
        derivative_sup = max(derivative_sup, float(np.linalg.norm(dpsi, axis=-1).max()))

    return {
        "t": float(t),
        "points": int(count),
        "structure_residual": structure_residual,
        "commutation": commutation,
        "involution": involution,
        "stabilizer_defect": stabilizer_defect,
        "metric_min_eig": min_eig,
        "metric_positive": True,
        "derivative_sup": derivative_sup,
        "psi_sup": psi_sup,
    }


# ---------------------------------------------------------------------------
# input families


def conjugated_structure_series(generator: FourierOperatorField, J: np.ndarray, order_cap: int) -> list[FourierOperatorField]:
    """Coefficients of ``exp(t C) J exp(-t C)``: iterated brackets over j factorial."""
    m = generator.torus_dim
    return structure_series_of_family(SeriesSoField._packed(m, [None, _term_stack(m, generator)]), J, order_cap)


def structure_series_of_family(a, J: np.ndarray, order_cap: int, support: Support | None = None) -> list[FourierOperatorField]:
    """Coefficients of ``exp(a_t) J exp(-a_t)`` for a series family.

    Each factor, right to left, acts on the structure series by the series
    exponential of its bracket ``[x, y] = x y - y x``, over the closure of
    the factors' supports (``support``, formed when not given).
    """
    factors = _factor_list(a)
    if not factors:
        raise ValueError("need at least one series family")
    torus_dim = factors[0].torus_dim
    if support is None:
        support = _reach(factors, order_cap)
    source = support.pack(FourierOperatorField.constant(torus_dim, J))
    columns = _SeriesExp(support, [f.stacks for f in factors], [source], order_cap, None).fill_all()
    return [support.unpack(c, FourierOperatorField, torus_dim, source.shape[-1]) for c in columns]


def commutant_part(J: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Component of an so element commuting with the structure."""
    return 0.5 * (alpha - J @ alpha @ J)


def extract_transverse_family(
    J: np.ndarray, target: list[FourierOperatorField], order_cap: int, support: Support | None = None
) -> SeriesSoField:
    """Exponents anticommuting with ``J`` that reproduce a structure series.

    ``target[j]`` are the coefficients of a conjugated-structure family with
    ``target[0] = J``.  Solving order by order, the order-j update is fixed
    by ``[a_j, J] = D_j`` with ``D_j`` the yet-unmatched coefficient, which
    requires ``D_j`` to anticommute with ``J``; a commutant component above
    1e-8 of ``max(1, ||D_j||)`` means the input series is not such a family
    and raises, and so does an exponent outside so(m,m) at that tolerance.
    The work is over ``support``, which must hold the closure of the
    target's supports (formed when not given); a larger one, such as the
    support the target was computed over, gives the same family.
    """
    J = np.asarray(J, dtype=float)
    torus_dim = target[0].torus_dim
    if support is None:
        weighted = [(j, k) for j in range(1, order_cap + 1) for k in target[j].coeffs]
        support = support_closure(weighted, order_cap, torus_dim)
    source = support.pack(FourierOperatorField.constant(torus_dim, J))
    # the series exp(a_t) J exp(-a_t) is carried forward: column j is built
    # with a_j = 0, and a_j then adds its order-j correction [a_j, J]
    engine = _SeriesExp(support, [[]], [source], order_cap, None)
    engine.fill(0)
    stacks: list[_Stack | None] = [None]
    for j in range(1, order_cap + 1):
        D = support.pack(target[j])
        partial = engine.fill(j)
        if partial is not None:
            D -= partial
        if not np.isfinite(D).all():
            raise ValueError(f"order-{j} structure coefficient is not finite")
        obstruction = float(np.linalg.norm(commutant_part(J, D)))
        if _exceeds(obstruction, 1e-8 * max(1.0, float(np.linalg.norm(D)))):
            raise ValueError(
                f"order-{j} structure coefficient has a commutant component ({obstruction:.3e})"
            )
        a_j = -0.5 * (D @ J)
        k = _first_outside_so((support, a_j), 1e-8)
        if k is not None:
            raise ValueError(f"extracted order-{j} exponent at {k} leaves so(m,m)")
        rows = np.flatnonzero(a_j.reshape(len(a_j), -1).any(axis=1))
        stacks.append(([support[r] for r in rows], a_j[rows]) if rows.size else None)
        engine.extend(0, j, stacks[-1])
    return SeriesSoField._packed(torus_dim, stacks)
