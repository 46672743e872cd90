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
    _spin_flip_outer,
    clifford_act,
    pairing_matrix,
    so_from_pair,
    spin_flip_dense,
    spin_flip_weights,
    spinor_dim,
)
from .fields import (
    FourierField,
    FourierOperatorField,
    derivative_rows,
    uniform_points,
)
from .hodge import Support, TorusBackground, _sorted_rows
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
    support = Support(freqs + [tuple(-v for v in k) for k in freqs])
    field = np.zeros((len(support), *mats.shape[1:]), dtype=complex)
    field[[support.index[k] for k in freqs]] = mats
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
        self._spin_stacks: list[_Stack | None] | None = None

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
        ``exp(i <k, x>)`` and its products, alone and times ``i k_d``, with
        the stacked matrices.  The products are formed one direction at a
        time, so the largest temporary is ``(N, 2m, 2m)``, not the size of
        the gradients."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        values = np.zeros((len(points), self.value_dim, self.value_dim), dtype=complex)
        grads = np.zeros((self.torus_dim, *values.shape), dtype=complex)
        for j, stack in enumerate(self.stacks):
            if stack is not None:
                k = np.array(stack[0], dtype=float)
                phase = np.exp(1j * points @ k.T)
                values += t**j * np.tensordot(phase, stack[1], 1)
                for d in range(self.torus_dim):
                    grads[d] += t**j * np.tensordot(1j * k[:, d] * phase, stack[1], 1)
        return values, grads

    def spin_stacks(self) -> list[_Stack | None]:
        """Per order, the frequencies and read-only spin images of the
        coefficients as flip-mask weights (``_spin_stack``), computed on the
        first call: a family's stacks are not changed after construction
        (every method above returns a new one)."""
        if self._spin_stacks is None:
            self._spin_stacks = [None if s is None else _spin_stack(s) for s in self.stacks]
        return self._spin_stacks


def _spin_stack(stack: _Stack) -> _Stack:
    """Frequencies and read-only spin images of an so-valued stack as
    flip-mask weights ``(P, F, 2**m)``, one batched ``spin_flip_weights``
    call: 1.5 MB at m = 8 and 13 frequencies, against 13.6 MB dense."""
    freqs, coeffs = stack
    weights = spin_flip_weights(coeffs)
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
    outside the support).  On operator columns (``bracket``) ``mats[a] =
    x_p``, a ``(2m, 2m)`` matrix.  On spinor columns ``x_p`` is given as the
    flip-mask weights ``W[a]`` ``(F, 2**m)`` of a spin image, and ``mats``
    holds them per entry, ``mats[i] = W[:, :, i]``, the layout of
    ``clifford._spin_flip_outer``; no dense spin image is formed.
    """

    def __init__(self, support: Support, freqs: list, mats: np.ndarray, bracket: bool):
        self.freqs = freqs
        self.mats = mats if bracket else np.ascontiguousarray(mats.transpose(2, 0, 1))
        self.rows = np.stack([support.shifted(p) for p in freqs])


class _SeriesExp:
    """``exp(X^1_t) ... exp(X^F_t)`` applied to a series ``Y_t``, one power of t at a time.

    Every coefficient is a packed ``(S, *shape)`` array over one
    :class:`~genkahler.hodge.Support` (rows from ``Support.index``), or None
    where it vanishes.  A factor coefficient ``X_i`` is given per frequency
    as the flip-mask weights of its spin image (``SeriesSoField.spin_stacks``)
    and acts on spinor columns by the flip gather; with ``bracket`` it is
    given as so(m,m) matrices and acts on operator columns by ``[x, y] = x y
    - y x``.  Per call, the nonzero rows of the column are gathered, acted
    on by all frequencies of ``X_i`` in one batched product
    (``clifford._spin_flip_outer`` on spinors), and summed into their rows
    of the cached shift tables.  A nonzero row that a shift would take
    outside the support raises ``ValueError``.

    Factor f turns its input ``term_0`` (the output of factor f + 1, or
    ``Y`` for the last) into ``sum_j term_j`` with ``term_j[n] = (1/j) sum_i
    X_i term_{j-1}[n-i]``.  As ``X_0 = 0`` this reads only columns below n,
    so ``fill(n)`` computes column n of every factor, right to left, from
    the filled ones.  A coefficient ``X^f_n`` given after column n is filled
    (``extend``) enters that column only through ``X^f_n term_0[0]``.
    """

    def __init__(self, support: Support, factors: list[list], source: list, order_cap: int, bracket: bool = False):
        """``factors[f][i]``: the frequencies and stacked spin weights (or,
        with ``bracket``, matrices) of ``X^f_i``, or None; ``source[n]``:
        column n of ``Y``."""
        self.support, self.order_cap, self.bracket = support, order_cap, bracket
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
            self.X[f][i] = _Coefficient(self.support, *stack, self.bracket)

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
            if self.bracket:
                prod = x.mats[:, None] @ rows - rows @ x.mats[:, None]
            else:
                prod = _spin_flip_outer(x.mats, rows)
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
        Returns the updated column i.
        """
        if i != self.filled - 1 or i < 1 or self.X[f][i] is not None:
            raise ValueError(f"order-{i} coefficient cannot be added after {self.filled} columns")
        self._set(f, i, stack)
        if self.X[f][i] is not None and self.terms[f][0][0] is not None:
            delta = self._apply([(self.X[f][i], self.terms[f][0][0])])
            self.terms[f][1][i] = _sum(self.terms[f][1][i], delta)
            for g in range(f, -1, -1):
                self.out[g][i] = _sum(self.out[g][i], delta)
        return self.out[0][i]

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


def _series_support(factors: list[SeriesSoField], seed: FourierField, order_cap: int) -> Support:
    """Frequencies of every coefficient of the factors applied to the seed up
    to the cap: the seed's frequencies shifted by the factors' closure."""
    reach = support_closure([p for f in factors for p in f.weighted_support()], order_cap, seed.torus_dim)
    shifts = seed.support() or [(0,) * seed.torus_dim]
    return Support(tuple(a + b for a, b in zip(k, q)) for k in reach for q in shifts)


def _spinor_series(support: Support, factors: list[SeriesSoField], seed: np.ndarray, order_cap: int) -> _SeriesExp:
    """The series engine of the factors acting on a seed packed over the support."""
    return _SeriesExp(support, [f.spin_stacks() for f in factors], [seed], order_cap)


def _spinor_fields(support: Support, columns: list) -> list[FourierField]:
    torus_dim = len(support[0])
    return [support.unpack(c, FourierField, torus_dim, spinor_dim(torus_dim)) for c in columns]


def _seeded_series(a, b, psi, order_cap: int) -> tuple[list[SeriesSoField], Support, list]:
    """The factors of ``a`` then ``b``, the support of ``exp(a_t) exp(b_t) psi``
    up to the cap and its packed columns."""
    factors = _factor_list(a) + _factor_list(b)
    if not factors:
        raise ValueError("need at least one series family")
    seed = _seed_field(factors[0].torus_dim, psi)
    support = _series_support(factors, seed, order_cap)
    return factors, support, _spinor_series(support, factors, support.pack(seed), order_cap).fill_all()


def series_exp_action(a, b, psi, order_cap: int) -> list[FourierField]:
    """Series coefficients of ``exp(a_t) exp(b_t) psi`` up to the order cap.

    ``a`` may be a single family or a sequence of factor families composed
    left to right (leftmost acts last on the spinor); ``b`` may be None.
    The factors act on the spinor series one at a time, right to left, each
    as the series exponential of its spin representation.
    """
    return _spinor_fields(*_seeded_series(a, b, psi, order_cap)[1:])


# ---------------------------------------------------------------------------
# frequency bookkeeping


def _shifted_rows(table: np.ndarray, steps: list) -> np.ndarray:
    """Every row of an int64 ``(R, m)`` table plus every step (lists of
    Python ints), ``(R * len(steps), m)``; a sum outside int64 raises
    ``ValueError`` instead of wrapping."""
    lo, hi = table.min(axis=0).tolist(), table.max(axis=0).tolist()
    limits = np.iinfo(np.int64)
    for low, high, column in zip(lo, hi, zip(*steps)):
        if high + max(column) > limits.max or low + min(column) < limits.min:
            raise ValueError("frequency sums of the closure steps leave the int64 range")
    return (table[:, None] + np.array(steps, dtype=np.int64)).reshape(-1, table.shape[1])


def support_closure(weighted, order_cap: int, torus_dim: int) -> tuple:
    """Sorted frequencies reachable as sums of ``(weight, frequency)`` steps
    of total weight at most the cap, such as a family's ``weighted_support``.

    Steps of weight below 1 are ignored.  ``reach[c]``, the sums of weight
    at most c, is ``reach[c - 1]`` and every ``reach[c - w] + k``, held as
    an ``(R, m)`` int64 table whose rows are made distinct by one sort
    (``hodge._sorted_rows``); the zero frequency is always included.  A sum
    outside int64 raises ``ValueError``.  The result bounds the support of
    every series term up to the cap.
    """
    steps: dict[int, list] = {}
    for w, k in weighted:
        if 1 <= w <= order_cap:
            steps.setdefault(int(w), []).append([int(v) for v in k])
    reach = [np.zeros((1, torus_dim), dtype=np.int64)]
    for c in range(1, order_cap + 1):
        table = np.concatenate([reach[c - 1]] + [_shifted_rows(reach[c - w], ks) for w, ks in steps.items() if w <= c])
        order, starts = _sorted_rows(table)
        reach.append(table[order[starts]])
    return tuple(map(tuple, reach[-1].tolist()))


# ---------------------------------------------------------------------------
# integrability of the deformed first structure


def first_structure_defects(a, pair: HermitianPair, order_cap: int) -> list[float]:
    """Per-order norm of the part of ``exp(-a) d exp(a) gen`` outside the
    level just below the top of the first structure's grading.

    ``gen`` is the canonical top-level generator of the first structure.
    The series of ``exp(a) gen`` is differentiated termwise, then the
    factors act again left to right with negated spin terms.  A nonzero
    value at order j means the deformed first structure fails to be
    integrable at that order, which breaks the induction hypothesis.
    """
    factors, support, moved = _seeded_series(a, None, pair.canonical_generator(1), order_cap)
    derivs = [None if c is None else derivative_rows(support.frequencies, c) for c in moved]
    inverse = [[None if x is None else (x[0], -x[1]) for x in f.spin_stacks()] for f in reversed(factors)]
    columns = _SeriesExp(support, inverse, derivs, order_cap).fill_all()
    return [0.0 if q is None else float(np.linalg.norm(q - pair.project(q, p=pair.n - 1))) for q in columns]


# ---------------------------------------------------------------------------
# one order of the induction


@dataclass
class OrderData:
    """Obstruction at one order, its corner components and closedness data;
    ``rho``, the components and ``routes`` (the lower and the upper arrows
    into the middle space, applied to the corners and summed; the mixed
    corner sum is their total) are packed over the background's support."""

    order: int
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
    Violations, beyond 1e-10 of the seed norm, raise distinct ValueErrors.
    """
    if order < 1:
        raise ValueError("orders start at 1")
    support = background.support
    seed = support.pack(_seed_field(background.pair.m, psi))
    scale = max(background.norm(seed), 1e-300)
    factors = _factor_list(a) + _factor_list(b.truncate(order - 1) if b is not None else None)
    if not factors:
        raise ValueError("need at least one series family")
    columns = _spinor_series(support, factors, seed, order).fill_all()
    derivs = [background.differentiate(_dense(c, seed)) for c in columns]
    bad = [j for j in range(order) if _exceeds(background.norm(derivs[j]), 1e-10 * scale)]
    if bad:
        raise ValueError(f"residual below order {order} is nonzero at orders {bad}")
    return _obstruction(order, derivs[order], background, scale, tol=1e-10)


def _dense(column: np.ndarray | None, like: np.ndarray) -> np.ndarray:
    """A packed series column, zeros (shaped like ``like``) where it vanishes."""
    return np.zeros_like(like) if column is None else column


def _obstruction(order: int, rho: np.ndarray, background: TorusBackground, scale: float, *, tol: float) -> OrderData:
    """Corner components of the packed order-``order`` obstruction and their checks."""
    pair = background.pair
    n = pair.n
    comps = {key: pair.project(rho, *key) for key in _corner_keys(n)}
    outside_norm = background.norm(rho - sum(comps.values()))
    if _exceeds(outside_norm, tol * scale):
        raise ValueError(f"order-{order} obstruction leaks outside the four corners ({outside_norm:.3e})")

    apply = background.apply
    closed = {
        name: background.norm(apply(name, comps[corner]))
        for name, corner in _annihilating_arrows(n).items()
    }
    bad_ops = {k: v for k, v in closed.items() if _exceeds(v, tol * scale)}
    if bad_ops:
        raise ValueError(f"corner components are not closed under their outgoing arrows: {bad_ops}")

    route_down = apply("delta-", comps[(-1, n - 1)]) + apply("delta_bar-", comps[(1, n - 3)])
    route_up = apply("delta+", comps[(-1, n - 3)]) + apply("delta_bar+", comps[(1, n - 1)])
    cross_sum = background.norm(route_down + route_up)
    if _exceeds(cross_sum, tol * scale):
        raise ValueError(f"mixed corner sum does not cancel ({cross_sum:.3e})")

    return OrderData(
        order=order,
        rho=rho,
        components=comps,
        routes=(route_down, route_up),
        outside_norm=outside_norm,
        component_closed=closed,
        cross_sum=cross_sum,
        rho_norm=background.norm(rho),
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
    The work is on packed arrays; ``phi`` is returned as a Fourier field.
    """
    pair = background.pair
    n = pair.n
    G = background.green
    route_down, route_up = data.routes
    phi = G[:, None] * route_down
    phi_b = -G[:, None] * route_up

    scale = max(data.rho_norm, 1e-300)
    agreement = background.norm(phi - phi_b)
    exactness = background.norm(background.differentiate(phi) - data.rho)
    off_grade = background.norm(phi - pair.project(phi, 0, n - 2))
    info = {
        "phi_norm": background.norm(phi),
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
    return background.support.unpack(phi, FourierField, pair.m, phi.shape[1]), info


def _beta_basis(pair: HermitianPair) -> np.ndarray:
    """so-basis of ``V_-^{1,0} (x) V_+^{0,1}``, stacked ``(n*n, 2m, 2m)``."""
    lm = pair.sector_frame(False, True)
    lp = pair.sector_frame(True, False)
    return np.stack([so_from_pair(lm[:, i], lp[:, j]) for i in range(lm.shape[1]) for j in range(lp.shape[1])])


class CorrectionSystem:
    """The map ``c -> spin(sum_i c_i alpha_i) psi`` for a constant seed.

    The ``alpha_i`` (``basis``) span ``V_-^{1,0} (x) V_+^{0,1}``, the unique
    sector that maps the top antiholomorphic line onto ``U^{0,n-2}``.
    ``images`` holds the columns ``spin(alpha_i) psi``, gathered from one
    ``spin_flip_weights`` call, and ``pinv`` its pseudo-inverse.  Built once
    per seed; a seed that is not a single constant spinor, or a
    rank-deficient system, raises.
    """

    def __init__(self, psi, pair: HermitianPair):
        if isinstance(psi, FourierField):
            if len(psi.coeffs) != 1 or (0,) * psi.torus_dim not in psi.coeffs:
                raise ValueError("the seed spinor must be constant")
            psi = psi[(0,) * psi.torus_dim]
        self.seed = np.asarray(psi, dtype=complex)
        self.basis = _beta_basis(pair)
        # applied once, so the per-entry layout stays a view: a copy would
        # only raise the peak (1.9 MB at m = 8)
        weights = spin_flip_weights(self.basis).transpose(2, 0, 1)
        self.images = _spin_flip_outer(weights, self.seed[None])[:, 0].T
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
    C = V @ system.pinv.T
    resid = np.linalg.norm(C @ system.images.T - V, axis=1)
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
    ValueError.  Tolerances are relative to the seed norm, except the
    first-structure check, which is relative to the norm of that
    structure's canonical generator.
    """
    if not 1 <= order_cap <= MAX_ORDER:
        raise ValueError(f"order cap must be between 1 and {MAX_ORDER}")
    factors = _factor_list(a)
    if not factors:
        raise ValueError("need at least one deformation family")
    torus_dim = pair.m
    seed = _seed_field(torus_dim, psi if psi is not None else pair.canonical_generator(2))
    support = _series_support(factors, seed, order_cap)
    background = TorusBackground(pair, support)
    seed_rows = support.pack(seed)
    psi_norm = background.norm(seed_rows)
    if not 0 < psi_norm < np.inf:
        raise ValueError(f"seed spinor norm {psi_norm:.3e} is zero or not finite")

    seed_closed = background.norm(background.differentiate(seed_rows))
    if _exceeds(seed_closed, tol_checks * psi_norm):
        raise IntegrabilityError(f"seed spinor is not closed ({seed_closed:.3e})", order=0)

    # the defects measure the transported generator of the first structure,
    # so they scale with it and not with the seed
    defects = first_structure_defects(factors, pair, order_cap)
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
    engine = _SeriesExp(support, [f.spin_stacks() for f in factors] + [[]], [seed_rows], order_cap)
    columns = [engine.fill(0)]
    residual_norms = [seed_closed]

    for order in range(1, order_cap + 1):
        t0 = time.perf_counter()
        bad = [j for j in range(order) if _exceeds(residual_norms[j], tol_checks * psi_norm)]
        if bad:
            raise ValueError(f"residual below order {order} is nonzero at orders {bad}")
        rho = background.differentiate(_dense(engine.fill(order), seed_rows))
        data = _obstruction(order, rho, background, psi_norm, tol=tol_checks)
        phi, info = solve_phi(data, background, tol_agree=tol_checks, tol_exact=tol_order)
        beta = -beta_from_phi(phi, system)
        # the real term b_k = beta + conj(beta); conj(beta) lies in
        # V_-^{0,1} (x) V_+^{1,0} and annihilates psi, so spin(b_k) psi is
        # both spin(beta) psi and the increment the engine adds to column k
        stack = _term_stack(torus_dim, beta + beta.conj())
        spins = None if stack is None else _spin_stack(stack)
        acted = np.zeros_like(seed_rows)
        if spins is not None:
            weights = spins[1].transpose(2, 0, 1)
            acted[[support.index[p] for p in spins[0]]] = _spin_flip_outer(weights, system.seed[None])[:, 0]
        grading = background.norm(acted - pair.project(acted, 0, pair.n - 2))
        if _exceeds(grading, tol_checks * psi_norm):
            raise ValueError(f"order-{order} correction acts outside the middle component ({grading:.3e})")

        columns.append(engine.extend(len(factors), order, spins))
        residual_norms.append(background.norm(background.differentiate(_dense(columns[-1], seed_rows))))
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
        psi_series=_spinor_fields(support, columns),
        order_wall_ms=wall_ms,
    )


# ---------------------------------------------------------------------------
# pointwise verification at a finite parameter


# Taylor terms allowed per step of the jet exponential.  Each step has
# 1-norm at most one, so roundoff is reached after about 18 terms; hitting
# the cap means the terms stopped decreasing (NaN or overflow inside the sum).
_JET_TERM_CAP = 40


def _exp_jet(W: np.ndarray, v: np.ndarray, D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One factor applied to a first-order jet: ``(exp(S) v, exp(S) D_d + L(S, G_d) v)``.

    ``W`` stacks the flip-mask weights (``clifford.spin_flip_weights``) of
    the exponent ``S`` and then of its m directional derivatives ``G_d``;
    ``D`` holds the matching jet components.  This is ``exp([[S, G_d], [0,
    S]])`` acting on ``[D_d; v]``, summed as a Taylor series on vectors after
    splitting into equal steps of 1-norm at most one; the 1-norms are the
    largest column sums of the weights.  ``S`` is densified and applied to
    the m + 1 rows by one product; the ``G_d`` act on ``v``'s row by one
    gather, so no dense ``G_d`` is formed.
    """
    norms = _flip_column_sums(W).max(axis=-1)
    norm = norms[0] + norms[1:].sum()
    if not np.isfinite(norm):
        raise ValueError("jet exponential needs a finite exponent")
    steps = max(1, int(np.ceil(norm)))
    m = len(W) - 1
    # S dense, the G_d per entry, the layout of the flip applier
    S, G = spin_flip_dense(W[0]), np.ascontiguousarray(W[1:].transpose(2, 0, 1))
    x = np.vstack([D, v[None]])
    for _ in range(steps):
        acc, term = x, x
        for k in range(1, _JET_TERM_CAP + 1):
            # the step's 1/steps is applied to the vectors, so no scaled copy of S or G is made
            nxt = term @ S.T
            nxt[:m] += _spin_flip_outer(G, term[m:])[:, 0]
            term = nxt / (k * steps)
            acc = acc + term
            if np.abs(term).sum() <= np.finfo(float).eps * np.abs(acc).sum():
                break
        else:
            raise ValueError(f"jet exponential did not converge in {_JET_TERM_CAP} terms")
        x = acc
    return x[m], x[:m]


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
    |G_d|_1)`` steps of 1-norm at most one (Al-Mohy & Higham, SISC 2011).
    Per point and family, one ``spin_flip_weights`` call gives ``S`` and
    the ``G_d`` as flip-mask weights (``_exp_jet``): only ``S`` is made
    dense, and the ``G_d`` act by one gather.  Points are processed one at a
    time, so memory holds one point's m + 1 weight stacks and one dense
    ``S`` (about 2 MB at m = 8) whatever the sample size.  Then ``psi_t =
    v`` and ``d psi_t = sum_d dx_d ^ D_d``.
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

    # spinor side, one point at a time
    wedges = np.eye(2 * m)[m:]  # (0; dx_d), whose Clifford actions are the wedges
    psi0 = report.psi0[(0,) * m]
    derivative_sup = 0.0
    psi_sup = 0.0
    for p in range(count):
        v, D = psi0, np.zeros((m, psi0.size), dtype=complex)
        for f in reversed(range(len(families))):
            W = spin_flip_weights(np.concatenate([vals[f][p][None], grads[f][:, p]]))
            v, D = _exp_jet(W, v, D)
        psi_sup = max(psi_sup, float(np.linalg.norm(v)))
        dpsi = clifford_act(wedges, D).sum(axis=0)
        derivative_sup = max(derivative_sup, float(np.linalg.norm(dpsi)))

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


def structure_series_of_family(a, J: np.ndarray, order_cap: int) -> list[FourierOperatorField]:
    """Coefficients of ``exp(a_t) J exp(-a_t)`` for a series family.

    Each factor, right to left, acts on the structure series by the series
    exponential of its bracket ``[x, y] = x y - y x``.
    """
    factors = _factor_list(a)
    if not factors:
        raise ValueError("need at least one series family")
    torus_dim = factors[0].torus_dim
    support = Support(support_closure([p for f in factors for p in f.weighted_support()], order_cap, torus_dim))
    source = support.pack(FourierOperatorField.constant(torus_dim, J))
    columns = _SeriesExp(support, [f.stacks for f in factors], [source], order_cap, bracket=True).fill_all()
    return [support.unpack(c, FourierOperatorField, torus_dim, source.shape[-1]) for c in columns]


def commutant_part(J: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Component of an so element commuting with the structure."""
    return 0.5 * (alpha - J @ alpha @ J)


def extract_transverse_family(J: np.ndarray, target: list[FourierOperatorField], order_cap: int) -> SeriesSoField:
    """Exponents anticommuting with ``J`` that reproduce a structure series.

    ``target[j]`` are the coefficients of a conjugated-structure family with
    ``target[0] = J``.  Solving order by order, the order-j update is fixed
    by ``[a_j, J] = D_j`` with ``D_j`` the yet-unmatched coefficient, which
    requires ``D_j`` to anticommute with ``J``; a commutant component above
    1e-8 of ``max(1, ||D_j||)`` means the input series is not such a family
    and raises, and so does an exponent outside so(m,m) at that tolerance.
    """
    J = np.asarray(J, dtype=float)
    torus_dim = target[0].torus_dim
    weighted = [(j, k) for j in range(1, order_cap + 1) for k in target[j].coeffs]
    support = Support(support_closure(weighted, order_cap, torus_dim))
    source = support.pack(FourierOperatorField.constant(torus_dim, J))
    # the series exp(a_t) J exp(-a_t) is carried forward: column j is built
    # with a_j = 0, and a_j then adds its order-j correction [a_j, J]
    engine = _SeriesExp(support, [[]], [source], order_cap, bracket=True)
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
