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
import scipy.linalg

from .clifford import (
    pairing_matrix,
    so_residual,
    so_from_pair,
    spin_lie_action,
    spinor_dim,
    wedge_matrices,
)
from .fields import (
    FourierField,
    FourierOperatorField,
    twisted_derivative,
    uniform_points,
)
from .hodge import TorusBackground
from .structures import HermitianPair

__all__ = [
    "IntegrabilityError",
    "SeriesSoField",
    "SeriesSpinorField",
    "series_exp_action",
    "support_closure",
    "first_structure_defects",
    "OrderData",
    "order_residual",
    "solve_phi",
    "beta_from_phi",
    "SolutionReport",
    "run_deformation",
    "verify_gk_at_t",
    "conjugated_residual_series",
    "conjugated_structure_series",
    "structure_series_of_family",
    "extract_transverse_family",
    "commutant_part",
    "anticommutant_part",
]

MAX_ORDER = 8


class IntegrabilityError(RuntimeError):
    """A precondition on the input family (not a solver identity) failed."""

    def __init__(self, message: str, order: int | None = None):
        super().__init__(message)
        self.order = order


# ---------------------------------------------------------------------------
# series containers


def _as_operator_term(torus_dim: int, value_dim: int, term) -> FourierOperatorField:
    if term is None:
        return FourierOperatorField(torus_dim, value_dim)
    if isinstance(term, FourierOperatorField):
        return term.copy()
    mat = np.asarray(term, dtype=complex)
    if mat.shape != (value_dim, value_dim):
        raise ValueError(f"constant term shape {mat.shape} != ({value_dim}, {value_dim})")
    return FourierOperatorField.constant(torus_dim, mat)


class SeriesSoField:
    """Polynomial family ``t -> so(m,m)-valued field`` vanishing at t = 0.

    ``terms[j]`` is the coefficient of ``t**j``; the order-0 term must be
    zero so the family is the identity at t = 0.  Unless ``require_real``
    is switched off, every coefficient must describe a real field.
    """

    def __init__(self, torus_dim: int, terms, *, require_real: bool = True, tol: float = 1e-9, check: bool = True):
        self.torus_dim = int(torus_dim)
        self.value_dim = 2 * self.torus_dim
        self.terms = [_as_operator_term(self.torus_dim, self.value_dim, t) for t in terms]
        if not self.terms:
            self.terms = [FourierOperatorField(self.torus_dim, self.value_dim)]
        if check:
            if self.terms[0].coeff_norm() > tol:
                raise ValueError("series family does not vanish at t = 0")
            for j, term in enumerate(self.terms):
                for k, c in term.coeffs.items():
                    if so_residual(c) > tol * max(1.0, float(np.linalg.norm(c))):
                        raise ValueError(f"order-{j} coefficient at {k} is not in so(m,m)")
                if require_real and not term.is_real(tol):
                    raise ValueError(f"order-{j} term is not a real field")

    # -- constructors

    @classmethod
    def zero(cls, torus_dim: int) -> "SeriesSoField":
        return cls(torus_dim, [None], check=False)

    @classmethod
    def linear(cls, torus_dim: int, term, **kw) -> "SeriesSoField":
        """Family ``t * term`` for a single so-valued field or matrix."""
        return cls(torus_dim, [None, term], **kw)

    # -- basic structure

    @property
    def order_cap(self) -> int:
        return len(self.terms) - 1

    def term(self, j: int) -> FourierOperatorField:
        if 0 <= j < len(self.terms):
            return self.terms[j]
        return FourierOperatorField(self.torus_dim, self.value_dim)

    def padded(self, order_cap: int) -> list[FourierOperatorField]:
        return [self.term(j) for j in range(order_cap + 1)]

    def truncate(self, order_cap: int) -> "SeriesSoField":
        return SeriesSoField(self.torus_dim, self.padded(max(order_cap, 0)), check=False)

    def with_term(self, order: int, term: FourierOperatorField) -> "SeriesSoField":
        terms = self.padded(max(order, self.order_cap))
        terms[order] = terms[order] + term
        return SeriesSoField(self.torus_dim, terms, check=False)

    def conj(self) -> "SeriesSoField":
        return SeriesSoField(self.torus_dim, [t.conj() for t in self.terms], check=False)

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(t.coeff_norm() <= tol for t in self.terms)

    def support(self) -> list[tuple[int, ...]]:
        out = set()
        for t in self.terms:
            out.update(t.coeffs)
        return sorted(out)

    def weighted_support(self) -> list[tuple[int, tuple[int, ...]]]:
        """Pairs (order, frequency) over all nonzero coefficients."""
        out = []
        for j, t in enumerate(self.terms):
            out.extend((j, k) for k in sorted(t.coeffs))
        return out

    # -- evaluation

    def evaluate(self, t: float, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros((points.shape[0], self.value_dim, self.value_dim), dtype=complex)
        for j, term in enumerate(self.terms):
            if term.coeffs:
                out += (t ** j) * term.evaluate(points)
        return out

    def evaluate_gradient(self, t: float, points: np.ndarray) -> np.ndarray:
        """Partial derivatives in the torus directions, shape (m, N, 2m, 2m)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros((self.torus_dim, points.shape[0], self.value_dim, self.value_dim), dtype=complex)
        for j, term in enumerate(self.terms):
            for k, c in sorted(term.coeffs.items()):
                phase = (t ** j) * np.exp(1j * points @ np.asarray(k, dtype=float))
                for d, kd in enumerate(k):
                    if kd:
                        out[d] += (1j * kd) * phase[:, None, None] * c
        return out

    def spin_terms(self) -> list[FourierOperatorField]:
        """Per-order spinor-space representations of the coefficients."""
        return [t.map_values(spin_lie_action) if t.coeffs else FourierOperatorField(self.torus_dim, spinor_dim(self.torus_dim)) for t in self.terms]


class SeriesSpinorField:
    """Polynomial family ``t -> spinor-valued field``; terms[j] goes with t**j."""

    def __init__(self, torus_dim: int, terms):
        self.torus_dim = int(torus_dim)
        self.value_dim = spinor_dim(self.torus_dim)
        self.terms: list[FourierField] = []
        for t in terms:
            if not isinstance(t, FourierField):
                t = FourierField.constant(self.torus_dim, np.asarray(t, dtype=complex))
            if t.value_dim != self.value_dim:
                raise ValueError("series terms must be spinor-valued")
            self.terms.append(t.copy())

    @property
    def order_cap(self) -> int:
        return len(self.terms) - 1

    def term(self, j: int) -> FourierField:
        if 0 <= j < len(self.terms):
            return self.terms[j]
        return FourierField(self.torus_dim, self.value_dim)

    def evaluate(self, t: float, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros((points.shape[0], self.value_dim), dtype=complex)
        for j, term in enumerate(self.terms):
            if term.coeffs:
                out += (t ** j) * term.evaluate(points)
        return out

    def coeff_norms(self) -> list[float]:
        return [t.coeff_norm() for t in self.terms]


# ---------------------------------------------------------------------------
# the series exponential


def _exp_apply(X: list, Y: list, act, order_cap: int) -> list:
    """Coefficients of ``exp(X_t)`` applied to the series ``Y_t``, up to the cap.

    ``X[j]`` and ``Y[j]`` go with ``t**j``; ``X[0]`` must vanish, and
    ``act(x, y)`` applies one coefficient of ``X`` to one of ``Y``.  The sum
    runs over ``term_j = (1/j) act(X, term_{j-1})`` from ``term_0 = Y``;
    ``term_j`` vanishes below order j, so it ends at the cap.
    """

    def zero():
        return type(Y[0])(Y[0].torus_dim, Y[0].value_dim)

    term = [Y[k] if k < len(Y) else zero() for k in range(order_cap + 1)]
    out = list(term)
    for j in range(1, order_cap + 1):
        nxt = [zero() for _ in range(order_cap + 1)]
        for i in range(1, min(len(X), order_cap + 1)):
            if not X[i].coeffs:
                continue
            for k in range(order_cap + 1 - i):
                if term[k].coeffs:
                    nxt[i + k] = nxt[i + k] + act(X[i], term[k])
        term = [(1.0 / j) * f for f in nxt]
        if all(not f.coeffs for f in term):
            break
        out = [a + b for a, b in zip(out, term)]
    return out


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


def series_exp_action(a, b, psi, order_cap: int) -> SeriesSpinorField:
    """Series coefficients of ``exp(a_t) exp(b_t) psi`` up to the order cap.

    ``a`` may be a single family or a sequence of factor families composed
    left to right (leftmost acts last on the spinor); ``b`` may be None.
    The factors act on the spinor series one at a time, right to left, each
    as the series exponential of its spin representation.
    """
    factors = _factor_list(a) + _factor_list(b)
    if not factors:
        raise ValueError("need at least one series family")
    torus_dim = factors[0].torus_dim
    out = [_seed_field(torus_dim, psi)]
    for f in reversed(factors):
        out = _exp_apply(f.spin_terms(), out, FourierOperatorField.act, order_cap)
    return SeriesSpinorField(torus_dim, out)


# ---------------------------------------------------------------------------
# frequency bookkeeping


def support_closure(sources, order_cap: int, torus_dim: int) -> tuple:
    """Frequencies reachable by order-weighted sums of source frequencies.

    ``sources``: series families (their order-j coefficients count j toward
    the budget), plain fields (weight 1 per coefficient), or explicit
    ``(weight, frequency)`` pairs.  The zero frequency is always included;
    the result bounds the support of every series term up to the cap.
    """
    weighted: list[tuple[int, tuple[int, ...]]] = []
    for src in sources:
        if isinstance(src, SeriesSoField):
            weighted.extend(src.weighted_support())
        elif isinstance(src, (FourierField, FourierOperatorField)):
            weighted.extend((1, k) for k in src.support())
        else:
            w, k = src
            weighted.append((int(w), tuple(int(v) for v in k)))
    weighted = [(w, k) for w, k in weighted if 1 <= w <= order_cap and any(k)]

    zero = (0,) * torus_dim
    best = {zero: 0}
    for _ in range(order_cap):
        updates = {}
        for freq, used in best.items():
            for w, k in weighted:
                cost = used + w
                if cost > order_cap:
                    continue
                tgt = tuple(f + v for f, v in zip(freq, k))
                if cost < best.get(tgt, order_cap + 1) and cost < updates.get(tgt, order_cap + 1):
                    updates[tgt] = cost
        if not updates:
            break
        for k, c in updates.items():
            if c < best.get(k, order_cap + 1):
                best[k] = c
    return tuple(sorted(best))


# ---------------------------------------------------------------------------
# integrability of the deformed first structure


def first_structure_defects(a, pair: HermitianPair, order_cap: int) -> list[float]:
    """Per-order norm of the part of ``exp(-a) d exp(a) gen`` outside the
    level just below the top of the first structure's grading.

    ``gen`` is the canonical top-level generator of the first structure and
    the series is ``conjugated_residual_series`` of it.  A nonzero value at
    order j means the deformed first structure fails to be integrable at
    that order, which breaks the induction hypothesis.
    """
    moved = conjugated_residual_series(a, None, pair.canonical_generator(1), order_cap)
    P_good = pair.proj1[pair.n - 1]
    return [q.map_values(lambda v: v - P_good @ v).coeff_norm() for q in moved.terms]


# ---------------------------------------------------------------------------
# one order of the induction


@dataclass
class OrderData:
    """Obstruction at one order, its corner components and closedness data."""

    order: int
    rho: FourierField
    components: dict[tuple[int, int], FourierField]
    outside_norm: float
    component_closed: dict[str, float]
    cross_sum: float
    prior_norms: list[float]
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


def order_residual(
    order: int,
    a,
    b: SeriesSoField | None,
    background: TorusBackground,
    psi,
    *,
    tol: float = 1e-10,
    check: bool = True,
) -> OrderData:
    """Obstruction with the trial order-``order`` correction set to zero.

    Returns the order-``order`` coefficient of ``d^H exp(a_t) exp(b_{<order})
    psi`` together with its four corner components, the norm outside those
    corners, and the closedness checks that the corner structure demands.
    With ``check`` on, violations raise distinct ValueErrors.
    """
    if order < 1:
        raise ValueError("orders start at 1")
    pair = background.pair
    n = pair.n
    torus_dim = pair.m
    seed = _seed_field(torus_dim, psi)
    scale = max(background.norm(seed), 1e-300)
    b_low = b.truncate(order - 1) if b is not None else None

    psi_series = series_exp_action(a, b_low, seed, order)
    derivs = [twisted_derivative(psi_series.term(j), background.h) for j in range(order + 1)]
    prior = [background.norm(derivs[j]) for j in range(order)]
    if check:
        bad = [j for j, v in enumerate(prior) if v > tol * scale]
        if bad:
            raise ValueError(f"residual below order {order} is nonzero at orders {bad}")

    rho = derivs[order]
    comps = {}
    for p, q in _corner_keys(n):
        proj = pair.projector(p, q)
        comps[(p, q)] = rho.map_values(lambda v, proj=proj: proj @ v)
    inside = FourierField(torus_dim, rho.value_dim)
    for f in comps.values():
        inside = inside + f
    outside_norm = background.norm(rho - inside)
    if check and outside_norm > tol * scale:
        raise ValueError(f"order-{order} obstruction leaks outside the four corners ({outside_norm:.3e})")

    ops = background.components
    closed = {
        name: background.norm(ops[name].act(comps[corner]))
        for name, corner in _annihilating_arrows(n).items()
    }
    if check:
        bad_ops = {k: v for k, v in closed.items() if v > tol * scale}
        if bad_ops:
            raise ValueError(f"corner components are not closed under their outgoing arrows: {bad_ops}")

    cross = (
        ops["delta-"].act(comps[(-1, n - 1)])
        + ops["delta_bar-"].act(comps[(1, n - 3)])
        + ops["delta+"].act(comps[(-1, n - 3)])
        + ops["delta_bar+"].act(comps[(1, n - 1)])
    )
    cross_sum = background.norm(cross)
    if check and cross_sum > tol * scale:
        raise ValueError(f"mixed corner sum does not cancel ({cross_sum:.3e})")

    return OrderData(
        order=order,
        rho=rho,
        components=comps,
        outside_norm=outside_norm,
        component_closed=closed,
        cross_sum=cross_sum,
        prior_norms=prior,
        rho_norm=background.norm(rho),
    )


def solve_phi(
    data: OrderData,
    background: TorusBackground,
    *,
    tol_agree: float = 1e-10,
    tol_exact: float = 1e-9,
    check: bool = True,
) -> tuple[FourierField, dict[str, float]]:
    """Potential ``phi`` in ``U^{0,n-2}`` with ``d^H phi = rho``.

    Both Green-operator expressions (through the lower arrows into the
    middle space and the negated upper ones) are computed; they must agree,
    and the recovered potential must reproduce the obstruction exactly.
    """
    pair = background.pair
    n = pair.n
    ops = background.components
    G = background.green
    route_down = ops["delta-"].act(data.components[(-1, n - 1)]) + ops["delta_bar-"].act(data.components[(1, n - 3)])
    route_up = ops["delta+"].act(data.components[(-1, n - 3)]) + ops["delta_bar+"].act(data.components[(1, n - 1)])
    phi_a = G.act(route_down)
    phi_b = -1.0 * G.act(route_up)

    scale = max(data.rho_norm, 1e-300)
    agreement = background.norm(phi_a - phi_b)
    phi = phi_a
    exactness = background.norm(twisted_derivative(phi, background.h) - data.rho)
    off_grade = background.norm(phi - phi.map_values(lambda v: pair.projector(0, n - 2) @ v))
    info = {
        "phi_norm": background.norm(phi),
        "phi_agreement": agreement,
        "phi_exactness": exactness,
        "phi_off_grade": off_grade,
    }
    if check and agreement > tol_agree * scale:
        raise ValueError(f"the two potential expressions disagree ({agreement:.3e})")
    if check and exactness > tol_exact * scale:
        raise ValueError(f"potential does not reproduce the obstruction ({exactness:.3e})")
    if check and off_grade > tol_agree * scale:
        raise ValueError(f"potential leaves the middle component ({off_grade:.3e})")
    return phi, info


def _beta_basis(pair: HermitianPair) -> tuple[list[np.ndarray], np.ndarray]:
    """so-basis of ``V_-^{1,0} (x) V_+^{0,1}`` and its spinor representations."""
    lm = pair.sector_frame(False, True)
    lp = pair.sector_frame(True, False)
    basis = []
    for i in range(lm.shape[1]):
        for j in range(lp.shape[1]):
            basis.append(so_from_pair(lm[:, i], lp[:, j]))
    spins = np.stack([spin_lie_action(alpha) for alpha in basis])
    return basis, spins


def beta_from_phi(
    phi: FourierField,
    psi,
    pair: HermitianPair,
    *,
    tol: float = 1e-8,
) -> FourierOperatorField:
    """so-valued field ``beta`` with ``beta . psi = phi``.

    ``beta`` takes values in the span of products of the minus-holomorphic
    with the plus-antiholomorphic frame, the unique sector that maps the
    top antiholomorphic line onto ``U^{0,n-2}``.  The (constant) seed must
    be a single spinor; each frequency of ``phi`` is solved independently
    and an unrepresentable or rank-deficient system raises.
    """
    if isinstance(psi, FourierField):
        if len(psi.coeffs) != 1 or (0,) * psi.torus_dim not in psi.coeffs:
            raise ValueError("the seed spinor must be constant")
        seed = psi[(0,) * psi.torus_dim]
    else:
        seed = np.asarray(psi, dtype=complex)
    basis, spins = _beta_basis(pair)
    basis_stack = np.stack(basis)
    M = np.column_stack([S @ seed for S in spins])
    sv = np.linalg.svd(M, compute_uv=False)
    if sv.size == 0 or sv[-1] <= 1e-12 * sv[0]:
        raise ValueError("seed spinor gives a singular correction system")
    pinv = np.linalg.pinv(M, rcond=1e-12)

    out = FourierOperatorField(pair.m, 2 * pair.m)
    for k, v in sorted(phi.coeffs.items()):
        c = pinv @ v
        resid = float(np.linalg.norm(M @ c - v))
        if resid > tol * max(float(np.linalg.norm(v)), 1e-300):
            raise ValueError(f"potential at frequency {k} is not in the correction range ({resid:.3e})")
        out.coeffs[k] = np.tensordot(c, basis_stack, axes=(0, 0))
    return out.prune(0.0)


# ---------------------------------------------------------------------------
# the full induction


@dataclass
class SolutionReport:
    """Everything the induction produced, plus the data needed to verify it."""

    pair: HermitianPair
    order_cap: int
    psi0: FourierField
    psi_norm: float
    factors: list[SeriesSoField]
    b: SeriesSoField
    betas: list[FourierOperatorField]
    beta_norms: list[float]
    rho_norms: list[float]
    phi_info: list[dict[str, float]]
    component_closed: list[dict[str, float]]
    cross_sums: list[float]
    outside_norms: list[float]
    grading_defects: list[float]
    precondition_defects: list[float]
    residual_norms: list[float]
    support: tuple
    psi_series: SeriesSpinorField
    ok: bool
    order_wall_ms: list[float] = field(default_factory=list)

    def as_dict(self) -> dict:
        """JSON-ready summary; deliberately excludes timings and raw arrays."""
        orders = []
        for j in range(1, self.order_cap + 1):
            i = j - 1
            orders.append(
                {
                    "order": j,
                    "rho_norm": self.rho_norms[i],
                    "beta_norm": self.beta_norms[i],
                    "outside_norm": self.outside_norms[i],
                    "cross_sum": self.cross_sums[i],
                    "component_closed": dict(self.component_closed[i]),
                    "grading_defect": self.grading_defects[i],
                    **self.phi_info[i],
                    "residual_norm": self.residual_norms[j],
                }
            )
        return {
            "torus_dim": self.pair.m,
            "order_cap": self.order_cap,
            "psi_norm": self.psi_norm,
            "support_size": len(self.support),
            "precondition_defects": list(self.precondition_defects),
            "orders": orders,
            "residual_norms": list(self.residual_norms),
            "ok": bool(self.ok),
        }


def run_deformation(
    a,
    pair: HermitianPair,
    *,
    order_cap: int = 4,
    psi=None,
    tol_order: float = 1e-9,
    tol_checks: float = 1e-10,
    rcond: float = 1e-10,
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
    support = support_closure(factors + [seed], order_cap, torus_dim)
    background = TorusBackground(pair, support, rcond=rcond)
    psi_norm = background.norm(seed)
    if psi_norm <= 0:
        raise ValueError("seed spinor vanishes")

    seed_closed = background.norm(twisted_derivative(seed))
    if seed_closed > tol_checks * psi_norm:
        raise IntegrabilityError(f"seed spinor is not closed ({seed_closed:.3e})", order=0)

    # the defects measure the transported generator of the first structure,
    # so they scale with it and not with the seed
    defects = first_structure_defects(factors, pair, order_cap)
    gen_norm = float(np.linalg.norm(pair.canonical_generator(1)))
    for j, d in enumerate(defects):
        if d > tol_checks * gen_norm:
            raise IntegrabilityError(
                f"deformed first structure loses integrability at order {j} ({d:.3e})", order=j
            )

    b = SeriesSoField.zero(torus_dim)
    betas: list[FourierOperatorField] = []
    beta_norms, rho_norms, phi_infos = [], [], []
    closed_list, cross_list, outside_list, grading_list = [], [], [], []
    wall_ms: list[float] = []
    n = pair.n
    mid_proj = pair.projector(0, n - 2)

    for order in range(1, order_cap + 1):
        t0 = time.perf_counter()
        data = order_residual(order, factors, b, background, seed, tol=tol_checks, check=True)
        phi, info = solve_phi(data, background, tol_agree=tol_checks, tol_exact=tol_order, check=True)
        beta = beta_from_phi(-1.0 * phi, seed, pair)

        acted = beta.map_values(spin_lie_action).act(seed) if beta.coeffs else FourierField(torus_dim, seed.value_dim)
        grading = background.norm(acted - acted.map_values(lambda v: mid_proj @ v))
        if grading > tol_checks * psi_norm:
            raise ValueError(f"order-{order} correction acts outside the middle component ({grading:.3e})")

        b = b.with_term(order, beta + beta.conj())
        betas.append(beta)
        beta_norms.append(beta.coeff_norm())
        rho_norms.append(data.rho_norm)
        phi_infos.append(info)
        closed_list.append(data.component_closed)
        cross_list.append(data.cross_sum)
        outside_list.append(data.outside_norm)
        grading_list.append(grading)
        wall_ms.append(1e3 * (time.perf_counter() - t0))

    psi_series = series_exp_action(factors, b, seed, order_cap)
    residual_norms = [
        background.norm(twisted_derivative(psi_series.term(j))) for j in range(order_cap + 1)
    ]
    bad = [j for j in range(1, order_cap + 1) if residual_norms[j] > tol_order * psi_norm]
    report = SolutionReport(
        pair=pair,
        order_cap=order_cap,
        psi0=seed,
        psi_norm=psi_norm,
        factors=factors,
        b=b,
        betas=betas,
        beta_norms=beta_norms,
        rho_norms=rho_norms,
        phi_info=phi_infos,
        component_closed=closed_list,
        cross_sums=cross_list,
        outside_norms=outside_list,
        grading_defects=grading_list,
        precondition_defects=defects,
        residual_norms=residual_norms,
        support=support,
        psi_series=psi_series,
        ok=not bad,
        order_wall_ms=wall_ms,
    )
    if bad:
        raise ValueError(
            f"compensated residuals stay above tolerance at orders {bad}: "
            + ", ".join(f"{residual_norms[j]:.3e}" for j in bad)
        )
    return report


# ---------------------------------------------------------------------------
# pointwise verification at a finite parameter


# Taylor terms allowed per step of the jet exponential.  Each step has
# 1-norm at most one, so roundoff is reached after about 18 terms; hitting
# the cap means the terms stopped decreasing (NaN or overflow inside the sum).
_JET_TERM_CAP = 40


def _exp_jet(S: np.ndarray, G: np.ndarray, v: np.ndarray, D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One factor applied to a first-order jet: ``(exp(S) v, exp(S) D_d + L(S, G_d) v)``.

    ``G`` stacks the directional derivatives ``G_d`` of the exponent and
    ``D`` the matching jet components.  This is ``exp([[S, G_d], [0, S]])``
    acting on ``[D_d; v]``, summed as a Taylor series on vectors after
    splitting into equal steps of 1-norm at most one.
    """
    norm = np.abs(S).sum(axis=0).max() + np.abs(G).sum(axis=1).max(axis=1).sum()
    if not np.isfinite(norm):
        raise ValueError("jet exponential needs a finite exponent")
    steps = max(1, int(np.ceil(norm)))
    S, G = S / steps, G / steps
    m = G.shape[0]
    x = np.vstack([D, v[None]])
    for _ in range(steps):
        acc, term = x, x
        for k in range(1, _JET_TERM_CAP + 1):
            nxt = term @ S.T
            nxt[:m] += G @ term[m]
            term = nxt / k
            acc = acc + term
            if np.abs(term).sum() <= np.finfo(float).eps * np.abs(acc).sum():
                break
        else:
            raise ValueError(f"jet exponential did not converge in {_JET_TERM_CAP} terms")
        x = acc
    return x[m], x[:m]


def _stacked_norm(X: np.ndarray) -> float:
    """Largest Frobenius norm over a stack of matrices."""
    return float(np.linalg.norm(X, axis=(-2, -1)).max())


def verify_gk_at_t(
    report: SolutionReport,
    t: float,
    *,
    count: int = 16,
    seed: int = 0,
    points: np.ndarray | None = None,
) -> dict[str, float]:
    """Check the deformed pair at a finite parameter on a sample grid.

    Conjugates both structures by the pointwise exponentials (compensating
    family included), verifies the structure axioms, their commutation, the
    positivity of the induced metric, and measures the sup of the exterior
    derivative of the transported spinor over the sample, which should
    scale like t**(order_cap + 1).

    The orthogonal side (2m x 2m) is batched over the points.  The spinor
    side forms no 2^m x 2^m exponential: with ``S = spin(alpha_f(x))`` and
    ``G_d = spin(d_d alpha_f(x))``, each factor maps the first-order jet
    ``(v, D_1..D_m)`` of ``exp(alpha_1) ... exp(alpha_F) psi0`` to
    ``(exp(S) v, exp(S) D_d + L(S, G_d) v)``, the action of
    ``exp([[S, G_d], [0, S]])`` on ``[D_d; v]`` (Van Loan, IEEE TAC 1978).
    Factors are applied right to left from ``(psi0, 0)``.  The action is a
    Taylor series on vectors after splitting into ``ceil(|S|_1 + sum_d
    |G_d|_1)`` steps of 1-norm at most one (Al-Mohy & Higham, SISC 2011).
    Points are processed one at a time, so memory holds one point's m + 1
    spin matrices per family whatever the sample size.  Then
    ``psi_t = v`` and ``d psi_t = sum_d dx_d ^ D_d``.
    """
    pair = report.pair
    m = pair.m
    if points is None:
        if count < 1:
            raise ValueError("verification needs at least one sample point")
        points = uniform_points(np.random.default_rng(seed), count, m)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[0] == 0:
        raise ValueError("verification needs at least one sample point")
    if points.ndim != 2 or points.shape[1] != m:
        raise ValueError(f"sample points must have {m} coordinates, got shape {points.shape}")
    families = list(report.factors) + [report.b]
    vals = [f.evaluate(t, points) for f in families]
    grads = [f.evaluate_gradient(t, points) for f in families]

    # orthogonal side, stacked over the points
    exps = [scipy.linalg.expm(v) for v in vals]
    E_no_b = np.eye(2 * m, dtype=complex)
    for ex in exps[:-1]:
        E_no_b = E_no_b @ ex
    E = E_no_b @ exps[-1]
    Einv = np.linalg.inv(E)
    J1t = (E @ pair.J1 @ Einv).real
    J2t = (E @ pair.J2 @ Einv).real
    J1_only_a = (E_no_b @ pair.J1 @ np.linalg.inv(E_no_b)).real

    eye = np.eye(2 * m)
    P = pairing_matrix(m)
    PJ1, PJ2 = P @ J1t, P @ J2t
    Gt = -J1t @ J2t
    Msym = P @ Gt
    structure_residual = max(
        _stacked_norm(J1t @ J1t + eye),
        _stacked_norm(J2t @ J2t + eye),
        _stacked_norm(PJ1 + PJ1.swapaxes(-1, -2)),
        _stacked_norm(PJ2 + PJ2.swapaxes(-1, -2)),
    )
    commutation = _stacked_norm(J1t @ J2t - J2t @ J1t)
    involution = _stacked_norm(Gt @ Gt - eye)
    stabilizer_defect = _stacked_norm(J1t - J1_only_a)
    min_eig = float(np.linalg.eigvalsh(0.5 * (Msym + Msym.swapaxes(-1, -2))).min())

    # spinor side, one point at a time
    W = wedge_matrices(m)
    psi0 = report.psi0[(0,) * m]
    derivative_sup = 0.0
    psi_sup = 0.0
    for p in range(points.shape[0]):
        v, D = psi0, np.zeros((m, psi0.size), dtype=complex)
        for f in reversed(range(len(families))):
            S = spin_lie_action(vals[f][p])
            G = np.stack([spin_lie_action(grads[f][d][p]) for d in range(m)])
            v, D = _exp_jet(S, G, v, D)
        psi_sup = max(psi_sup, float(np.linalg.norm(v)))
        dpsi = np.einsum("dij,dj->i", W, D)
        derivative_sup = max(derivative_sup, float(np.linalg.norm(dpsi)))

    return {
        "t": float(t),
        "points": int(points.shape[0]),
        "structure_residual": structure_residual,
        "commutation": commutation,
        "involution": involution,
        "stabilizer_defect": stabilizer_defect,
        "metric_min_eig": min_eig,
        "metric_positive": bool(min_eig > 0),
        "derivative_sup": derivative_sup,
        "psi_sup": psi_sup,
    }


# ---------------------------------------------------------------------------
# cross-check route and input families


def conjugated_residual_series(a, b, psi, order_cap: int) -> SeriesSpinorField:
    """Coefficients of ``exp(-b) exp(-a) d exp(a) exp(b) psi``.

    Independent route to the per-order obstruction: as long as the residual
    vanishes below a given order, its coefficient there matches the direct
    one.  The series of ``series_exp_action`` is differentiated termwise, then
    the factors act again left to right with negated spin terms.
    """
    moved = series_exp_action(a, b, psi, order_cap)
    out = [twisted_derivative(f) for f in moved.terms]
    for f in _factor_list(a) + _factor_list(b):
        out = _exp_apply([-1.0 * x for x in f.spin_terms()], out, FourierOperatorField.act, order_cap)
    return SeriesSpinorField(moved.torus_dim, out)


def conjugated_structure_series(generator: FourierOperatorField, J: np.ndarray, order_cap: int) -> list[FourierOperatorField]:
    """Coefficients of ``exp(t C) J exp(-t C)``: iterated brackets over j factorial."""
    return structure_series_of_family(SeriesSoField.linear(generator.torus_dim, generator, check=False), J, order_cap)


def structure_series_of_family(a, J: np.ndarray, order_cap: int) -> list[FourierOperatorField]:
    """Coefficients of ``exp(a_t) J exp(-a_t)`` for a series family.

    Each factor, right to left, acts on the structure series by the series
    exponential of its bracket ``[x, y] = x y - y x``.
    """
    factors = _factor_list(a)
    if not factors:
        raise ValueError("need at least one series family")
    out = [FourierOperatorField.constant(factors[0].torus_dim, np.asarray(J, dtype=complex))]
    for f in reversed(factors):
        out = _exp_apply(f.terms, out, lambda x, y: x @ y - y @ x, order_cap)
    return out


def commutant_part(J: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Component of an so element commuting with the structure."""
    return 0.5 * (alpha - J @ alpha @ J)


def anticommutant_part(J: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Component of an so element anticommuting with the structure."""
    return 0.5 * (alpha + J @ alpha @ J)


def extract_transverse_family(
    J: np.ndarray,
    target: list[FourierOperatorField],
    order_cap: int,
    *,
    tol: float = 1e-8,
) -> SeriesSoField:
    """Exponents anticommuting with ``J`` that reproduce a structure series.

    ``target[j]`` are the coefficients of a conjugated-structure family with
    ``target[0] = J``.  Solving order by order, the order-j update is fixed
    by ``[a_j, J] = D_j`` with ``D_j`` the yet-unmatched coefficient, which
    requires ``D_j`` to anticommute with ``J``; a commutant component above
    tolerance means the input series is not such a family and raises.
    """
    J = np.asarray(J, dtype=float)
    torus_dim = target[0].torus_dim
    terms: list[FourierOperatorField | None] = [None]
    for j in range(1, order_cap + 1):
        partial = structure_series_of_family(
            SeriesSoField(torus_dim, terms, check=False), J, j
        )
        D = target[j] - partial[j]
        obstruction = D.map_values(lambda c: commutant_part(J, c)).coeff_norm()
        if obstruction > tol * max(1.0, D.coeff_norm()):
            raise ValueError(
                f"order-{j} structure coefficient has a commutant component ({obstruction:.3e})"
            )
        a_j = D.map_values(lambda c: -0.5 * (c @ J)).prune(0.0)
        for k, c in a_j.coeffs.items():
            if so_residual(c) > tol * max(1.0, float(np.linalg.norm(c))):
                raise ValueError(f"extracted order-{j} exponent at {k} leaves so(m,m)")
        terms.append(a_j)
    return SeriesSoField(torus_dim, terms, check=False)
