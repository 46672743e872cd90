"""Reference routes the test modules share.

Each helper here is a second, independent (or simply slower) route to a
quantity the library computes another way, or a convenience for writing
test data; no path of the library or the command line needs them.
"""

import argparse
import operator
import sys
import types
from functools import reduce
from pathlib import Path

import numpy as np

from genkahler import cli
from genkahler import clifford as cl
from genkahler import hodge as gh
from genkahler import solver as sol
from genkahler.fields import (
    FourierField,
    FourierOperatorField,
    derivative_rows,
    dual_l_frames,
    require_three_form,
    three_form_spinor,
    uniform_points,
)
from genkahler.structures import _over_first_largest, iso_projectors, require_gcs


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DEFORM_WORKLOADS = ["deform-m4-k8", "deform-m8-k2", "deform-m6-k5-blas2"]


def workload_config(name, monkeypatch):
    """The seed-0 config of a benchmark workload."""
    # executed from source, so no bytecode is written next to the benchmark;
    # its dataclass needs the module registered
    workloads = types.ModuleType("_perfbench_workloads")
    monkeypatch.setitem(sys.modules, workloads.__name__, workloads)
    source = PERFBENCH / "workloads.py"
    exec(compile(source.read_text(encoding="utf-8"), str(source), "exec"), workloads.__dict__)
    return workloads.make_config(workloads.WORKLOADS[name], 0)


def solve_config(doc, order_cap):
    """The solution report of a deform config that sets no tolerance, at
    ``order_cap``, built as ``genkahler deform`` builds it."""
    pair = cli.build_background(doc, doc["dimension"])
    seed, _ = cli.build_seed(doc, pair)
    return sol.run_deformation(cli.build_deformation(doc, pair, order_cap), pair, order_cap=order_cap, psi=seed)


def map_one_forms(doc, change, carry=None):
    """A copy of a deform config of exact-b-field families with each mode's
    ``(cos, sin)`` replaced by ``change(frequency, cos, sin)`` (arrays) and,
    given ``carry``, its frequency by ``carry(frequency)``."""
    def mapped(mode):
        zero = [0.0] * len(mode["frequency"])
        k = np.array(mode["frequency"])
        cos, sin = change(k, np.array(mode.get("cos", zero)), np.array(mode.get("sin", zero)))
        frequency = mode["frequency"] if carry is None else carry(k).tolist()
        return {"frequency": frequency, "cos": cos.tolist(), "sin": sin.tolist()}

    families = [{**item, "one_form": [mapped(mode) for mode in item["one_form"]]} for item in doc["deformation"]]
    return {**doc, "deformation": families}


def translated(doc, x0):
    """The config of ``x -> xi(x + x0)``: each mode's cos/sin pair rotated by
    ``theta = k.x0``, so its coefficient at ``k`` gains ``e^{+i theta}``."""
    def rotate(k, cos, sin):
        theta = float(k @ x0)
        return np.cos(theta) * cos + np.sin(theta) * sin, np.cos(theta) * sin - np.sin(theta) * cos

    return map_one_forms(doc, rotate)


def scaled(doc, c):
    """The config of the one-form ``c xi``."""
    return map_one_forms(doc, lambda k, cos, sin: (c * cos, c * sin))


def lattice_mapped(doc, axes, coefficients=True):
    """The config of the one-form pulled back by the axis map ``P`` with
    ``P e_i = e_{axes[i]}``: each mode's frequency and its coefficient
    vectors carried to ``P^T`` (entry i read from entry ``axes[i]``).  With
    ``coefficients=False`` only the frequencies move, a broken pullback."""
    carry = lambda v: v[list(axes)]
    move = carry if coefficients else (lambda v: v)
    return map_one_forms(doc, lambda k, cos, sin: (move(cos), move(sin)), carry)


def field_gap(got, want, phase):
    """``|got - phase(k) want|`` over ``|want|`` (Frobenius over every
    frequency ``k`` of either operator field)."""
    keys = set(got.coeffs) | set(want.coeffs)
    diff = sum(np.linalg.norm(got[k] - phase(k) * want[k]) ** 2 for k in keys)
    return float(np.sqrt(diff)) / want.coeff_norm()


def form_vector(m, components):
    """Build a form vector from ``{(i1, .., ik): coeff}`` with 1-based indices.

    Index tuples may come in any order; odd permutations flip the sign.
    ``()`` is the constant term.

    >>> form_vector(2, {(): 1.0, (2, 1): 3.0})  # 1 - 3 dx1^dx2
    array([ 1.+0.j,  0.+0.j,  0.+0.j, -3.+0.j])
    """
    out = np.zeros(cl.spinor_dim(m), dtype=complex)
    for idxs, coeff in components.items():
        if len(set(idxs)) != len(idxs):
            raise ValueError(f"repeated index in {idxs}")
        if idxs and not all(1 <= i <= m for i in idxs):
            raise ValueError(f"indices {idxs} out of range 1..{m}")
        # parity of the permutation sorting idxs ascending
        inversions = sum(a > b for i, a in enumerate(idxs) for b in idxs[i + 1 :])
        bits = sum(1 << (i - 1) for i in idxs)
        out[bits] += (-1) ** inversions * coeff
    return out


def two_form_spinor(two_form):
    """The 2-form ``sum_{i<j} B[i,j] dx_{i+1} ^ dx_{j+1}`` as a form vector."""
    B = np.asarray(two_form, dtype=complex)
    m = B.shape[0]
    out = np.zeros(cl.spinor_dim(m), dtype=complex)
    for i in range(m):
        for j in range(i + 1, m):
            out[(1 << i) | (1 << j)] = B[i, j]
    return out


def spin_flip_apply(weights, x):
    """``out[..., i] = sum_f W[..., f, i] x[..., i ^ f]`` by one einsum: the
    operators of flip-mask weights ``(..., F, 2**m)`` on form vectors
    ``(..., 2**m)``, the two broadcast against each other."""
    source = cl._spin_flip_table(weights.shape[-1].bit_length() - 1)[0]
    return np.einsum("...fi,...fi->...i", weights, np.take(x, source, axis=-1))


def field_values(field, points):
    """Values of a Fourier field at the points, ``(N, *coefficient shape)``,
    summed one frequency at a time."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    shape = field.coeff_shape(field.value_dim)
    out = np.zeros((points.shape[0], *shape), dtype=complex)
    for k, c in sorted(field.coeffs.items()):
        phase = np.exp(1j * points @ np.asarray(k, dtype=float))
        out += phase.reshape(-1, *(1,) * len(shape)) * c
    return out


def is_real(field, tol=1e-12):
    """``||f - conj f|| <= tol * max(1, ||f||)`` on the coefficients."""
    return (field - field.conj()).coeff_norm() <= tol * max(1.0, field.coeff_norm())


def conjugated_residual_series(a, b, psi, order_cap):
    """Coefficients of ``exp(-b) exp(-a) d exp(a) exp(b) psi``.

    Independent route to the per-order obstruction: as long as the residual
    vanishes below a given order, its coefficient there matches the direct
    one.  The series of ``series_exp_action`` is differentiated termwise, then
    the factors act again left to right with negated spin terms.
    """
    factors, support, parity, moved = sol._seeded_series(a, b, psi, order_cap)
    derivs = [None if c is None else sol._half(derivative_rows(support.frequencies, sol._widen(c, parity)), 1 - parity) for c in moved]
    inverse = [[None if x is None else (x[0], -x[1]) for x in f.spin_stacks(1 - parity)] for f in reversed(factors)]
    return sol._spinor_fields(support, sol._SeriesExp(support, inverse, derivs, order_cap, 1 - parity).fill_all(), 1 - parity)


def merged_exponents(exponents, coeffs):
    """The distinct exponent rows of ``np.unique(axis=0)`` and their summed
    coefficients, through one 0/1 merge matrix."""
    exponents = np.asarray(exponents, dtype=int)
    coeffs = np.asarray(coeffs, dtype=complex)
    unique, inverse = np.unique(exponents, axis=0, return_inverse=True)
    merge = np.zeros((len(unique), len(coeffs)))
    merge[inverse.reshape(-1), np.arange(len(coeffs))] = 1.0
    n = coeffs.shape[-1]
    return unique, (merge @ coeffs.reshape(len(coeffs), n * n)).reshape(-1, n, n)


def set_support_closure(weighted, order_cap, torus_dim):
    """``support_closure`` by recursion over Python sets of tuples:
    ``reach[c] = reach[c - 1] | {f + k for f in reach[c - w]}``."""
    steps = [(int(w), tuple(int(v) for v in k)) for w, k in weighted if 1 <= w <= order_cap]
    reach = [{(0,) * torus_dim}]
    for c in range(1, order_cap + 1):
        moved = ({tuple(a + b for a, b in zip(f, k)) for f in reach[c - w]} for w, k in steps if w <= c)
        reach.append(reach[c - 1].union(*moved))
    return tuple(sorted(reach[-1]))


def int64_tables(rng, m):
    """Random int64 ``(R, m)`` tables: small entries with many repeated rows,
    entries over the whole int64 range, entries at and next to both of its
    ends, and entries over +-2**20, whose distinct values per column span a
    mixed-radix box of more than 2**63 cells at m = 8."""
    ends = np.iinfo(np.int64)
    edge = np.array([ends.min, ends.min + 1, -1, 0, 1, ends.max - 1, ends.max], dtype=np.int64)
    return [
        rng.integers(-3, 4, size=(80, m)),
        rng.integers(ends.min, ends.max, size=(40, m), endpoint=True),
        rng.choice(edge, size=(60, m)),
        rng.integers(-(2**20), 2**20, size=(1500, m)),
    ]


def lexsort_rows(table):
    """``hodge._sorted_rows`` by ``np.lexsort`` on the whole table (first
    column primary, equal rows kept in their given order) and a row-wise
    comparison of neighbours for the starts of the groups."""
    order = np.lexsort(table.T[::-1]) if table.size else np.arange(0)
    ordered = table[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return order, np.flatnonzero(first)


def lexsort_support(frequencies):
    """The table of ``hodge.Support(frequencies)`` through ``lexsort_rows``."""
    table = gh._frequency_table(frequencies)
    order, starts = lexsort_rows(table)
    return table[order[starts]]


def lexsort_lookup(table, keys):
    """``Support.rows`` of a sorted distinct table by one ``lexsort_rows``
    pass over the table and the keys, in which each table row comes first
    in its run of equal rows; -1 for an absent key."""
    order, starts = lexsort_rows(np.concatenate([table, keys]))
    head = order[starts]
    out = np.empty(len(order), dtype=np.intp)
    out[order] = np.repeat(np.where(head < len(table), head, -1), np.diff(starts, append=len(order)))
    return out[len(table) :]


def lexsort_shift_table(table, steps):
    """``Support.shifted_rows`` by ``lexsort_lookup`` of the whole
    ``(P * S, m)`` table of shifted rows (``hodge._shifted_rows``)."""
    return lexsort_lookup(table, gh._shifted_rows(table, steps)).reshape(len(steps), -1)


def lexsort_support_closure(weighted, order_cap, torus_dim):
    """The table of ``support_closure`` with every reach deduplicated by
    ``lexsort_support``."""
    steps = {}
    for w, k in weighted:
        if 1 <= w <= order_cap:
            steps.setdefault(int(w), []).append(k)
    reach = [np.zeros((1, torus_dim), dtype=np.int64)]
    for c in range(1, order_cap + 1):
        moved = [gh._shifted_rows(reach[c - w], ks) for w, ks in steps.items() if w <= c]
        reach.append(lexsort_support(np.concatenate([reach[c - 1], *moved])))
    return reach[-1]


def series_jet(family, t, points):
    """``SeriesSoField.jet`` with the gradient products of all directions
    formed at once, ``(m, N, 2m, 2m)`` per order."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = family.value_dim
    values = np.zeros((len(points), n, n), dtype=complex)
    grads = np.zeros((family.torus_dim, *values.shape), dtype=complex)
    for j, stack in enumerate(family.stacks):
        if stack is not None:
            k = np.array(stack[0], dtype=float)
            phase = np.exp(1j * points @ k.T)
            values += t**j * np.tensordot(phase, stack[1], 1)
            grads += t**j * np.tensordot(1j * k.T[:, None] * phase, stack[1], 1)
    return values, grads


def per_point_exp_jet(W, v, D, budget):
    """``solver._exp_jet`` for one point: ``W`` ``(m + 1, F, 2**m)``, ``v``
    ``(2**m,)`` and ``D`` ``(m, 2**m)`` of both form parities, one Taylor
    loop over ``x = [D; v]`` with the dense ``S`` and the ``G_d`` applied to
    ``v``'s row by ``spin_flip_apply``; returns ``(v, D, steps)``."""
    norms = np.abs(cl.spin_flip_dense(W)).sum(axis=-2).max(axis=-1)
    norm = norms[0] + norms[1:].sum()
    if not np.isfinite(norm):
        raise ValueError("jet exponential needs a finite exponent")
    steps = max(1, int(np.ceil(norm)))
    if steps > budget:
        raise ValueError(f"jet exponential needs {steps} steps, above the {budget} left of the budget of {sol._JET_STEP_BUDGET}")
    m = len(W) - 1
    S = cl.spin_flip_dense(W[0])
    x = np.vstack([D, v[None]])
    for _ in range(steps):
        acc, term = x, x
        for k in range(1, sol._JET_TERM_CAP + 1):
            nxt = term @ S.T
            nxt[:m] += spin_flip_apply(W[1:], term[m])
            term = nxt / (k * steps)
            acc = acc + term
            if np.abs(term).sum() <= np.finfo(float).eps * np.abs(acc).sum():
                break
        else:
            raise ValueError(f"jet exponential did not converge in {sol._JET_TERM_CAP} terms")
        x = acc
    return x[m], x[:m], steps


def per_point_verify_gk_at_t(report, t, *, count=16, seed=0):
    """``solver.verify_gk_at_t`` with its spinor side run one point and one
    family at a time (``per_point_exp_jet``), under the same step budget."""
    pair = report.pair
    m = pair.m
    points = uniform_points(seed, count, m)
    families = list(report.factors) + [report.b]
    vals, grads = zip(*(f.jet(t, points) for f in families))
    exps = [cl._expm(v) for v in vals]
    E_no_b = np.eye(2 * m, dtype=complex)
    for ex in exps[:-1]:
        E_no_b = E_no_b @ ex
    E = E_no_b @ exps[-1]
    Einv = sol._pairing_inverse(E)
    J1t = (E @ pair.J1 @ Einv).real
    J2t = (E @ pair.J2 @ Einv).real
    J1_only_a = (E_no_b @ pair.J1 @ sol._pairing_inverse(E_no_b)).real
    eye = np.eye(2 * m)
    P = cl.pairing_matrix(m)
    PJ1, PJ2 = P @ J1t, P @ J2t
    Gt = -J1t @ J2t
    Msym = P @ Gt
    out = {
        "t": float(t),
        "points": int(count),
        "structure_residual": max(
            sol._stacked_norm(J1t @ J1t + eye),
            sol._stacked_norm(J2t @ J2t + eye),
            sol._stacked_norm(PJ1 + PJ1.swapaxes(-1, -2)),
            sol._stacked_norm(PJ2 + PJ2.swapaxes(-1, -2)),
        ),
        "commutation": sol._stacked_norm(J1t @ J2t - J2t @ J1t),
        "involution": sol._stacked_norm(Gt @ Gt - eye),
        "stabilizer_defect": sol._stacked_norm(J1t - J1_only_a),
        "metric_min_eig": float(np.linalg.eigvalsh(0.5 * (Msym + Msym.swapaxes(-1, -2))).min()),
        "metric_positive": True,
        "derivative_sup": 0.0,
        "psi_sup": 0.0,
    }
    wedges = np.eye(2 * m)[m:]
    psi0 = report.psi0[(0,) * m]
    budget = sol._JET_STEP_BUDGET
    for p in range(count):
        v, D = psi0, np.zeros((m, psi0.size), dtype=complex)
        for f in reversed(range(len(families))):
            W = cl.spin_flip_weights(np.concatenate([vals[f][p][None], grads[f][:, p]]))
            v, D, steps = per_point_exp_jet(W, v, D, budget)
            budget -= steps
        out["psi_sup"] = max(out["psi_sup"], float(np.linalg.norm(v)))
        out["derivative_sup"] = max(out["derivative_sup"], float(np.linalg.norm(cl.clifford_act(wedges, D).sum(axis=0))))
    return out


def courant_bracket(e1: FourierField, e2: FourierField, h: np.ndarray | None = None) -> FourierField:
    """Non-skew bracket of sections of the doubled bundle, twisted by ``h``.

    Acts as the Lie derivative along the first argument's vector part on the
    second argument, minus contraction of the first's one-form differential,
    plus the three-form contracted with both vector parts.
    """
    if e1.torus_dim != e2.torus_dim or e1.value_dim != e2.value_dim:
        raise ValueError("bracket operands must match")
    m = e1.torus_dim
    if e1.value_dim != 2 * m:
        raise ValueError("bracket needs sections of the doubled bundle")
    if h is not None:
        h = require_three_form(h, m)
    out = FourierField(m, 2 * m)
    for k, u in sorted(e1.coeffs.items()):
        kv = np.asarray(k, dtype=float)
        X, xi = u[:m], u[m:]
        for l, v in sorted(e2.coeffs.items()):
            lv = np.asarray(l, dtype=float)
            Y, eta = v[:m], v[m:]
            lX = lv @ X
            kY = kv @ Y
            vec = 1j * (lX * Y - kY * X)
            cov = 1j * (lX * eta + (eta @ X) * kv - kY * xi + (xi @ Y) * kv)
            if h is not None:
                cov = cov - np.einsum("abj,a,b->j", h, X, Y)
            key = tuple(ki + li for ki, li in zip(k, l))
            acc = out.coeffs.get(key)
            contrib = np.concatenate([vec, cov])
            out.coeffs[key] = contrib if acc is None else acc + contrib
    return out


def bracket_nijenhuis(J, h=None):
    """``fields.nijenhuis_tensor`` through the bracket: ``N[a, b, c] = -2
    <[[lbar_a, lbar_b]], lbar_c>`` over the constant sections ``lbar_a``."""
    J = require_gcs(J)
    m = J.shape[0] // 2
    _, lbar = dual_l_frames(J)
    sections = [FourierField.constant(m, lbar[:, a]) for a in range(m)]
    N = np.zeros((m, m, m), dtype=complex)
    zero = (0,) * m
    for a in range(m):
        for b in range(m):
            br = courant_bracket(sections[a], sections[b], h)[zero]
            for c in range(m):
                N[a, b, c] = -2.0 * cl.natural_pairing(br, lbar[:, c])
    return N


def set_support(frequencies):
    """``hodge.Support`` as a sorted set of tuples of Python ints."""
    return tuple(sorted({tuple(int(v) for v in k) for k in frequencies}))


def dict_shifted(support, p):
    """The row of ``k + p`` for every frequency ``k`` of the support, -1
    outside it, by one dict lookup per row."""
    index = {k: row for row, k in enumerate(support)}
    return np.array([index.get(tuple(a + b for a, b in zip(k, p)), -1) for k in support], dtype=np.intp)


def dict_pack(support, field):
    """``Support.pack`` by one dict lookup per frequency of the field."""
    index = {k: row for row, k in enumerate(support)}
    freqs, coeffs = field.stacked()
    out = np.zeros((len(support), *coeffs.shape[1:]), dtype=complex)
    out[[index[k] for k in freqs]] = coeffs
    return out


def l2_inner(f, g, gram):
    """Hermitian inner product of two fields packed over one support,
    conjugate-linear in the second argument; ``gram`` is ``dense_gram``."""
    return complex(np.vdot(g, f @ gram.T))


def with_constant(op, constant):
    """``op`` plus the operator whose block is ``constant`` at every frequency:
    with a linear ``op``, a mixed-degree (affine) operator."""
    zero = np.zeros((1, op.torus_dim), dtype=int)
    return op + gh.BlockOperator(op.support, zero, np.asarray(constant)[None])


def affine_twist_residuals(pair, h):
    """``verify-hodge``'s component sum and torsion levels on a twisted
    background by affine coefficient operators: the twisted derivative
    ``sum_j kappa_j W_j + H^`` and all 16 graded components, each a
    ``BlockOperator`` with m linear coefficients (zero for the +-3 shifts)
    and the constant part ``dense_shift_part(pair, H^, shift)``, summed and
    normed over all their coefficients; each over the derivative's
    coefficient norm."""
    m = pair.m
    support = gh.Support([(0,) * m])
    wedge = cl.wedge_operator(three_form_spinor(h))
    D = with_constant(gh.derivative_operator(m, support), wedge)
    zero = gh.BlockOperator(support, np.eye(m, dtype=int), np.zeros((m, *wedge.shape)))
    full = None
    levels = [0.0, 0.0]
    for shift in gh.COMPONENT_SHIFTS:
        linear = gh.component_operator(shift, pair, support) if shift in gh.DELTA_SHIFTS.values() else zero
        comp = with_constant(linear, dense_shift_part(pair, wedge, shift))
        full = comp if full is None else full + comp
        for axis in (0, 1):
            if abs(shift[axis]) == 3:
                levels[axis] = max(levels[axis], comp.coeff_norm())
    scale = D.coeff_norm()
    return (D - full).coeff_norm() / scale, levels[0] / scale, levels[1] / scale


def dense_splitting_residuals(pair):
    """The residuals of ``verify-hodge``'s splitting checks on an untwisted
    background by dense coefficient products (``BlockOperator.__matmul__``
    and ``hodge.laplacian``), each over the scale the command divides by, and
    for each the ratio of that divisor to the derivative's coefficient norm
    to the power of the operator's degree (1 but for the Green checks, which
    divide by the norm of Lap(delta+))."""
    m = pair.m
    support = gh.Support([(0,) * m])
    D = gh.derivative_operator(m, support)
    scale = D.coeff_norm()
    ops = {name: gh.component_operator(shift, pair, support) for name, shift in gh.DELTA_SHIFTS.items()}
    gram = dense_gram(pair)

    def residual(op, scale_here):
        return op.coeff_norm() / max(scale_here, 1e-300)

    dplus, dminus, dbplus, dbminus = ops.values()
    out = {
        "component_squares_vanish": max(residual(op @ op, scale**2) for op in ops.values()),
        "opposite_components_anticommute": max(
            residual(dplus @ other + other @ dplus, scale**2) for other in (dminus, dbminus)
        ),
        "mixed_anticommutators_cancel": residual(
            (dplus @ dbplus + dbplus @ dplus) + (dminus @ dbminus + dbminus @ dminus), scale**2
        ),
        "plus_adjoint_is_minus_conjugate": residual(gh.adjoint(dplus, gram) + dbplus, scale),
        "minus_adjoint_is_plus_conjugate": residual(gh.adjoint(dminus, gram) - dbminus, scale),
    }
    lap_full = gh.laplacian(D, gram)
    laps = {name: gh.laplacian(op, gram) for name, op in ops.items()}
    out["full_laplacian_is_four_times_each"] = max(residual(lap_full - 4.0 * lap, scale**2) for lap in laps.values())
    lap = laps["delta+"]
    n = lap.value_dim
    lap_scale = lap.coeff_norm()
    traces = np.trace(lap.coeffs, axis1=1, axis2=2)
    scalar = gh.BlockOperator(support, lap.exponents, traces[:, None, None] / n * np.eye(n))
    out["green_commutes_with_laplacian"] = residual(lap - scalar, lap_scale)
    units = np.eye(m, dtype=int)
    quadratic = (units[:, None] + units[None]).reshape(-1, m)
    closed = gh.BlockOperator(support, quadratic, -0.25 * np.linalg.inv(pair.metric).reshape(-1, 1, 1) * np.eye(n))
    out["green_plus_harmonic_resolve_identity"] = residual(lap - closed, lap_scale)
    out["green_agrees_across_components"] = max(residual(other - lap, lap_scale) for other in laps.values())
    units = {name: lap_scale / scale**2 if name.startswith("green") else 1.0 for name in out}
    return out, units


def canonical_generator(J, projectors=None):
    """``HermitianPair.canonical_generator`` of one structure ``J`` by its
    dense eigenlevel projectors: the largest column of the top level's
    projector over its first largest entry.  ``projectors`` are those of
    ``J`` if already at hand; the projector is idempotent, so its trace is
    its rank and must be one."""
    if projectors is None:
        projectors = iso_projectors(J)
    Pn = projectors[max(projectors)]
    if abs(np.trace(Pn) - 1) > 0.5:
        raise ValueError("top eigenlevel is not a line")
    return _over_first_largest(Pn[:, int(np.argmax(np.linalg.norm(Pn, axis=0)))])


def dense_pure_spinor(L):
    """The pure spinor of ``L`` the word basis used before its thin route: the
    largest column of the dense rank-one product ``cl(l_1) ... cl(l_m)`` of
    the Clifford matrices of the columns of ``L``."""
    M = reduce(np.matmul, cl.clifford_matrices(L.T))
    return M[:, np.argmax(np.linalg.norm(M, axis=0))]


def clifford_product(frame):
    """``cl(f_1) @ ... @ cl(f_k)`` over the columns of ``frame`` at full
    width: the identity's rows gathered by one signed ladder gather per
    factor's ladder, left factor first, the rows of ``X cl(v)`` being
    ``cl(v') X[r]`` with the halves of ``v`` swapped in ``v'``."""
    m = frame.shape[0] // 2
    out = np.eye(cl.spinor_dim(m), dtype=complex)
    for v in np.roll(frame, m, axis=0).T:
        out = cl._clifford_gather(v, out)
    return out


def dense_words(pair):
    """The word basis ``V`` and its inverse ``V^-1`` of a pair as dense
    ``(2**m, 2**m)`` matrices, from the blocks the pair holds."""
    n = cl.spinor_dim(pair.m)
    V, V_inv = np.zeros((n, n), dtype=complex), np.zeros((n, n), dtype=complex)
    for r, w, Vb, Xb in pair._blocks:
        V[r[:, None], w], V_inv[w[:, None], r] = Vb, Xb
    return V, V_inv


def dense_gram(pair):
    """The pair's L2 Gram matrix ``star_gram`` as one dense matrix."""
    return cl._parity_dense(pair.star_gram)


def chevalley_gram(m):
    """Matrix ``C`` with ``chevalley_pairing(f, g) = f @ C @ g``: the sign
    ``clifford._chevalley_signs`` at each subset and its complement."""
    n = cl.spinor_dim(m)
    C = np.zeros((n, n))
    C[np.arange(n), np.arange(n) ^ (n - 1)] = cl._chevalley_signs(m)
    return C


def lu_word_inverse(V, gram):
    """``(V^H A V)^-1 V^H A`` for a whole word basis by one LU solve."""
    H = V.conj().T @ gram
    return np.linalg.solve(H @ V, H)


def dense_shift_part(pair, op, shift):
    """One part of ``HermitianPair.shift_parts`` on the whole word basis:
    ``V (moves * (V^-1 op V)) V^-1`` by four dense products."""
    labels = pair._labels
    moves = (labels[:, None] == labels[None] + np.asarray(shift)).all(axis=-1)
    V, V_inv = dense_words(pair)
    return V @ (moves * (V_inv @ op @ V)) @ V_inv


def block_operator_gap(pair):
    """``verify-hodge``'s level-one gap ``D - sum of the four components`` by
    the ``BlockOperator`` algebra (three ``__add__`` and one ``__sub__``)."""
    support = gh.Support([(0,) * pair.m])
    comps = [gh.component_operator(shift, pair, support) for shift in gh.DELTA_SHIFTS.values()]
    return (gh.derivative_operator(pair.m, support) - reduce(operator.add, comps)).coeff_norm()


def ladder_step_flip_table(m):
    """``clifford._spin_flip_table`` built from the ``(2m, 2m, 2**m)``
    products of ``_ladder_step`` over every pair of matrix units, one
    flip mask at a time."""
    n = cl.spinor_dim(m)
    coord = np.arange(2 * m)
    bit = coord % m
    b_ladder = ((coord >= m)[:, None, None], bit.astype(np.uint64)[:, None, None])
    d_ladder = ((coord < m)[None, :, None], bit.astype(np.uint64)[None, :, None])
    idx = np.arange(n, dtype=np.uint64)[None, None, :]

    def product(first, second):
        ok1, mid, s1 = cl._ladder_step(*first, idx)
        ok2, _, s2 = cl._ladder_step(*second, mid)
        return np.where(ok1 & ok2, s1 * s2, 0)

    # value[r, c, j]: the coefficient with which T[r, c] sends subset j to j ^ f
    value = 0.25 * (product(d_ladder, b_ladder) - product(b_ladder, d_ladder))
    r, c = np.nonzero(value.any(axis=2))
    flips = (1 << bit[r]) ^ (1 << bit[c])
    present = np.zeros(n, dtype=bool)
    present[flips] = True
    masks = np.flatnonzero(present)
    reach = [np.flatnonzero(flips == f) for f in masks]
    source = np.arange(n) ^ masks[:, None]
    coef = np.zeros((len(masks), max(map(len, reach))), dtype=np.intp)
    values = np.zeros(coef.shape + (n,), dtype=complex)
    for g, e in enumerate(reach):
        coef[g, : len(e)] = r[e] * (2 * m) + c[e]
        # entry i of the image reads subset i ^ f
        values[g, : len(e)] = value[r[e], c[e]][:, source[g]]
    return source, coef, values


def parity_half(rows, parity):
    """The entries of full-width rows ``(..., 2**m)`` on the forms of one
    parity, ``(..., 2**(m-1))``, and the rows with the other parity zeroed."""
    forms = cl._parity_rows(rows.shape[-1].bit_length() - 1)[parity]
    full = np.zeros_like(rows)
    full[..., forms] = rows[..., forms]
    return rows[..., forms], full


def project_by_parity(pair, rows, p=None, q=None):
    """``HermitianPair.project`` on full-width rows of both form parities:
    each parity's half projected on its own and widened back."""
    return sum(sol._widen(pair.project(parity_half(rows, e)[0], e, p, q), e) for e in (0, 1))


def full_width_series(support, factors, seed_rows, order_cap):
    """Columns of ``exp(a^1_t) ... exp(a^F_t) psi`` up to the cap, packed
    full width over the support, from the dense spin images of the factors'
    coefficients: factor f, right to left, maps its input ``term_0`` to
    ``sum_j term_j`` with ``term_j[n] = (1/j) sum_i X_i term_{j-1}[n - i]``.
    A row that a shift would take outside the support must be zero."""
    zero = np.zeros_like(seed_rows)
    cols = [seed_rows] + [zero] * order_cap
    for family in reversed(factors):
        X = {}
        for i, stack in enumerate(family.stacks[: order_cap + 1]):
            if i and stack is not None:
                dst = support.rows(gh._shifted_rows(support.table, stack[0])).reshape(len(stack[0]), -1)
                X[i] = dst, np.stack([cl.spin_lie_action(alpha) for alpha in stack[1]])
        out, term = list(cols), cols
        for j in range(1, order_cap + 1):
            nxt = [zero.copy() for _ in range(order_cap + 1)]
            for n in range(order_cap + 1):
                for i, (dst, dense) in X.items():
                    if i <= n:
                        for a in range(len(dst)):
                            inside = dst[a] >= 0
                            assert not term[n - i][~inside].any(), "a shift leaves the support"
                            nxt[n][dst[a][inside]] += term[n - i][inside] @ dense[a].T / j
            term = nxt
            out = [o + t for o, t in zip(out, term)]
        cols = out
    return cols


def full_width_deformation(factors, pair, order_cap):
    """``solver.run_deformation`` for the pair's canonical seed on the
    full-width route: every field is ``(S, 2**m)`` rows over the support,
    the series comes from ``full_width_series`` (from scratch at every
    order), the projectors act through the whole word basis, the
    components and ``d`` by full ladder gathers, and the norms against the
    whole Gram matrix.  Returns the support, one record per order (its
    ``rho_norm``, ``beta_norm`` and packed fields: the series column with
    the order's correction set to zero, ``rho``, the corner ``components``,
    the ``routes`` and ``phi``) and the final series columns."""
    m, n = pair.m, pair.n
    psi = pair.canonical_generator(2)
    seed = FourierField.constant(m, psi)
    support = sol._series_support(sol._reach(factors, order_cap), seed)
    seed_rows = support.pack(seed)
    gram = dense_gram(pair)
    kappa = 1j * support.frequencies

    V, V_inv = dense_words(pair)

    def project(rows, p, q):
        s = (pair._labels == (p, q)).all(axis=1)
        return rows @ V_inv[s].T @ V[:, s].T

    def apply(name, rows):
        return cl._clifford_gather(kappa @ gh._sector_covectors(pair, gh.DELTA_SHIFTS[name]).T, rows)

    basis = sol._beta_basis(pair)
    pinv = np.linalg.pinv(np.stack([cl.spin_lie_action(alpha) @ psi for alpha in basis]).T, rcond=1e-12)
    green = gh.green_operator(pair, support)
    b_stacks, records = [None], []
    for order in range(1, order_cap + 1):
        b = sol.SeriesSoField._packed(m, b_stacks)
        column = full_width_series(support, [*factors, b], seed_rows, order)[order]
        rho = derivative_rows(support.frequencies, column)
        comps = {key: project(rho, *key) for key in sol._corner_keys(n)}
        routes = (
            apply("delta-", comps[(-1, n - 1)]) + apply("delta_bar-", comps[(1, n - 3)]),
            apply("delta+", comps[(-1, n - 3)]) + apply("delta_bar+", comps[(1, n - 1)]),
        )
        phi = green[:, None] * routes[0]
        betas = np.tensordot(-phi @ pinv.T, basis, 1)
        beta = FourierOperatorField(m, 2 * m, {support[r]: betas[r] for r in np.flatnonzero(betas.any(axis=(1, 2)))})
        b_stacks.append(sol._term_stack(m, beta + beta.conj()))
        records.append(
            {
                "rho_norm": gh.l2_norm(rho, gram),
                "beta_norm": beta.coeff_norm(),
                "column": column,
                "rho": rho,
                "components": comps,
                "routes": routes,
                "phi": phi,
            }
        )
    b = sol.SeriesSoField._packed(m, b_stacks)
    return support, records, full_width_series(support, [*factors, b], seed_rows, order_cap)


def _seed_arg(text: str) -> int:
    """A ``--seed`` value: a non-negative integer, which ``uniform_points``
    draws deform's verification points from and ``verify-algebra`` seeds its
    numpy generator with."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit with 64, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(cli.USAGE_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser that ``cli.parse_args`` replaced: the reference
    for the command lines it accepts and the values it reads."""
    parser = _Parser(prog="genkahler", description=cli.__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    va = sub.add_parser("verify-algebra", help="seeded random checks of the Clifford/spin layer")
    va.add_argument("--seed", type=_seed_arg, default=0, help="seed of the trials' numpy generator (non-negative)")
    va.add_argument("--n-max", type=int, default=3, help="largest torus dimension to draw")
    va.add_argument("--trials", type=int, default=200)
    va.add_argument("--tol", type=float, default=1e-9)
    va.add_argument("--out", type=str, default=None, help="directory for report.json / report.txt")
    va.add_argument("--json", action="store_true", help="print the JSON report instead of text")
    va.set_defaults(func=cli.cmd_verify_algebra)

    vh = sub.add_parser("verify-hodge", help="operator-splitting identities on a configured background")
    vh.add_argument("--config", type=str, required=True)
    vh.add_argument("--tol", type=float, default=None, help="override the config tolerance")
    vh.add_argument("--out", type=str, default=None)
    vh.add_argument("--json", action="store_true")
    vh.set_defaults(func=cli.cmd_verify_hodge)

    df = sub.add_parser("deform", help="run the order-by-order deformation solver")
    df.add_argument("--config", type=str, required=True)
    df.add_argument("--order", type=int, default=None, help="override the config order cap")
    df.add_argument("--tol", type=float, default=None, help="override the config tolerances")
    df.add_argument("--seed", type=_seed_arg, default=0, help="verification-point seed for random.Random (non-negative)")
    df.add_argument("--out", type=str, default=None)
    df.add_argument("--json", action="store_true")
    df.set_defaults(func=cli.cmd_deform)
    return parser
