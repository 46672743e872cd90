"""Reference routes the test modules share.

Each helper here is a second, independent (or simply slower) route to a
quantity the library computes another way, or a convenience for writing
test data; no path of the library or the command line needs them.
"""

import numpy as np

from genkahler import clifford as cl
from genkahler import hodge as gh
from genkahler import solver as sol
from genkahler.fields import FourierField, derivative_rows, dual_l_frames, require_three_form
from genkahler.structures import require_gcs


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
    factors, support, moved = sol._seeded_series(a, b, psi, order_cap)
    derivs = [None if c is None else derivative_rows(support.frequencies, c) for c in moved]
    inverse = [[None if x is None else (x[0], -x[1]) for x in f.spin_stacks()] for f in reversed(factors)]
    return sol._spinor_fields(support, sol._SeriesExp(support, inverse, derivs, order_cap).fill_all())


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


def dense_splitting_residuals(pair, h=None):
    """The residuals of ``verify-hodge``'s splitting checks on an integrable
    background by dense coefficient products (``BlockOperator.__matmul__``
    and ``hodge.laplacian``), each over the scale the command divides by, and
    for each the ratio of that divisor to the derivative's coefficient norm
    to the power of the operator's degree (1 but for the Green checks, which
    divide by the norm of Lap(delta+))."""
    m = pair.m
    support = gh.Support([(0,) * m])
    D = gh.derivative_operator(m, support, h)
    scale = D.coeff_norm()
    ops = {name: gh.component_operator(shift, pair, support, h) for name, shift in gh.DELTA_SHIFTS.items()}
    gram = gh.l2_gram(pair)

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
