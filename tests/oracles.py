"""Reference routes the test modules share.

Each helper here is a second, independent (or simply slower) route to a
quantity the library computes another way, or a convenience for writing
test data; no path of the library or the command line needs them.
"""

import numpy as np

from genkahler import clifford as cl
from genkahler import solver as sol
from genkahler.fields import derivative_rows


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
