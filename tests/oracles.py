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
