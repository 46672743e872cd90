"""Trigonometric-polynomial fields on the flat torus T^m.

Everything is a finite Fourier sum ``f(x) = sum_k c_k exp(i <k, x>)`` over
integer frequency vectors ``k``; the torus has coordinates in [0, 2pi)^m and
unit total measure.  Coefficients are either vectors (:class:`FourierField`)
or matrices (:class:`FourierOperatorField`); operator fields compose and act
by coefficient convolution.

The module also provides the geometry that lives naturally on fields: the
twisted exterior derivative, and the integrability torsion of a constant
structure against a constant closed three-form, in the closed form the
twisted bracket takes on constant sections.
"""

from __future__ import annotations

import itertools
import operator
import random
from collections.abc import Mapping

import numpy as np

from genkahler.clifford import (
    _clifford_gather,
    clifford_vector_matrix,
    pairing_matrix,
    spinor_dim,
    wedge_operator,
)
from genkahler.structures import iso_projectors, l_frame, require_gcs

__all__ = [
    "FourierField",
    "FourierOperatorField",
    "frequencies_box",
    "uniform_points",
    "random_field",
    "three_form_spinor",
    "twisted_derivative",
    "derivative_rows",
    "one_form_differential",
    "torsion_clifford_element",
]

Frequency = tuple[int, ...]


def _freq_key(k, torus_dim: int) -> Frequency:
    key = tuple(int(v) for v in k)
    if len(key) != torus_dim:
        raise ValueError(f"frequency {key} does not live on T^{torus_dim}")
    return key


class _FourierContainer:
    """Dict of coefficients keyed by frequency, with the linear structure both
    field classes share; a subclass fixes the shape in ``coeff_shape``."""

    def __init__(self, torus_dim: int, value_dim: int, coeffs: Mapping | None = None):
        self.torus_dim = int(torus_dim)
        self.value_dim = int(value_dim)
        self.coeffs: dict[Frequency, np.ndarray] = {}
        shape = self.coeff_shape(self.value_dim)
        for k, c in (coeffs or {}).items():
            c = np.asarray(c, dtype=complex)
            if c.shape != shape:
                raise ValueError(f"coefficient shape {c.shape} != {shape}")
            self.coeffs[_freq_key(k, self.torus_dim)] = c.copy()

    @classmethod
    def constant(cls, torus_dim: int, value):
        value = np.asarray(value, dtype=complex)
        return cls(torus_dim, value.shape[0], {(0,) * torus_dim: value})

    def _like(self, coeffs: dict):
        """Field of the same class and shape holding ``coeffs`` as given."""
        out = type(self)(self.torus_dim, self.value_dim)
        out.coeffs = coeffs
        return out

    def copy(self):
        return type(self)(self.torus_dim, self.value_dim, self.coeffs)

    def support(self) -> list[Frequency]:
        return sorted(self.coeffs)

    def stacked(self) -> tuple[list[Frequency], np.ndarray]:
        """Sorted frequencies and their coefficients stacked into one
        ``(P, *coefficient shape)`` array (``P = 0`` for the zero field)."""
        freqs = sorted(self.coeffs)
        out = np.empty((len(freqs), *self.coeff_shape(self.value_dim)), dtype=complex)
        for a, p in enumerate(freqs):
            out[a] = self.coeffs[p]
        return freqs, out

    def __getitem__(self, k) -> np.ndarray:
        c = self.coeffs.get(_freq_key(k, self.torus_dim))
        return np.zeros(self.coeff_shape(self.value_dim), dtype=complex) if c is None else c

    def _binary(self, other, sign: float):
        if type(other) is not type(self) or (other.torus_dim, other.value_dim) != (self.torus_dim, self.value_dim):
            raise ValueError("field shapes do not match")
        out = self.copy()
        for k, c in other.coeffs.items():
            out.coeffs[k] = out.coeffs.get(k, 0.0) + sign * c
        return out

    def _scaled(self, scalar):
        return self._like({k: complex(scalar) * c for k, c in self.coeffs.items()})

    def __neg__(self):
        return self * (-1.0)

    def conj(self):
        """Complex conjugate of the function (frequencies flip sign)."""
        return self._like({tuple(-v for v in k): c.conj() for k, c in self.coeffs.items()})

    def map_values(self, func):
        """Field of ``func`` applied to every coefficient; the value dimension
        is read off the image of a zero coefficient when there is none."""
        items = {k: np.asarray(func(c), dtype=complex) for k, c in sorted(self.coeffs.items())}
        probe = next(iter(items.values())) if items else np.asarray(func(np.zeros(self.coeff_shape(self.value_dim))))
        return type(self)(self.torus_dim, probe.shape[0], items)

    def coeff_norm(self) -> float:
        """L2 norm of the coefficient data; equals the L2(T^m) norm by Parseval."""
        return float(np.sqrt(sum(np.linalg.norm(c) ** 2 for c in self.coeffs.values())))


class FourierField(_FourierContainer):
    """Vector-valued trigonometric polynomial ``sum_k c_k exp(i <k, x>)``."""

    @staticmethod
    def coeff_shape(value_dim: int) -> tuple[int, ...]:
        return (value_dim,)

    # the arithmetic entry points live in each class's own namespace, where
    # tools that wrap methods by name look for them
    def __add__(self, other):
        return self._binary(other, 1.0)

    def __sub__(self, other):
        return self._binary(other, -1.0)

    def __mul__(self, scalar):
        return self._scaled(scalar)

    __rmul__ = __mul__


class FourierOperatorField(_FourierContainer):
    """Matrix-valued trigonometric polynomial; composes and acts by convolution."""

    @staticmethod
    def coeff_shape(value_dim: int) -> tuple[int, ...]:
        return (value_dim, value_dim)

    def __add__(self, other):
        return self._binary(other, 1.0)

    def __sub__(self, other):
        return self._binary(other, -1.0)

    def __mul__(self, scalar):
        return self._scaled(scalar)

    __rmul__ = __mul__

    def _convolve(self, other, out):
        """Add ``A_p B_q`` at ``p + q`` into ``out`` for every pair of coefficients."""
        if (other.torus_dim, other.value_dim) != (self.torus_dim, self.value_dim):
            raise ValueError("operator and field shapes do not match")
        for p, A in sorted(self.coeffs.items()):
            for q, B in sorted(other.coeffs.items()):
                key = tuple(pi + qi for pi, qi in zip(p, q))
                acc = out.coeffs.get(key)
                out.coeffs[key] = A @ B if acc is None else acc + A @ B
        return out

    def __matmul__(self, other: "FourierOperatorField") -> "FourierOperatorField":
        if not isinstance(other, FourierOperatorField):
            return NotImplemented
        return self._convolve(other, self._like({}))

    def act(self, field: FourierField) -> FourierField:
        return self._convolve(field, field._like({}))


# ---------------------------------------------------------------------------
# sampling helpers


def frequencies_box(torus_dim: int, max_norm: int) -> list[Frequency]:
    """All integer frequencies with sup-norm at most ``max_norm``, sorted."""
    rng = range(-max_norm, max_norm + 1)
    return sorted(itertools.product(rng, repeat=torus_dim))


def uniform_points(seed: int, count: int, torus_dim: int) -> np.ndarray:
    """``count`` points of ``[0, 2pi)^torus_dim``: 2pi times successive draws
    of ``random.Random(seed).random()`` in row-major order, the same on every
    CPython since 3.2.  The seed must be a non-negative integer."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    draw = random.Random(seed).random
    return 2.0 * np.pi * np.array([draw() for _ in range(count * torus_dim)]).reshape(count, torus_dim)


def random_field(
    rng: np.random.Generator,
    torus_dim: int,
    value_dim: int,
    freqs: list | None = None,
    scale: float = 1.0,
    real: bool = False,
) -> FourierField:
    """Gaussian random field over a frequency support (default: box of radius 1)."""
    if freqs is None:
        freqs = frequencies_box(torus_dim, 1)
    field = FourierField(torus_dim, value_dim)
    for k in freqs:
        c = rng.normal(scale=scale, size=value_dim) + 1j * rng.normal(scale=scale, size=value_dim)
        key = _freq_key(k, torus_dim)
        field.coeffs[key] = field.coeffs.get(key, 0.0) + c
    if real:
        field = 0.5 * (field + field.conj())
    return field


# ---------------------------------------------------------------------------
# three-forms and the twisted derivative


def require_three_form(h: np.ndarray, torus_dim: int) -> np.ndarray:
    """Validate a constant three-form given as a totally antisymmetric array."""
    h = np.asarray(h, dtype=float)
    if h.shape != (torus_dim,) * 3:
        raise ValueError(f"three-form shape {h.shape} != {(torus_dim,) * 3}")
    for perm, sign in (((0, 2, 1), -1), ((1, 0, 2), -1), ((1, 2, 0), 1)):
        if np.linalg.norm(np.transpose(h, perm) - sign * h) > 1e-12 * max(1.0, np.linalg.norm(h)):
            raise ValueError("three-form array is not totally antisymmetric")
    return h


def three_form_spinor(h: np.ndarray) -> np.ndarray:
    """Spinor vector of a constant three-form array ``h[a,b,c] = H(d_a,d_b,d_c)``."""
    m = np.asarray(h).shape[0]
    h = require_three_form(h, m)
    out = np.zeros(spinor_dim(m), dtype=complex)
    for a in range(m):
        for b in range(a + 1, m):
            for c in range(b + 1, m):
                out[(1 << a) | (1 << b) | (1 << c)] = h[a, b, c]
    return out


def derivative_rows(freqs: np.ndarray, rows: np.ndarray, parity: int | None = None) -> np.ndarray:
    """Exterior derivative of stacked coefficients: ``i sum_j k_j dx_j ^ v``
    for every row ``v`` of ``rows`` and ``k`` the matching row of the
    ``(S, m)`` frequency matrix ``freqs``, the Clifford action of the
    covector ``i k`` (``clifford._clifford_gather``, m signed gathers per
    row).  Given the form ``parity`` of the rows, they and the image are
    half rows, the image on the other parity."""
    kappa = 1j * freqs
    image = None if parity is None else 1 - parity
    return _clifford_gather(np.concatenate([np.zeros_like(kappa), kappa], axis=-1), rows, image)


def twisted_derivative(phi: FourierField, h: np.ndarray | None = None) -> FourierField:
    """Exterior derivative twisted by a constant three-form: ``d(.) + H ^ .``."""
    m = phi.torus_dim
    if phi.value_dim != spinor_dim(m):
        raise ValueError("field values are not forms on the torus")
    out = FourierField(m, phi.value_dim)
    if phi.coeffs:
        keys, rows = phi.stacked()
        derivs = derivative_rows(np.array(keys, dtype=float), rows)
        if h is not None:
            derivs += rows @ wedge_operator(three_form_spinor(h)).T
        out.coeffs = dict(zip(keys, derivs))
    return out


def one_form_differential(xi: FourierField) -> FourierOperatorField:
    """Two-form coefficients ``(d xi)(d_a, d_b)`` of the differential of a one-form."""
    m = xi.torus_dim
    if xi.value_dim != m:
        raise ValueError("expected a one-form field with m components")
    out = FourierOperatorField(m, m)
    for k, c in sorted(xi.coeffs.items()):
        kv = np.asarray(k, dtype=float)
        out.coeffs[k] = 1j * (np.outer(kv, c) - np.outer(c, kv))
    return out


# ---------------------------------------------------------------------------
# torsion


def dual_l_frames(J: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frames ``(l, lbar)`` of the +-i eigenspaces with ``2 <l_a, lbar_b> = delta``."""
    J = require_gcs(J)
    m = J.shape[0] // 2
    lfr = l_frame(J)
    lbar = lfr.conj()
    M = 2.0 * lfr.T @ pairing_matrix(m) @ lbar
    l_dual = lfr @ np.linalg.inv(M).T
    return l_dual, lbar


def nijenhuis_tensor(J: np.ndarray, h: np.ndarray | None = None) -> np.ndarray:
    """Torsion ``N[a,b,c] = -2 <[[lbar_a, lbar_b]], lbar_c>`` of a constant
    structure against a constant three-form, on the conjugate eigenframe.

    On constant sections the twisted bracket is ``-H(X, Y, .)``, so ``N[a,
    b, c] = H(X_a, X_b, X_c)`` over the vector parts ``X`` of ``lbar``.
    """
    J = require_gcs(J)
    m = J.shape[0] // 2
    X = dual_l_frames(J)[1][:m]
    h = np.zeros((m,) * 3) if h is None else require_three_form(h, m)
    return np.einsum("abc,ai,bj,ck->ijk", h, X, X, X)


def torsion_clifford_element(J: np.ndarray, h: np.ndarray | None = None) -> np.ndarray:
    """Clifford cube ``sum_{a<b<c} N[a,b,c] l_a l_b l_c`` over the dual frame."""
    J = require_gcs(J)
    m = J.shape[0] // 2
    l_dual, _ = dual_l_frames(J)
    N = nijenhuis_tensor(J, h)
    cls = [clifford_vector_matrix(l_dual[:, a]) for a in range(m)]
    out = np.zeros((spinor_dim(m), spinor_dim(m)), dtype=complex)
    for a in range(m):
        for b in range(a + 1, m):
            for c in range(b + 1, m):
                out += N[a, b, c] * cls[a] @ cls[b] @ cls[c]
    return out

