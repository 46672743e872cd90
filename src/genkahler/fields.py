"""Trigonometric-polynomial fields on the flat torus T^m.

Everything is a finite Fourier sum ``f(x) = sum_k c_k exp(i <k, x>)`` over
integer frequency vectors ``k``; the torus has coordinates in [0, 2pi)^m and
unit total measure.  Coefficients are either vectors (:class:`FourierField`)
or matrices (:class:`FourierOperatorField`); operator fields compose and act
by coefficient convolution.

The module also provides the geometry that lives naturally on fields: the
twisted exterior derivative, the (non-skew) bracket of sections of the
doubled bundle, and the integrability torsion of a constant structure against
a constant closed three-form.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Mapping

import numpy as np

from genkahler.clifford import (
    _ladder_gather,
    _ladder_tables,
    clifford_vector_matrix,
    natural_pairing,
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
    "require_three_form",
    "twisted_derivative",
    "derivative_rows",
    "one_form_differential",
    "courant_bracket",
    "dual_l_frames",
    "nijenhuis_tensor",
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

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        shape = self.coeff_shape(self.value_dim)
        out = np.zeros((points.shape[0], *shape), dtype=complex)
        for k, c in sorted(self.coeffs.items()):
            phase = np.exp(1j * points @ np.asarray(k, dtype=float))
            out += phase.reshape(-1, *(1,) * len(shape)) * c
        return out

    def coeff_norm(self) -> float:
        """L2 norm of the coefficient data; equals the L2(T^m) norm by Parseval."""
        return float(np.sqrt(sum(np.linalg.norm(c) ** 2 for c in self.coeffs.values())))

    def is_real(self, tol: float = 1e-12) -> bool:
        return (self - self.conj()).coeff_norm() <= tol * max(1.0, self.coeff_norm())


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


_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_sequence_words(seed: int) -> list[int]:
    """``numpy.random.SeedSequence(seed).generate_state(4, np.uint64)`` on
    Python ints: the seed's 32-bit words hashed into a pool of four, mixed,
    and hashed out as eight 32-bit words paired little-endian."""
    words = [(seed >> s) & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * 0x931E8875) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ (value >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const, state = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = (hash_const * 0x58F38DED) & _MASK32
        value = (value * hash_const) & _MASK32
        state.append(value ^ (value >> 16))
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


def uniform_points(seed: int, count: int, torus_dim: int) -> np.ndarray:
    """``count`` points of ``[0, 2pi)^torus_dim``, bit for bit those of
    ``numpy.random.default_rng(seed).uniform(0, 2pi, (count, torus_dim))``.

    The generator is reproduced on Python ints (SeedSequence, then PCG64
    with its XSL-RR output), so drawing points does not import
    ``numpy.random`` and the hashing modules it loads.  The seed must be a
    non-negative integer, as for numpy.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    s0, s1, i0, i1 = _seed_sequence_words(seed)
    inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
    # seeding: one step from state 0 gives inc; add the initial state, step again
    state = ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128
    two_pi = 2.0 * np.pi
    out = []
    for _ in range(count * torus_dim):
        state = (state * _PCG64_MULT + inc) & _MASK128
        word, rot = ((state >> 64) ^ state) & _MASK64, state >> 122
        word = (word >> rot | word << (-rot & 63)) & _MASK64
        out.append(0.0 + two_pi * ((word >> 11) * 2.0**-53))
    return np.array(out, dtype=float).reshape(count, torus_dim)


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


def derivative_rows(freqs: np.ndarray, rows: np.ndarray, h: np.ndarray | None = None) -> np.ndarray:
    """Twisted derivative of stacked coefficients: ``i sum_j k_j dx_j ^ v``
    plus ``H ^ v`` for every row ``v`` of ``rows`` and ``k`` the matching row
    of the ``(S, m)`` frequency matrix ``freqs``.  The derivative is m
    signed gathers per row, weighted by ``i k`` and the wedge signs; the
    twist is one product."""
    out = _ladder_gather(1j * freqs[:, :, None] * _ladder_tables(freqs.shape[1])[1][1], rows)
    if h is not None:
        out += rows @ wedge_operator(three_form_spinor(h)).T
    return out


def twisted_derivative(phi: FourierField, h: np.ndarray | None = None) -> FourierField:
    """Exterior derivative twisted by a constant three-form: ``d(.) + H ^ .``."""
    m = phi.torus_dim
    if phi.value_dim != spinor_dim(m):
        raise ValueError("field values are not forms on the torus")
    out = FourierField(m, phi.value_dim)
    if phi.coeffs:
        keys, rows = phi.stacked()
        out.coeffs = dict(zip(keys, derivative_rows(np.array(keys, dtype=float), rows, h)))
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
# bracket and torsion


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
    structure against a constant three-form, on the conjugate eigenframe."""
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
                N[a, b, c] = -2.0 * natural_pairing(br, lbar[:, c])
    return N


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

