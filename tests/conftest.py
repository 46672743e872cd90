"""Oracles shared by the test modules.

The library builds every grading projector from the exact subset basis of
the sector frames.  The tests keep the older, independent route here:
Lagrange interpolation of the spin action, whose error grows with m.
"""

import numpy as np
import pytest

from genkahler import clifford as cl
from genkahler import structures as gs


def _lagrange_projectors(J):
    """Eigenlevel projectors of the spin action ``D`` of ``J``: the spectrum is
    ``i k`` for ``k = -n..n``, so level k is ``prod_{j != k} (D - i j) / (i (k - j))``."""
    D = cl.spin_lie_action(J)
    n = J.shape[0] // 4
    eye = np.eye(D.shape[0], dtype=complex)
    out = {}
    for k in range(-n, n + 1):
        acc = eye
        for j in range(-n, n + 1):
            if j != k:
                acc = acc @ (D - 1j * j * eye) / (1j * (k - j))
        out[k] = acc
    return out


def _lagrange_bigrading(pair):
    """Products ``P1_p P2_q`` of the two Lagrange gradings over |p|+|q| <= n, p+q = n mod 2."""
    P1, P2 = _lagrange_projectors(pair.J1), _lagrange_projectors(pair.J2)
    n = pair.n
    return {
        (p, q): P1[p] @ P2[q]
        for p in P1
        for q in P2
        if abs(p) + abs(q) <= n and (p + q - n) % 2 == 0
    }


@pytest.fixture(scope="session")
def lagrange_projectors():
    return _lagrange_projectors


@pytest.fixture(scope="session")
def lagrange_bigrading():
    return _lagrange_bigrading


@pytest.fixture(scope="session")
def bfield_t8():
    """A random b-field pair on T^8 and its Lagrange bigrading (slow, so shared)."""
    pair = gs.random_hermitian_pair(np.random.default_rng(88), 8, b_scale=0.7)
    assert np.linalg.norm(pair.b_field) > 0.1
    return pair, _lagrange_bigrading(pair)
