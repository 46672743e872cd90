"""Generalized complex linear algebra on R^{2m} and a spectral deformation
solver for generalized Kahler pairs on flat tori.

The package is organized bottom-up:

- :mod:`genkahler.clifford` -- spinor encoding of forms, the split-signature
  pairing, Clifford/spin actions of so-elements.
- :mod:`genkahler.structures` -- pointwise generalized complex structures,
  Hermitian pairs, Hodge star, spinor-line extraction.
- :mod:`genkahler.fields` -- trigonometric-polynomial fields on T^m, twisted
  exterior derivative, integrability torsion of constant structures.
- :mod:`genkahler.hodge` -- L2 inner product, adjoints, Laplacians and Green
  operators over a finite frequency support.
- :mod:`genkahler.solver` -- the order-by-order deformation solver and its
  verification helpers.
- :mod:`genkahler.cli` -- ``genkahler`` command line entry point.
"""

from genkahler.clifford import MAX_DIM

__all__ = ["MAX_DIM"]
__version__ = "0.1.0"
