"""The torus's symmetries as oracles: each maps a solved run to another run
whose answer is known in advance, so a convention error that every route of
the solver shares (a sign in the frequency convention, say) still shows.

- Translation: the one-form ``x -> xi(x + x0)`` multiplies the coefficient
  of each correction ``beta_k`` at frequency ``k`` by ``e^{+i k.x0}``; the
  opposite sign must fail, so the relation pins the convention.
- Homogeneity: the one-form ``c xi`` multiplies ``beta_k`` by ``c^k``, so
  every order's ``beta_norm`` by ``c^k``.
- Lattice automorphism: an axis map ``P`` in SL(m, Z) that commutes with the
  standard ``J`` (a permutation of its coordinate pairs) keeps the flat pair
  when the metric goes to ``P^T g P``, the identity here, so the pulled-back
  one-form (frequencies and coefficients carried by ``P^T``) has the same
  ``rho_norm`` and ``beta_norm`` at every order.  Swapping axes 0 and 1,
  which anticommutes with ``J`` on its block, or moving the frequencies
  without their coefficients must fail.

Each runs on the benchmark's deform configs at an order cap that keeps the
suite fast.  The relations hold to at most 1.1e-15 relative; the opposite
phase misses by at least 1.5, as does no phase at all, and the broken
lattice maps by at least 0.3.
"""

import functools

import numpy as np
import pytest

from oracles import field_gap, lattice_mapped, scaled, solve_config, translated, workload_config

BOUND = 1e-13

CASES = [("deform-m4-k8", 6), ("deform-m6-k5-blas2", 4), ("deform-m8-k2", 2)]

#: each case's axis map ``axes``, with ``P e_i = e_{axes[i]}``
LATTICE_CASES = [("deform-m4-k8", 6, (2, 3, 0, 1)), ("deform-m6-k5-blas2", 4, (4, 5, 0, 1, 2, 3))]


@functools.cache
def solved(name, order_cap):
    """A workload's seed-0 config and its report, solved once for both relations."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        doc = workload_config(name, monkeypatch)
    return doc, solve_config(doc, order_cap)


@pytest.mark.parametrize("name,order_cap", CASES)
def test_translation_multiplies_each_correction_by_its_phase(name, order_cap):
    doc, report = solved(name, order_cap)
    x0 = np.random.default_rng(7).uniform(0.0, 2 * np.pi, doc["dimension"])
    moved = solve_config(translated(doc, x0), order_cap)
    assert len(moved.betas) == len(report.betas) == order_cap
    for k, (got, want) in enumerate(zip(moved.betas, report.betas), start=1):
        assert want.coeff_norm() > 0, k
        assert field_gap(got, want, lambda f: np.exp(1j * (np.array(f) @ x0))) <= BOUND, k
        assert field_gap(got, want, lambda f: np.exp(-1j * (np.array(f) @ x0))) > 0.5, k


@pytest.mark.parametrize("c", [3.0, 0.1])
@pytest.mark.parametrize("name,order_cap", CASES)
def test_scaling_the_one_form_scales_order_k_by_its_kth_power(name, order_cap, c):
    doc, report = solved(name, order_cap)
    grown = solve_config(scaled(doc, c), order_cap)
    for k, (got, want) in enumerate(zip(grown.orders, report.orders), start=1):
        assert abs(got["beta_norm"] - c**k * want["beta_norm"]) <= BOUND * c**k * want["beta_norm"], k


def norm_gap(got, want):
    """The worst relative gap of ``rho_norm`` and ``beta_norm`` over the orders."""
    keys = ("rho_norm", "beta_norm")
    return max(abs(g[key] - w[key]) / w[key] for g, w in zip(got.orders, want.orders) for key in keys)


@pytest.mark.parametrize("name,order_cap,axes", LATTICE_CASES, ids=[f"{n}-{k}" for n, k, _ in LATTICE_CASES])
def test_a_lattice_automorphism_keeps_every_order_norm(name, order_cap, axes):
    doc, report = solved(name, order_cap)
    assert doc["background"] == {"kind": "kaehler"}  # the identity metric, so P^T g P = g
    moved = solve_config(lattice_mapped(doc, axes), order_cap)
    assert len(moved.orders) == len(report.orders) == order_cap
    assert norm_gap(moved, report) <= BOUND
    swap = (1, 0, *range(2, doc["dimension"]))
    assert norm_gap(solve_config(lattice_mapped(doc, swap), order_cap), report) > 0.2
    assert norm_gap(solve_config(lattice_mapped(doc, axes, coefficients=False), order_cap), report) > 0.2
