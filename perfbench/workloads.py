"""Benchmark workloads and their seeded input generation.

Each workload is one `genkahler` command line plus a config document the
benchmark writes itself from the workload seed.  The program only ever sees
that config and `--seed`.  For the deform workloads the seed draws the
one-form coefficients (the frequencies are fixed, so the frequency support
and hence the amount of work never depend on the seed) and, through the
CLI's `--seed`, the verification sample points.  For the hodge workload it
draws a J-invariant metric.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # genkahler subcommand
    dimension: int
    blas_threads: int
    order: int = 0
    verify_points: int = 0
    verify_t: float = 0.0
    frequency_box: int = 0
    # halving-ratio gate: "ratio" demands t^(K+1) scaling of derivative_sup,
    # "floor" demands derivative_sup at roundoff level (the solution is exact
    # for this family, so the ratio is meaningless)
    derivative_gate: str = ""

    @property
    def thread_env(self) -> dict[str, str]:
        n = str(self.blas_threads)
        return {"OPENBLAS_NUM_THREADS": n, "OMP_NUM_THREADS": n}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("deform-m4-k8", "deform", 4, 1, order=8, verify_points=16, verify_t=0.01,
                 derivative_gate="floor"),
        Workload("deform-m8-k2", "deform", 8, 1, order=2, verify_points=2, verify_t=0.01,
                 derivative_gate="ratio"),
        Workload("hodge-m4-box3", "verify-hodge", 4, 1, frequency_box=3),
        # verify_t 0.1: at 0.01 the halving ratio of this family sits at the
        # roundoff floor; two BLAS threads is the default on a 2-core machine
        Workload("deform-m6-k5-blas2", "deform", 6, 2, order=5, verify_points=16, verify_t=0.1,
                 derivative_gate="ratio"),
    )
}

COEFF_RANGE = 0.3


def _uniform_vector(rng: random.Random, m: int) -> list[float]:
    return [rng.uniform(-COEFF_RANGE, COEFF_RANGE) for _ in range(m)]


def _one_form_modes(m: int, rng: random.Random) -> list[dict]:
    # e_0 and e_1 + e_2: the two-frequency shape of the acceptance tests
    freqs = [[1] + [0] * (m - 1), [0, 1, 1] + [0] * (m - 3)]
    return [
        {"frequency": k, "cos": _uniform_vector(rng, m), "sin": _uniform_vector(rng, m)}
        for k in freqs
    ]


def _spd(rng: random.Random, m: int) -> list[list[float]]:
    a = [[rng.gauss(0.0, 1.0) for _ in range(m)] for _ in range(m)]
    return [
        [sum(a[i][k] * a[j][k] for k in range(m)) / m + (0.5 if i == j else 0.0) for j in range(m)]
        for i in range(m)
    ]


def _j_invariant_metric(rng: random.Random, m: int) -> list[list[float]]:
    """g = S + J^T S J for the block-diagonal complex structure J (d1 -> d2, ...)."""
    s = _spd(rng, m)
    # J e_{2i} = e_{2i+1}, J e_{2i+1} = -e_{2i}; (J^T S J)[a][b] = sum J[c][a] S[c][d] J[d][b]
    col = {}
    for i in range(0, m, 2):
        col[i] = (i + 1, 1.0)
        col[i + 1] = (i, -1.0)
    g = [[0.0] * m for _ in range(m)]
    for a in range(m):
        ca, sa = col[a]
        for b in range(m):
            cb, sb = col[b]
            g[a][b] = s[a][b] + sa * sb * s[ca][cb]
    return [[0.5 * (g[a][b] + g[b][a]) for b in range(m)] for a in range(m)]


def make_config(w: Workload, seed: int) -> dict:
    """Config document for workload ``w`` drawn from ``seed``."""
    rng = random.Random(f"{w.name}:{seed}")
    doc: dict = {"schema": 1, "dimension": w.dimension}
    if w.command == "deform":
        doc.update(
            {
                "background": {"kind": "kaehler"},
                "order": w.order,
                "verify_t": w.verify_t,
                "verify_points": w.verify_points,
                "deformation": [{"kind": "exact-b-field", "one_form": _one_form_modes(w.dimension, rng)}],
            }
        )
    else:
        doc.update(
            {
                "background": {"kind": "kaehler", "metric": _j_invariant_metric(rng, w.dimension)},
                "frequency_box": w.frequency_box,
            }
        )
    return doc


def cli_argv(w: Workload, seed: int, config_path: str, out_dir: str) -> list[str]:
    argv = [w.command, "--config", config_path, "--out", out_dir]
    if w.command == "deform":
        argv += ["--seed", str(seed)]
    return argv
