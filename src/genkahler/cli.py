"""Batch driver: identity-verification suites and deformation runs.

Three subcommands:

* ``verify-algebra`` -- seeded random property checks of the Clifford/spin
  layer and the star operator; no config needed.
* ``verify-hodge``   -- residuals of the operator-splitting identities on a
  configured torus background.
* ``deform``         -- run the order-by-order solver on a configured
  deformation family, verify the result at a finite parameter, and write
  the series and residual artifacts.

Exit codes: 0 all checks pass, 1 identity/residual or finite-t verification
failure, 2 precondition failure, 64 usage or config error.  Reports are
deterministic for a fixed seed and config; wall-clock timings only ever
appear in the residual CSV.
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import sys
from pathlib import Path

import numpy as np

from . import clifford as cl
from . import fields as gf
from . import hodge as gh
from . import solver as sol
from . import structures as gs

SCHEMA = 1

USAGE_ERROR = 64


class ConfigError(ValueError):
    """Malformed or inconsistent configuration document."""


# ---------------------------------------------------------------------------
# canonical serialization


def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("reports must contain finite numbers")
    return format(float(x), ".17g")


def _complex_array(arr: np.ndarray) -> str:
    """Nested lists of a nonempty complex array, each entry an [re, im] pair:
    one ``%`` format pass over a template nested by the array's shape."""
    parts = np.ascontiguousarray(arr).view(float).ravel()
    if not np.isfinite(parts).all():
        raise ValueError("reports must contain finite numbers")
    template = "[%.17g, %.17g]"
    for size in reversed(arr.shape):
        template = "[" + ", ".join([template] * size) + "]"
    return template % tuple(parts.tolist())


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats,
    complex numbers as [re, im] pairs."""

    def emit(v) -> str:
        if v is None:
            return "null"
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, (float, np.floating)):
            return _format_float(float(v))
        if isinstance(v, (complex, np.complexfloating)):
            return f"[{_format_float(v.real)}, {_format_float(v.imag)}]"
        if isinstance(v, str):
            return json.dumps(v)
        if isinstance(v, np.ndarray):
            if v.dtype == complex and v.ndim and v.size:
                return _complex_array(v)
            return emit(v.tolist())
        if isinstance(v, (list, tuple)):
            return "[" + ", ".join(emit(x) for x in v) + "]"
        if isinstance(v, dict):
            items = sorted(v.items(), key=lambda kv: str(kv[0]))
            return "{" + ", ".join(f"{json.dumps(str(k))}: {emit(val)}" for k, val in items) + "}"
        raise TypeError(f"cannot serialize {type(v)!r}")

    return emit(obj) + "\n"


# ---------------------------------------------------------------------------
# config handling


def _require_keys(doc: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


def _is_int(value) -> bool:
    """JSON integer test: ``true``/``false`` load as ``bool``, never as a count."""
    return isinstance(value, int) and not isinstance(value, bool)


def _real_array(value, shape: tuple[int, ...], where: str) -> np.ndarray:
    """Finite real array of the given shape from nested JSON lists, or a ConfigError.

    Every entry must be a JSON number: numpy would read ``"1.5"`` and
    ``true`` as numbers, and a NaN would slip past later checks.
    """

    def entries(v):
        if isinstance(v, list):
            for x in v:
                yield from entries(x)
        else:
            yield v

    if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in entries(value)):
        raise ConfigError(f"{where} must contain only numbers, got {value!r}")
    try:
        arr = np.asarray(value, dtype=float)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{where} is not a numeric array: {exc}") from exc
    if arr.shape != shape:
        raise ConfigError(f"{where} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return arr


def _positive_number(value, name: str, upper: float | None = None) -> float:
    """A finite number above zero (and at most ``upper``) or a ConfigError."""
    value = float(_real_array(value, (), name))
    if value <= 0:
        raise ConfigError(f"{name} must be positive, got {value!r}")
    if upper is not None and value > upper:
        raise ConfigError(f"{name} must be at most {upper:g}, got {value!r}")
    return value


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(
        doc,
        allowed={
            "schema",
            "dimension",
            "twist",
            "background",
            "seed_spinor",
            "frequency_box",
            "order",
            "verify_t",
            "verify_points",
            "tol",
            "tol_order",
            "tol_checks",
            "deformation",
        },
        required={"schema", "dimension"},
        where="config",
    )
    if not _is_int(doc["schema"]) or doc["schema"] != SCHEMA:
        raise ConfigError(f"config schema must be {SCHEMA}, got {doc['schema']!r}")
    m = doc["dimension"]
    if not _is_int(m) or not 1 <= m <= cl.MAX_DIM:
        raise ConfigError(f"dimension must be an integer in 1..{cl.MAX_DIM}")
    return doc


def build_twist(doc: dict, m: int) -> np.ndarray | None:
    entries = doc.get("twist", [])
    if not isinstance(entries, list):
        raise ConfigError("twist must be a list of [a, b, c, value] rows")
    if not entries:
        return None
    h = np.zeros((m, m, m))
    for row in entries:
        if not (isinstance(row, list) and len(row) == 4):
            raise ConfigError("each twist row must be [a, b, c, value]")
        a, b, c, value = row
        idx = [a, b, c]
        if any(not _is_int(i) or not 0 <= i < m for i in idx) or len(set(idx)) != 3:
            raise ConfigError(f"twist axes {idx} must be three distinct integers below {m}")
        value = float(_real_array(value, (), "twist value"))
        # an overflowed sum is rejected below, so numpy is not asked to warn
        with np.errstate(over="ignore", invalid="ignore"):
            for perm, sign in (
                ((a, b, c), 1), ((b, c, a), 1), ((c, a, b), 1),
                ((b, a, c), -1), ((a, c, b), -1), ((c, b, a), -1),
            ):
                h[perm] += sign * value
    if not np.isfinite(h).all():
        raise ConfigError("twist rows add up to a three-form that is not finite")
    # the operator norms square the entries: a three-form whose norm
    # overflows is rejected here, before any operator is built from it
    with np.errstate(over="ignore"):
        size = np.linalg.norm(h)
    if not np.isfinite(size):
        raise ConfigError("twist is too large: the norm of its three-form is not finite")
    # rows that cancel leave no twist
    return h if np.any(h) else None


def build_background(doc: dict, m: int) -> gs.HermitianPair:
    block = doc.get("background", {"kind": "kaehler"})
    if not isinstance(block, dict) or "kind" not in block:
        raise ConfigError("background must be an object with a 'kind'")
    kind = block["kind"]
    if kind == "kaehler":
        _require_keys(block, {"kind", "metric"}, {"kind"}, "background")
        if m % 2:
            raise ConfigError("kaehler backgrounds need an even dimension")
        metric = _real_array(block["metric"], (m, m), "background.metric") if "metric" in block else np.eye(m)
        try:
            return gs.HermitianPair.from_kahler(gs.standard_complex_structure(m), metric)
        except ValueError as exc:
            raise ConfigError(f"background is not a valid pair: {exc}") from exc
    if kind == "explicit":
        _require_keys(
            block, {"kind", "metric", "b_field", "base_complex", "symplectic_form"}, {"kind", "metric"}, "background"
        )
        metric = _real_array(block["metric"], (m, m), "background.metric")
        b_field = _real_array(block["b_field"], (m, m), "background.b_field") if "b_field" in block else None
        has_complex = "base_complex" in block
        has_symplectic = "symplectic_form" in block
        if has_complex == has_symplectic:
            raise ConfigError("explicit backgrounds need exactly one of base_complex or symplectic_form")
        key = "base_complex" if has_complex else "symplectic_form"
        coeffs = _real_array(block[key], (m, m), f"background.{key}")
        try:
            J1 = gs.complex_structure_gcs(coeffs) if has_complex else gs.symplectic_gcs(coeffs)
            return gs.HermitianPair.from_metric(J1, metric, b_field)
        except ValueError as exc:
            raise ConfigError(f"background is not a valid pair: {exc}") from exc
    raise ConfigError(f"unknown background kind {kind!r}")


def build_seed(doc: dict, pair: gs.HermitianPair) -> tuple[np.ndarray, complex]:
    choice = doc.get("seed_spinor", "canonical")
    scale = complex(1.0)
    if choice == "canonical":
        pass
    elif isinstance(choice, dict):
        _require_keys(choice, {"scale"}, {"scale"}, "seed_spinor")
        raw = choice["scale"]
        parts = _real_array(raw, (2,) if isinstance(raw, list) else (), "seed_spinor.scale")
        scale = complex(*parts.ravel())
        if scale == 0:
            raise ConfigError("seed_spinor.scale must be nonzero")
    else:
        raise ConfigError("seed_spinor must be 'canonical' or {'scale': ...}")
    seed = scale * pair.canonical_generator(2)
    if not 0 < np.vdot(seed, seed).real < np.inf:
        raise ConfigError(f"seed_spinor.scale {abs(scale):.3g} makes the squared seed norm overflow or vanish")
    return seed, scale


#: Largest |k_i| of a config mode.  Each order multiplies the obstruction by
#: about |k|**2 times the mode's size, and its roundoff then exceeds the
#: solver's checks, which are relative to the seed norm: one exact-b-field
#: mode k e_0 with coefficients (0, 0.3, -0.2, 0.1) on T^4 solves to order 2
#: up to |k| = 114 and fails above.  Below the bound a large or high-order
#: family can still fail those checks (exit 1).
MAX_FREQUENCY = 64

#: Largest ``verify_points``.  The verifier holds the m + 1 values and
#: derivatives of every family at every point: 36 MB per family at m = 8 and
#: this bound, with a 46 MB peak while they are formed.  A larger sample
#: would run out of memory only after the whole solve.
MAX_VERIFY_POINTS = 1024

#: Largest ``verify-algebra --trials``.  A trial costs about 50 ms at
#: ``--n-max 8``, so this bound runs for about ten minutes; above it a
#: mistyped count would run for days to years.
MAX_TRIALS = 10_000


def _mode_frequency(mode: dict, m: int) -> tuple[int, ...]:
    """The frequency of a config mode, integers of at most ``MAX_FREQUENCY``
    in absolute value."""
    k = mode["frequency"]
    if not (isinstance(k, list) and len(k) == m and all(_is_int(v) and abs(v) <= MAX_FREQUENCY for v in k)):
        raise ConfigError(f"mode frequency must be {m} integers of at most {MAX_FREQUENCY} in absolute value")
    return tuple(k)


def _one_form_from_modes(modes, m: int) -> gf.FourierField:
    xi = gf.FourierField(m, m)
    if not isinstance(modes, list) or not modes:
        raise ConfigError("exact-b-field needs a non-empty list of one_form modes")
    for mode in modes:
        if not isinstance(mode, dict):
            raise ConfigError("one_form modes must be objects")
        _require_keys(mode, {"frequency", "cos", "sin"}, {"frequency"}, "one_form mode")
        key = _mode_frequency(mode, m)
        if not any(key):
            raise ConfigError("one_form modes need a nonzero frequency")
        cosv = _real_array(mode.get("cos", [0.0] * m), (m,), "one_form mode cos")
        sinv = _real_array(mode.get("sin", [0.0] * m), (m,), "one_form mode sin")
        mirror = tuple(-v for v in key)
        xi.coeffs[key] = xi[key] + 0.5 * (cosv - 1j * sinv)
        xi.coeffs[mirror] = xi[mirror] + 0.5 * (cosv + 1j * sinv)
    return xi


def _series_terms(terms, m: int) -> list[gf.FourierOperatorField | None]:
    """The per-order operator fields of an ``explicit-series`` primitive."""
    if not isinstance(terms, list) or not terms:
        raise ConfigError("explicit-series needs a non-empty list of per-order term lists")
    parsed = [None]
    for order, modes in enumerate(terms, start=1):
        if not isinstance(modes, list):
            raise ConfigError(f"explicit-series order {order} must be a list of modes")
        term = gf.FourierOperatorField(m, 2 * m)
        for mode in modes:
            if not isinstance(mode, dict):
                raise ConfigError("explicit-series modes must be objects")
            _require_keys(mode, {"frequency", "real", "imag"}, {"frequency", "real"}, "series mode")
            key = _mode_frequency(mode, m)
            mat = _real_array(mode["real"], (2 * m, 2 * m), "series mode real").astype(complex)
            if "imag" in mode:
                mat = mat + 1j * _real_array(mode["imag"], (2 * m, 2 * m), "series mode imag")
            term.coeffs[key] = term[key] + mat
        parsed.append(term)
    return parsed


def build_deformation(doc: dict, pair: gs.HermitianPair, order_cap: int) -> list[sol.SeriesSoField]:
    items = doc.get("deformation")
    if not isinstance(items, list) or not items:
        raise ConfigError("deform needs a non-empty 'deformation' list")
    m = pair.m
    factors = []
    for item in items:
        if not isinstance(item, dict) or "kind" not in item:
            raise ConfigError("each deformation primitive must be an object with a 'kind'")
        kind = item["kind"]
        # the order-j terms of the family, or of its generator for an
        # exact-b-field; an overflowing norm is reported below, before the
        # family's so(m,m) checks would warn about it
        with np.errstate(over="ignore", invalid="ignore"):
            if kind == "constant-bivector":
                _require_keys(item, {"kind", "vectors", "scale"}, {"kind", "vectors"}, "constant-bivector")
                idx = item["vectors"]
                n = m // 2
                if not (isinstance(idx, list) and len(idx) == 2 and all(_is_int(i) and 0 <= i < n for i in idx)):
                    raise ConfigError(f"constant-bivector vectors must be two indices below {n}")
                if idx[0] == idx[1]:
                    raise ConfigError("constant-bivector vectors must be distinct")
                base = -pair.J1[:m, :m]
                u = np.linalg.svd(0.5 * (np.eye(m) - 1j * base))[0][:, :n]
                biv = np.outer(u[:, idx[0]], u[:, idx[1]]) - np.outer(u[:, idx[1]], u[:, idx[0]])
                scale = float(_real_array(item.get("scale", 1.0), (), "constant-bivector scale"))
                alpha = scale * cl.bivector_so((biv + biv.conj()).real)
                terms = [None, gf.FourierOperatorField.constant(m, alpha)]
            elif kind == "exact-b-field":
                _require_keys(item, {"kind", "one_form"}, {"kind", "one_form"}, "exact-b-field")
                xi = _one_form_from_modes(item["one_form"], m)
                terms = [None, gf.one_form_differential(xi).map_values(cl.two_form_so)]
            elif kind == "explicit-series":
                _require_keys(item, {"kind", "terms"}, {"kind", "terms"}, "explicit-series")
                terms = _series_terms(item["terms"], m)
            else:
                raise ConfigError(f"unknown deformation kind {kind!r}")
            norm = sum(term.coeff_norm() for term in terms if term is not None)
        if not np.isfinite(norm):
            raise ConfigError(f"{kind} is too large: the norm of its coefficients overflows")
        try:
            if kind == "exact-b-field":
                target = sol.conjugated_structure_series(terms[1], pair.J1, order_cap)
                factors.append(sol.extract_transverse_family(pair.J1, target, order_cap))
            else:
                factors.append(sol.SeriesSoField(m, terms))
        except ValueError as exc:
            raise ConfigError(f"{kind} is not a valid family: {exc}") from exc
    return factors


def _tolerances(doc: dict, tol_override: float | None) -> dict[str, float]:
    raw = {
        "tol": doc.get("tol", 1e-9),
        "tol_order": doc.get("tol_order", 1e-9),
        "tol_checks": doc.get("tol_checks", 1e-10),
    }
    out = {name: _positive_number(value, name) for name, value in raw.items()}
    if tol_override is not None:
        override = _positive_number(tol_override, "--tol")
        out["tol"] = out["tol_order"] = override
    return out


# ---------------------------------------------------------------------------
# report plumbing


def _emit(report: dict, text_lines: list[str], out_dir: str | None, as_json: bool) -> None:
    text = "\n".join(text_lines) + "\n"
    if out_dir is not None:
        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        (path / "report.json").write_text(canonical_json(report), encoding="utf-8")
        (path / "report.txt").write_text(text, encoding="utf-8")
    sys.stdout.write(canonical_json(report) if as_json else text)


def _check_lines(checks: list[dict]) -> list[str]:
    lines = []
    for chk in checks:
        status = "PASS" if chk["pass"] else "FAIL"
        lines.append(f"{status} {chk['name']}: max_residual {chk['max_residual']:.3e} (tol {chk['tol']:.1e})")
    return lines


# ---------------------------------------------------------------------------
# verify-algebra


def _random_form(rng: np.random.Generator, m: int) -> np.ndarray:
    return rng.normal(size=cl.spinor_dim(m)) + 1j * rng.normal(size=cl.spinor_dim(m))


def _random_vector(rng: np.random.Generator, m: int) -> np.ndarray:
    return rng.normal(size=2 * m) + 1j * rng.normal(size=2 * m)


def cmd_verify_algebra(args) -> int:
    rng = np.random.default_rng(args.seed)
    n_max = args.n_max
    trials = args.trials
    tol = _positive_number(args.tol, "--tol")
    if n_max < 1 or n_max > cl.MAX_DIM:
        raise ConfigError(f"--n-max must be in 1..{cl.MAX_DIM}")
    if not 0 <= trials <= MAX_TRIALS:
        raise ConfigError(f"--trials must be in 0..{MAX_TRIALS}")

    dims = list(range(1, n_max + 1))
    even_dims = [m for m in dims if m % 2 == 0]
    results: dict[str, float] = {}

    def record(name: str, value: float) -> None:
        results[name] = max(results.get(name, 0.0), float(value))

    for trial in range(trials):
        m = dims[trial % len(dims)]
        v = _random_vector(rng, m)
        C = cl.clifford_vector_matrix(v)
        record("clifford_square", np.linalg.norm(C @ C - cl.natural_pairing(v, v) * np.eye(cl.spinor_dim(m))))

        alpha = cl.random_so_element(rng, m)
        S = cl.spin_lie_action(alpha)
        record(
            "spin_equivariance",
            np.linalg.norm(S @ C - C @ S - cl.clifford_vector_matrix(alpha @ v)),
        )
        small = 0.2 * alpha
        E = cl.so_exp(small)
        R = cl.spin_group_exp(small)
        record(
            "group_equivariance",
            np.linalg.norm(R @ C @ np.linalg.inv(R) - cl.clifford_vector_matrix(E @ v)),
        )

        f = _random_form(rng, m)
        g = _random_form(rng, m)
        sign = cl.chevalley_symmetry_sign(m)
        record(
            "pairing_symmetry",
            abs(cl.chevalley_pairing(f, g) - sign * cl.chevalley_pairing(g, f)),
        )
        record(
            "transpose_reversal",
            np.linalg.norm(
                cl.transpose_form(cl.wedge(f, g)) - cl.wedge(cl.transpose_form(g), cl.transpose_form(f))
            ),
        )

        if even_dims:
            me = even_dims[trial % len(even_dims)]
            pair = gs.random_hermitian_pair(rng, me)
            star = gs.hodge_star(pair.metric, pair.b_field, pair.orientation)
            if args.debug_flip_star_sign:
                star = -star
            vol = gs.volume_spin_element(pair.J1, pair.proj1) @ gs.volume_spin_element(pair.J2, pair.proj2)
            record("star_matches_volume_product", np.linalg.norm(star + vol) / max(np.linalg.norm(vol), 1.0))

            gram = gh.l2_gram(pair)
            record("metric_pairing_symmetric", np.linalg.norm(gram - gram.T) + np.linalg.norm(gram.imag))
            record("metric_pairing_positive", max(0.0, -float(np.min(np.linalg.eigvalsh(gram.real)))))

    checks = [
        {"name": name, "max_residual": value, "tol": tol, "pass": bool(value <= tol)}
        for name, value in sorted(results.items())
    ]
    ok = all(c["pass"] for c in checks)
    report = {
        "schema": SCHEMA,
        "suite": "verify-algebra",
        "seed": args.seed,
        "n_max": n_max,
        "trials": trials,
        "tol": tol,
        "checks": checks,
        "ok": ok,
    }
    lines = [f"suite: verify-algebra (seed {args.seed}, n_max {n_max}, trials {trials})"]
    lines += _check_lines(checks)
    lines.append(f"result: {'ok' if ok else 'FAILED'}")
    _emit(report, lines, args.out, args.json)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# verify-hodge


def _operator_residual(op: gh.BlockOperator, scale: float) -> float:
    return op.coeff_norm() / max(scale, 1e-300)


def cmd_verify_hodge(args) -> int:
    doc = load_config(args.config)
    m = doc["dimension"]
    if m % 2:
        raise ConfigError("verify-hodge needs an even dimension")
    tols = _tolerances(doc, args.tol)
    tol = tols["tol"]
    pair = build_background(doc, m)
    h = build_twist(doc, m)
    box = doc.get("frequency_box", 1)
    if not _is_int(box) or box < 1:
        raise ConfigError("frequency_box must be a positive integer")
    # every identity is a polynomial in k and is checked on the operators'
    # coefficients, so it holds at every frequency and the box (echoed in the
    # report) does not change the checks; the support is only where an
    # operator would be evaluated
    support = gh.Support([(0,) * m])

    D = gh.derivative_operator(m, support, h)
    scale = D.coeff_norm()
    if not np.isfinite(scale):
        raise ConfigError("twist is too large: the norm of the twisted derivative is not finite")
    checks: list[dict] = []
    info: dict[str, object] = {}

    def add(name: str, value: float, tol_here: float = tol) -> None:
        checks.append({"name": name, "max_residual": float(value), "tol": tol_here, "pass": bool(value <= tol_here)})

    # every graded shift: the level-one part, whose four components are kept,
    # plus the torsion part, each dropped once its norm is read (at T^8 a
    # component holds 9 MB of coefficients); untwisted, the +-3 components are
    # zero, so they are not built and the torsion levels stay 0
    comps = {shift: gh.component_operator(shift, pair, support, h) for shift in gh.DELTA_SHIFTS.values()}
    level_one = functools.reduce(operator.add, comps.values())
    full = level_one
    torsion_first = 0.0
    torsion_second = 0.0
    for shift in gh.COMPONENT_SHIFTS:
        if shift in comps or h is None:
            continue
        comp = gh.component_operator(shift, pair, support, h)
        full = full + comp
        norm = comp.coeff_norm()
        # max(0.0, nan) is 0.0: a NaN level would read as integrable
        if not np.isfinite(norm):
            raise ConfigError("twist is too large: a torsion level of the background is not finite")
        if abs(shift[0]) == 3:
            torsion_first = max(torsion_first, norm)
        if abs(shift[1]) == 3:
            torsion_second = max(torsion_second, norm)
    add("component_sum_reproduces_derivative", _operator_residual(D - full, scale))
    info["first_structure_torsion"] = torsion_first / max(scale, 1e-300)
    info["second_structure_torsion"] = torsion_second / max(scale, 1e-300)
    integrable = max(torsion_first, torsion_second) <= tol * max(scale, 1e-300)
    info["background_integrable"] = bool(integrable)

    if integrable:
        level_one_gap = _operator_residual(D - level_one, scale)
        add("level_one_components_suffice", level_one_gap)
        ops = {name: comps[shift] for name, shift in gh.DELTA_SHIFTS.items()}
        gram = gh.l2_gram(pair)
        plus_adjoint = _operator_residual(gh.adjoint(ops["delta+"], gram) + ops["delta_bar+"], scale)
        minus_adjoint = _operator_residual(gh.adjoint(ops["delta-"], gram) - ops["delta_bar-"], scale)

        # every product of two components has a closed form, which holds when
        # cl is a Clifford representation: that residual, exact on the 2m
        # ladders, is folded into every closed-form check, and the adjoint
        # residuals into every check that uses the adjoint relations
        anti = gh.anticommutators(pair, ops)
        ladder = cl.clifford_relation_residual(m)
        adjoints = (plus_adjoint, minus_adjoint)

        def closed(op: gh.ScalarQuadratic, scale_here: float, *folded: float) -> float:
            return max(op.coeff_norm() / max(scale_here, 1e-300), ladder, *folded)

        add("component_squares_vanish", max(closed(0.5 * anti[name, name], scale**2) for name in ops))
        add(
            "opposite_components_anticommute",
            max(closed(anti["delta+", other], scale**2) for other in ("delta-", "delta_bar-")),
        )
        mixed = anti["delta+", "delta_bar+"] + anti["delta-", "delta_bar-"]
        add("mixed_anticommutators_cancel", closed(mixed, scale**2))
        add("plus_adjoint_is_minus_conjugate", plus_adjoint)
        add("minus_adjoint_is_plus_conjugate", minus_adjoint)

        # the adjoint relations make delta+* = -delta_bar+ and delta-* =
        # delta_bar-, so Lap(delta+) = Lap(delta_bar+) = -{delta+, delta_bar+},
        # Lap(delta-) = Lap(delta_bar-) = {delta-, delta_bar-}, and D* is the
        # signed sum of the components, whose plain sum is D up to the
        # level-one gap
        laps = {"delta+": -anti["delta+", "delta_bar+"], "delta-": anti["delta-", "delta_bar-"]}
        sign = {"delta+": -1.0, "delta-": 1.0, "delta_bar+": -1.0, "delta_bar-": 1.0}
        lap_full = functools.reduce(operator.add, (sign[b] * anti[a, b] for a in ops for b in ops))
        ratios = [closed(lap_full - 4.0 * lap, scale**2, level_one_gap, *adjoints) for lap in laps.values()]
        add("full_laplacian_is_four_times_each", max(ratios))

        # the Green operator is the scalar 4/|k|^2_{g^-1} off k = 0: exact when
        # Lap(delta+) is scalar, equals that closed form (whose kappa_j kappa_l
        # coefficients are -g^{jl}/4 Id) and is shared by all four components
        lap = laps["delta+"]
        lap_scale = lap.coeff_norm()
        add("green_commutes_with_laplacian", max(lap.scalar_defect() / max(lap_scale, 1e-300), ladder, *adjoints))
        harmonic = gh.ScalarQuadratic(-0.25 * np.linalg.inv(pair.metric), np.zeros_like(lap.lower))
        add("green_plus_harmonic_resolve_identity", closed(lap - harmonic, lap_scale, *adjoints))
        add("green_agrees_across_components", closed(laps["delta-"] - lap, lap_scale, *adjoints))
    else:
        info["skipped_checks"] = "background not generalized Kahler: splitting identities not applicable"

    ok = all(c["pass"] for c in checks)
    report = {
        "schema": SCHEMA,
        "suite": "verify-hodge",
        "dimension": m,
        "frequency_box": box,
        "tol": tol,
        "twist": None if h is None else np.asarray(h).tolist(),
        "checks": checks,
        "info": info,
        "ok": ok,
    }
    lines = [f"suite: verify-hodge (dimension {m}, box {box})"]
    lines.append(f"first-structure torsion level: {info['first_structure_torsion']:.3e}")
    lines.append(f"second-structure torsion level: {info['second_structure_torsion']:.3e}")
    if not integrable:
        lines.append("background is not generalized Kahler; splitting identities skipped")
    lines += _check_lines(checks)
    lines.append(f"result: {'ok' if ok else 'FAILED'}")
    _emit(report, lines, args.out, args.json)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# deform


def _series_record(report: sol.SolutionReport) -> dict:
    def orders(fields, start: int, name: str) -> list[dict]:
        return [
            {"order": j, "modes": [{"frequency": list(k), name: v} for k, v in sorted(f.coeffs.items())]}
            for j, f in enumerate(fields, start=start)
        ]

    betas, psi = orders(report.betas, 1, "matrix"), orders(report.psi_series, 0, "vector")
    return {"schema": SCHEMA, "order_cap": report.order_cap, "betas": betas, "psi": psi}


def _residual_csv(report: sol.SolutionReport) -> str:
    lines = ["order,residual_norm,beta_norm,wall_ms"]
    for rec, wall in zip(report.orders, report.order_wall_ms):
        j = rec["order"]
        lines.append(f"{j},{report.residual_norms[j]:.17g},{rec['beta_norm']:.17g},{wall:.3f}")
    return "\n".join(lines) + "\n"


def _deform_failure(args, kind: str, message: str, code: int, **extra) -> int:
    """Write the report of a deform run that failed and return its exit code."""
    _emit(
        {"schema": SCHEMA, "suite": "deform", "ok": False, "error": message, **extra},
        ["suite: deform", f"{kind} failure: {message}", "result: FAILED"],
        args.out,
        args.json,
    )
    return code


def cmd_deform(args) -> int:
    doc = load_config(args.config)
    m = doc["dimension"]
    if m % 2:
        raise ConfigError("deform needs an even dimension")
    h = build_twist(doc, m)
    if h is not None:
        raise ConfigError(
            "deform needs a zero twist: a constant generalized Kahler pair on a flat torus "
            "has H = 0 (d^c_+ omega_+ = H = -d^c_- omega_-, and constant forms have d^c omega = 0)"
        )
    order_cap = args.order if args.order is not None else doc.get("order", 4)
    if not _is_int(order_cap) or not 1 <= order_cap <= sol.MAX_ORDER:
        raise ConfigError(f"order must be an integer in 1..{sol.MAX_ORDER}")
    tols = _tolerances(doc, args.tol)
    verify_t = _positive_number(doc.get("verify_t", 1e-2), "verify_t", upper=1.0)
    verify_points = doc.get("verify_points", 16)
    if not _is_int(verify_points) or not 1 <= verify_points <= MAX_VERIFY_POINTS:
        raise ConfigError(f"verify_points must be an integer in 1..{MAX_VERIFY_POINTS}")

    pair = build_background(doc, m)
    seed_spinor, scale = build_seed(doc, pair)
    factors = build_deformation(doc, pair, order_cap)

    try:
        report = sol.run_deformation(
            factors,
            pair,
            order_cap=order_cap,
            psi=seed_spinor,
            tol_order=tols["tol_order"],
            tol_checks=tols["tol_checks"],
        )
    except sol.IntegrabilityError as exc:
        return _deform_failure(args, "precondition", str(exc), 2, failed_order=exc.order)
    except ValueError as exc:
        return _deform_failure(args, "identity", str(exc), 1)

    try:
        check_full, check_half = [
            sol.verify_gk_at_t(report, t, count=verify_points, seed=args.seed) for t in (verify_t, 0.5 * verify_t)
        ]
    except ValueError as exc:
        return _deform_failure(args, "verification", str(exc), 1)
    ratio = None
    if check_half["derivative_sup"] > 0:
        ratio = check_full["derivative_sup"] / check_half["derivative_sup"]

    blob = report.as_dict()
    blob.update(
        {
            "schema": SCHEMA,
            "suite": "deform",
            "seed": args.seed,
            "seed_spinor_scale": scale,
            "tolerances": tols,
            "verification": {
                "at_t": check_full,
                "at_half_t": check_half,
                "halving_ratio": ratio,
                "expected_ratio": float(2 ** (order_cap + 1)),
            },
        }
    )

    lines = [f"suite: deform (dimension {m}, order cap {order_cap})"]
    lines.append(f"seed-spinor norm: {report.psi_norm:.6g} (scale {scale.real:+.3g}{scale.imag:+.3g}i)")
    lines.append(f"support: {len(report.support)} frequencies")
    for rec in report.orders:
        lines.append(
            f"PASS order {rec['order']}: obstruction {rec['rho_norm']:.3e} "
            f"correction {rec['beta_norm']:.3e} residual {report.residual_norms[rec['order']]:.3e}"
        )
    lines.append(
        f"verification at t={verify_t:g}: min metric eig {check_full['metric_min_eig']:.6g}, "
        f"derivative sup {check_full['derivative_sup']:.3e}"
    )
    if ratio is not None:
        lines.append(f"halving ratio: {ratio:.2f} (expected about {2 ** (order_cap + 1)})")
    lines.append("result: ok")

    _emit(blob, lines, args.out, args.json)
    if args.out is not None:
        path = Path(args.out)
        (path / "residuals.csv").write_text(_residual_csv(report), encoding="utf-8")
        (path / "series.json").write_text(canonical_json(_series_record(report)), encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# entry point


def _seed_arg(text: str) -> int:
    """A ``--seed`` value: a non-negative integer, as ``numpy.random.default_rng`` takes."""
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
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="genkahler", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    va = sub.add_parser("verify-algebra", help="seeded random checks of the Clifford/spin layer")
    va.add_argument("--seed", type=_seed_arg, default=0)
    va.add_argument("--n-max", type=int, default=3, help="largest torus dimension to draw")
    va.add_argument("--trials", type=int, default=200)
    va.add_argument("--tol", type=float, default=1e-9)
    va.add_argument("--out", type=str, default=None, help="directory for report.json / report.txt")
    va.add_argument("--json", action="store_true", help="print the JSON report instead of text")
    va.add_argument(
        "--debug-flip-star-sign",
        action="store_true",
        help="negative control: corrupt the star operator and expect failure",
    )
    va.set_defaults(func=cmd_verify_algebra)

    vh = sub.add_parser("verify-hodge", help="operator-splitting identities on a configured background")
    vh.add_argument("--config", type=str, required=True)
    vh.add_argument("--tol", type=float, default=None, help="override the config tolerance")
    vh.add_argument("--out", type=str, default=None)
    vh.add_argument("--json", action="store_true")
    vh.set_defaults(func=cmd_verify_hodge)

    df = sub.add_parser("deform", help="run the order-by-order deformation solver")
    df.add_argument("--config", type=str, required=True)
    df.add_argument("--order", type=int, default=None, help="override the config order cap")
    df.add_argument("--tol", type=float, default=None, help="override the config tolerances")
    df.add_argument("--seed", type=_seed_arg, default=0, help="sample-point seed for verification (non-negative)")
    df.add_argument("--out", type=str, default=None)
    df.add_argument("--json", action="store_true")
    df.set_defaults(func=cmd_deform)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"genkahler: config error: {exc}\n")
        return USAGE_ERROR
    except sol.IntegrabilityError as exc:
        sys.stderr.write(f"genkahler: precondition failure: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
