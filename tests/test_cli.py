"""End-to-end checks of the command line driver: exit codes, report
artifacts, and determinism."""

import itertools
import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import genkahler.clifford as cl
import genkahler.hodge as gh
import genkahler.solver as sol
import genkahler.structures as gs
from genkahler import cli
from oracles import dense_splitting_residuals


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("shape", [(6,), (2, 3)])
def test_canonical_json_complex_arrays_match_nested_lists(shape):
    """Complex arrays are written as the nested [re, im] lists they stand for."""
    parts = [-0.0, 1e-300, 5e-324, 2.0, -3.0, 0.1, 1.5, -0.0, 7.0, 1e-310, 4.0, 123456789.0]
    arr = np.array(parts).view(complex).reshape(shape)

    def nested(a):
        if a.ndim == 1:
            return [[float(c.real), float(c.imag)] for c in a]
        return [nested(row) for row in a]

    text = cli.canonical_json({"a": arr})
    assert text == cli.canonical_json({"a": nested(arr)})
    assert "[-0, 1e-300]" in text and "[4.9406564584124654e-324, 2]" in text
    for bad in (np.nan, np.inf, -np.inf):
        for part in (0, 1):
            broken = arr.copy()
            broken.reshape(-1).view(float)[2 + part] = bad
            with pytest.raises(ValueError, match="finite"):
                cli.canonical_json(broken)


def _per_float_complex_array(arr):
    """The per-float writer ``canonical_json`` used before its one-pass
    template: every float formatted alone, then joined level by level."""
    text = [format(x, ".17g") for x in np.ascontiguousarray(arr).view(float).ravel().tolist()]
    items = [f"[{re}, {im}]" for re, im in zip(text[0::2], text[1::2])]
    for size in reversed(arr.shape[1:]):
        items = ["[" + ", ".join(items[i : i + size]) + "]" for i in range(0, len(items), size)]
    return "[" + ", ".join(items) + "]"


@pytest.mark.parametrize("shape", [(1,), (3, 4), (2, 3, 4)])
def test_canonical_json_complex_arrays_match_per_float_writer(shape):
    """Byte for byte the old per-float output, on random entries mixed with
    -0.0, subnormals and +-1e308."""
    rng = np.random.default_rng(len(shape))
    parts = rng.normal(size=2 * int(np.prod(shape))) * 10.0 ** rng.integers(-20, 20, size=2 * int(np.prod(shape)))
    specials = [-0.0, 5e-324, -2.5e-310, 1e308, -1e308, 0.1]
    parts[: len(specials)] = specials[: len(parts)]
    rng.shuffle(parts)
    arr = parts.view(complex).reshape(shape)
    assert cli.canonical_json(arr) == _per_float_complex_array(arr) + "\n"


def bfield_doc(order=2):
    return {
        "schema": 1,
        "dimension": 4,
        "order": order,
        "verify_t": 0.02,
        "verify_points": 4,
        "deformation": [
            {
                "kind": "exact-b-field",
                "one_form": [
                    {"frequency": [1, 0, 0, 0], "cos": [0.0, 0.3, -0.2, 0.1]},
                    {"frequency": [0, 1, 1, 0], "cos": [0.2, 0.0, 0.0, -0.1], "sin": [0.1, 0.0, 0.0, 0.0]},
                ],
            }
        ],
    }


def test_verify_algebra_passes(tmp_path, capsys):
    out = tmp_path / "report"
    code = cli.main(["verify-algebra", "--trials", "40", "--n-max", "3", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "result: ok" in text
    report = json.loads((out / "report.json").read_text())
    assert report["ok"] is True
    assert report["trials"] == 40
    names = {c["name"] for c in report["checks"]}
    assert {"clifford_square", "spin_equivariance", "star_matches_volume_product"} <= names
    assert all(c["pass"] for c in report["checks"])
    assert "PASS clifford_square" in (out / "report.txt").read_text()


def test_verify_algebra_zero_trials_is_empty_pass(capsys):
    code = cli.main(["verify-algebra", "--trials", "0", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["checks"] == [] and report["ok"] is True


def test_verify_algebra_negative_control_fails(capsys):
    code = cli.main(["verify-algebra", "--trials", "20", "--debug-flip-star-sign", "--json"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    bad = [c["name"] for c in report["checks"] if not c["pass"]]
    assert bad == ["star_matches_volume_product"]


def test_usage_errors_exit_64(tmp_path):
    with pytest.raises(SystemExit) as info:
        cli.main(["no-such-command"])
    assert info.value.code == 64
    with pytest.raises(SystemExit) as info:
        cli.main(["deform"])  # --config is required
    assert info.value.code == 64
    with pytest.raises(SystemExit) as info:
        cli.main(["verify-algebra", "--trials", "not-a-number"])
    assert info.value.code == 64


@pytest.mark.parametrize(
    "doc",
    [
        {"schema": 1, "dimension": 4, "mystery": 1},
        {"schema": 99, "dimension": 4},
        {"schema": 1, "dimension": 0},
        {"schema": 1, "dimension": 4, "twist": [[0, 1, 1, 0.5]]},
        {"schema": 1, "dimension": 4, "deformation": []},
        {"schema": 1, "dimension": 4, "deformation": [{"kind": "wormhole"}]},
        {"schema": 1, "dimension": 4, "background": {"kind": "explicit"}},
        {"schema": 1, "dimension": 3},  # odd dimension cannot carry a pair
    ],
)
def test_config_errors_exit_64(tmp_path, doc, capsys):
    code = cli.main(["deform", "--config", write_config(tmp_path, doc)])
    assert code == 64
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("verify_t", "abc"),
        ("verify_t", float("nan")),
        ("verify_t", 1e6),
        ("verify_t", -0.01),
        ("tol", "x"),
        ("tol_order", float("inf")),
        ("tol_checks", True),
        ("order", True),
        ("schema", True),
        ("dimension", True),
        ("verify_points", True),
    ],
)
def test_deform_rejects_bad_scalar(tmp_path, capsys, key, value):
    doc = bfield_doc()
    doc[key] = value
    code = cli.main(["deform", "--config", write_config(tmp_path, doc)])
    assert code == 64
    assert f"{key} must" in capsys.readouterr().err


def _with(doc, path, value):
    """Copy of ``doc`` with the entry at ``path`` (keys and indices) replaced."""
    doc = json.loads(json.dumps(doc))
    *head, last = path
    holder = doc
    for key in head:
        holder = holder[key]
    holder[last] = value
    return doc


def bivector_doc():
    return {**bfield_doc(), "deformation": [{"kind": "constant-bivector", "vectors": [0, 1]}]}


@pytest.mark.parametrize(
    "doc",
    [
        _with(bfield_doc(), ["seed_spinor"], {"scale": ["a", 1]}),
        _with(bfield_doc(), ["deformation", 0, "one_form", 0, "cos"], ["a", 0.3, -0.2, 0.1]),
        _with(bivector_doc(), ["deformation", 0, "scale"], "a"),
        _with(bfield_doc(), ["background"], {"kind": "kaehler", "metric": [["a", 0, 0, 0]] + np.eye(4)[1:].tolist()}),
        _with(bfield_doc(), ["twist"], [[0, 1, 2, "a"]]),
        _with(bfield_doc(), ["seed_spinor"], {"scale": float("nan")}),
        _with(bfield_doc(), ["seed_spinor"], {"scale": True}),
        _with(bfield_doc(), ["deformation", 0, "one_form", 0, "cos"], [float("nan"), 0, 0, 0]),
    ],
    ids=["scale-string", "cos-string", "bivector-scale-string", "metric-string", "twist-string",
         "scale-nan", "scale-bool", "cos-nan"],
)
def test_deform_rejects_hostile_values(tmp_path, capsys, doc):
    code = cli.main(["deform", "--config", write_config(tmp_path, doc)])
    assert code == 64
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify-hodge", "deform"])
@pytest.mark.parametrize(
    "key, value",
    [
        ("symplectic_form", np.zeros((4, 4)).tolist()),
        ("symplectic_form", np.kron(np.eye(2), [[0, 1], [1, 0]]).tolist()),
        ("base_complex", np.eye(4).tolist()),
    ],
    ids=["zero-symplectic", "symmetric-symplectic", "identity-complex"],
)
def test_explicit_background_that_is_not_a_structure_exits_64(tmp_path, capsys, command, key, value):
    base = bfield_doc() if command == "deform" else {"schema": 1, "dimension": 4}
    doc = {**base, "background": {"kind": "explicit", "metric": np.eye(4).tolist(), key: value}}
    assert cli.main([command, "--config", write_config(tmp_path, doc)]) == 64
    captured = capsys.readouterr()
    assert "config error: background is not a valid pair" in captured.err and captured.out == ""


def test_verify_hodge_rejects_twist_rows_that_overflow(tmp_path, capsys):
    doc = {"schema": 1, "dimension": 4, "twist": [[0, 1, 2, 1e308], [0, 1, 2, 1e308]]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["verify-hodge", "--config", write_config(tmp_path, doc)]) == 64
    assert "twist rows add up to a three-form that is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("m", [4, 8])
def test_verify_hodge_rejects_a_twist_whose_norm_overflows(tmp_path, capsys, m):
    """One finite row of 1e308: the three-form's norm overflows, which used
    to give NaN torsion levels read as integrable and eleven NaN checks."""
    doc = {"schema": 1, "dimension": m, "twist": [[0, 1, 2, 1e308]]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["verify-hodge", "--config", write_config(tmp_path, doc)]) == 64
    captured = capsys.readouterr()
    assert "config error: twist is too large" in captured.err and captured.out == ""


def test_deform_rejects_a_one_form_whose_norm_overflows(tmp_path, capsys):
    # dx1^dx2 is (1,1) for the standard complex structure, so this family is
    # the identity at any size; at 1e200 its norm is not representable
    doc = {
        "schema": 1,
        "dimension": 4,
        "order": 2,
        "deformation": [{"kind": "exact-b-field", "one_form": [{"frequency": [1, 0, 0, 0], "cos": [0, 1e200, 0, 0]}]}],
    }
    assert cli.main(["deform", "--config", write_config(tmp_path, doc)]) == 64
    captured = capsys.readouterr()
    assert "too large" in captured.err and "result: ok" not in captured.out


HUGE_ROTATION = np.kron(np.eye(2), 1e300 * gs.standard_complex_structure(4)).tolist()


@pytest.mark.parametrize(
    "item",
    [
        {"kind": "constant-bivector", "vectors": [0, 1], "scale": 1e300},
        {"kind": "exact-b-field", "one_form": [{"frequency": [1, 0, 0, 0], "cos": [0, 1e300, 0, 0]}]},
        {"kind": "explicit-series", "terms": [[{"frequency": [0, 0, 0, 0], "real": HUGE_ROTATION}]]},
    ],
    ids=lambda item: item["kind"],
)
def test_deform_rejects_a_family_whose_norm_overflows(tmp_path, item):
    """A family whose coefficient norm overflows is a config error naming its
    kind, raised before the family's so(m,m) checks would warn: exit 64 with
    no traceback and no numpy warning."""
    doc = {"schema": 1, "dimension": 4, "order": 1, "deformation": [item]}
    argv = ["deform", "--config", write_config(tmp_path, doc)]
    proc = subprocess.run([sys.executable, "-m", "genkahler.cli", *argv], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 64 and proc.stdout == ""
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
    assert f"config error: {item['kind']} is too large" in proc.stderr


def frequency_doc(kind, k):
    """m=4, order 2, one mode of ``kind`` at the frequency ``k e_0``."""
    if kind == "exact-b-field":
        item = {"kind": kind, "one_form": [{"frequency": [k, 0, 0, 0], "cos": [0.0, 0.3, -0.2, 0.1]}]}
    else:
        item = {"kind": kind, "terms": [[{"frequency": [k, 0, 0, 0], "real": np.zeros((8, 8)).tolist()}]]}
    return {"schema": 1, "dimension": 4, "order": 2, "deformation": [item]}


@pytest.mark.parametrize("k", [10**400, 2**53 + 1, -(2**53) - 1], ids=["1e400", "2^53+1", "-2^53-1"])
@pytest.mark.parametrize("kind", ["exact-b-field", "explicit-series"])
def test_deform_rejects_a_frequency_that_is_not_exact_as_a_float(tmp_path, capsys, kind, k):
    """The solver holds frequencies as floats: an entry beyond 2**53 is a
    config error, not an OverflowError traceback or a rounded frequency."""
    assert cli.main(["deform", "--config", write_config(tmp_path, frequency_doc(kind, k))]) == 64
    captured = capsys.readouterr()
    assert "config error" in captured.err and f"at most {cli.MAX_FREQUENCY}" in captured.err
    assert "result: ok" not in captured.out


def test_deform_accepts_a_frequency_at_the_bound(tmp_path, capsys):
    assert cli.main(["deform", "--config", write_config(tmp_path, frequency_doc("explicit-series", cli.MAX_FREQUENCY))]) == 0
    assert "result: ok" in capsys.readouterr().out


@pytest.mark.parametrize("kind", ["exact-b-field", "explicit-series"])
def test_deform_frequency_bound_has_two_sides(tmp_path, capsys, monkeypatch, kind):
    """At the bound an exact-b-field mode still solves (this shape solves up
    to |k| = 114 at order 2); one above it, and at 2**40, where the solver
    would fail late with an order-1 identity failure, both kinds are config
    errors raised before the solver runs."""
    assert cli.main(["deform", "--config", write_config(tmp_path, frequency_doc(kind, cli.MAX_FREQUENCY))]) == 0
    assert "result: ok" in capsys.readouterr().out

    def refuse(*args, **kwargs):
        raise AssertionError("solver ran on a config with an unresolvable frequency")

    monkeypatch.setattr(sol, "run_deformation", refuse)
    for k in (cli.MAX_FREQUENCY + 1, -cli.MAX_FREQUENCY - 1, 2**40):
        assert cli.main(["deform", "--config", write_config(tmp_path, frequency_doc(kind, k))]) == 64
        assert f"at most {cli.MAX_FREQUENCY} in absolute value" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["deform", "verify-algebra"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, monkeypatch, command):
    """numpy's generator and ``uniform_points`` take only non-negative
    seeds: a negative ``--seed`` exits 64 with a message before any work."""

    def refuse(args):
        raise AssertionError("a command ran with a negative seed")

    monkeypatch.setattr(cli, "cmd_deform", refuse)
    monkeypatch.setattr(cli, "cmd_verify_algebra", refuse)
    argv = [command, "--seed", "-1"]
    if command == "deform":
        argv += ["--config", write_config(tmp_path, bfield_doc())]
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 64
    assert "seed must be a non-negative integer" in capsys.readouterr().err


def test_deform_on_a_symplectic_type_first_structure(tmp_path, capsys):
    """An explicit background whose first structure is of symplectic type
    (identity metric, standard form) under a two-mode exact b-field: every
    order is corrected, and halving t divides the defect by about 2^5,
    inside the band of acceptance test 7."""
    doc = {
        **bfield_doc(order=4),
        "verify_t": 0.05,
        "verify_points": 16,
        "background": {
            "kind": "explicit",
            "metric": np.eye(4).tolist(),
            "symplectic_form": gs.standard_symplectic_form(4).tolist(),
        },
    }
    doc["deformation"][0]["one_form"] = [
        {"frequency": [1, 0, 0, 0], "cos": [0.0, 0.3, -0.2, 0.1]},
        {"frequency": [0, 1, 1, 0], "sin": [0.15, 0.0, 0.1, -0.25]},
    ]
    assert cli.main(["deform", "--config", write_config(tmp_path, doc), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert all(rec["beta_norm"] > 1e-5 for rec in report["orders"])
    assert report["verification"]["expected_ratio"] == 32
    assert 24.0 <= report["verification"]["halving_ratio"] <= 40.0


@pytest.mark.parametrize("mode", [[], ["--json"], ["--out", "OUT"]], ids=["text", "json", "out"])
def test_deform_rejects_an_overflowing_seed_scale(tmp_path, capsys, mode):
    doc = {**bfield_doc(), "seed_spinor": {"scale": 1e300}}
    argv = [str(tmp_path / "out") if a == "OUT" else a for a in mode]
    assert cli.main(["deform", "--config", write_config(tmp_path, doc), *argv]) == 64
    captured = capsys.readouterr()
    assert "seed_spinor.scale" in captured.err and "overflow" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_deform_rejects_a_nonzero_twist(tmp_path, capsys):
    doc = {**bfield_doc(), "twist": [[0, 1, 2, 0.4]]}
    assert cli.main(["deform", "--config", write_config(tmp_path, doc)]) == 64
    err = capsys.readouterr().err
    assert "config error" in err and "zero twist" in err and "H = 0" in err


def test_deform_runs_a_twist_that_cancels(tmp_path, capsys):
    doc = {**bfield_doc(), "twist": [[0, 1, 2, 0.4], [0, 1, 2, -0.4]]}
    assert cli.main(["deform", "--config", write_config(tmp_path, doc), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True and "twist" not in report


def test_deform_rejects_bad_tol_override(tmp_path, capsys):
    code = cli.main(["deform", "--config", write_config(tmp_path, bfield_doc()), "--tol", "nan"])
    assert code == 64
    assert "--tol must" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_verify_algebra_rejects_bad_tol(capsys, tol):
    """``--tol`` goes through the check that deform and verify-hodge use:
    exit 64 with a message, not exit 1 with every check marked FAIL."""
    assert cli.main(["verify-algebra", "--trials", "1", "--tol", tol]) == 64
    captured = capsys.readouterr()
    assert "--tol must" in captured.err and captured.out == ""


class _Accepted(Exception):
    pass


@pytest.mark.parametrize(
    "count, accepted", [(cli.MAX_VERIFY_POINTS, True), (cli.MAX_VERIFY_POINTS + 1, False), (10**9, False)]
)
def test_deform_bounds_verify_points(tmp_path, capsys, monkeypatch, count, accepted):
    """``verify_points`` up to ``MAX_VERIFY_POINTS`` passes validation, and a
    larger value exits 64 before any work: the background is never built."""

    def reached(doc, m):
        raise _Accepted

    monkeypatch.setattr(cli, "build_background", reached)
    cfg = write_config(tmp_path, {**bfield_doc(), "verify_points": count})
    if accepted:
        with pytest.raises(_Accepted):
            cli.main(["deform", "--config", cfg])
    else:
        assert cli.main(["deform", "--config", cfg]) == 64
        assert f"verify_points must be an integer in 1..{cli.MAX_VERIFY_POINTS}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "trials, accepted", [(cli.MAX_TRIALS, True), (cli.MAX_TRIALS + 1, False), (10**9, False), (-1, False)]
)
def test_verify_algebra_bounds_trials(capsys, monkeypatch, trials, accepted):
    """``--trials`` up to ``MAX_TRIALS`` reaches the trial loop, and a count
    outside 0..MAX_TRIALS exits 64 before the first trial; the loop is
    stubbed, so no trial runs."""

    def reached(rng, m):
        raise _Accepted

    monkeypatch.setattr(cli, "_random_vector", reached)
    argv = ["verify-algebra", "--trials", str(trials)]
    if accepted:
        with pytest.raises(_Accepted):
            cli.main(argv)
    else:
        assert cli.main(argv) == 64
        captured = capsys.readouterr()
        assert f"--trials must be in 0..{cli.MAX_TRIALS}" in captured.err and captured.out == ""


def test_verify_hodge_rejects_boolean_frequency_box(tmp_path, capsys):
    doc = {"schema": 1, "dimension": 2, "frequency_box": True}
    code = cli.main(["verify-hodge", "--config", write_config(tmp_path, doc)])
    assert code == 64
    assert "frequency_box must" in capsys.readouterr().err


def test_unparseable_config_exits_64(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli.main(["deform", "--config", str(path)]) == 64
    assert cli.main(["verify-hodge", "--config", str(tmp_path / "missing.json")]) == 64
    capsys.readouterr()


def test_verify_hodge_flat_kahler_two_torus(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema": 1, "dimension": 2, "frequency_box": 2})
    code = cli.main(["verify-hodge", "--config", cfg, "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    names = {c["name"] for c in report["checks"]}
    assert "full_laplacian_is_four_times_each" in names
    assert "plus_adjoint_is_minus_conjugate" in names
    assert report["info"]["background_integrable"] is True
    assert max(c["max_residual"] for c in report["checks"]) < 1e-9


def test_verify_hodge_twisted_background_reports_torsion(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema": 1, "dimension": 4, "twist": [[0, 1, 2, 0.4]]})
    code = cli.main(["verify-hodge", "--config", cfg, "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    info = report["info"]
    assert info["background_integrable"] is False
    assert info["first_structure_torsion"] < 1e-12
    assert info["second_structure_torsion"] > 1e-3
    names = {c["name"] for c in report["checks"]}
    assert names == {"component_sum_reproduces_derivative"}


def test_verify_hodge_twist_that_cancels_is_no_twist(tmp_path, capsys):
    """Rows that cancel (a permuted triple with the same value) give no
    twist: the report says null and runs every untwisted check."""
    reports = {}
    for label, twist in (("none", []), ("cancelling", [[0, 1, 2, 0.5], [1, 0, 2, 0.5]])):
        cfg = write_config(tmp_path, {"schema": 1, "dimension": 4, "twist": twist})
        assert cli.main(["verify-hodge", "--config", cfg, "--json"]) == 0
        reports[label] = json.loads(capsys.readouterr().out)
    assert reports["cancelling"]["twist"] is None
    names = [[c["name"] for c in r["checks"]] for r in reports.values()]
    assert names[0] == names[1] and len(names[0]) == 11


def run_verify_hodge(tmp_path, capsys, doc):
    code = cli.main(["verify-hodge", "--config", write_config(tmp_path, doc), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == (0 if report["ok"] else 1)
    return report


def j_invariant(rng, m, symmetric):
    """A random symmetric positive (or antisymmetric) matrix ``A`` with
    ``J^T A J = A`` for the standard complex structure ``J``."""
    J = gs.standard_complex_structure(m)
    a = rng.normal(size=(m, m))
    a = a @ a.T / m + 0.5 * np.eye(m) if symmetric else a - a.T
    return 0.5 * (a + J.T @ a @ J)


def test_verify_hodge_checks_do_not_depend_on_the_box(tmp_path, capsys):
    """The identities are checked on coefficients, so they hold at every
    frequency: the box is echoed but changes nothing, even at a size whose
    frequencies could never be enumerated."""
    metric = j_invariant(np.random.default_rng(3), 4, True)
    base = {"schema": 1, "dimension": 4, "background": {"kind": "kaehler", "metric": metric.tolist()}}
    reports = {box: run_verify_hodge(tmp_path, capsys, {**base, "frequency_box": box}) for box in (1, 3, 10**6)}
    for box, report in reports.items():
        assert report["ok"] is True and report["frequency_box"] == box
        assert report["checks"] == reports[1]["checks"]
        assert report["info"] == reports[1]["info"]
    assert len(reports[1]["checks"]) == 11


def bfield_background_t6():
    """An explicit T^6 background with a non-identity metric and a nonzero
    b-field, both J-invariant."""
    rng = np.random.default_rng(6)
    b_field = j_invariant(rng, 6, False)
    assert np.linalg.norm(b_field) > 0.5
    return {
        "kind": "explicit",
        "metric": j_invariant(rng, 6, True).tolist(),
        "b_field": b_field.tolist(),
        "base_complex": gs.standard_complex_structure(6).tolist(),
    }


def test_verify_hodge_explicit_bfield_background_t6(tmp_path, capsys):
    """Every splitting identity holds on an explicit T^6 b-field background."""
    report = run_verify_hodge(tmp_path, capsys, {"schema": 1, "dimension": 6, "background": bfield_background_t6()})
    assert report["ok"] is True and report["info"]["background_integrable"] is True
    assert len(report["checks"]) == 11
    assert all(c["pass"] for c in report["checks"])


@pytest.mark.parametrize("m", [4, 6])
def test_verify_hodge_constant_three_forms_are_not_integrable(tmp_path, capsys, m):
    """A nonzero constant twist is never integrable on a flat torus, which is
    why the library has no twisted Green operator."""
    rng = np.random.default_rng(30 + m)
    triples = list(itertools.combinations(range(m), 3))
    for _ in range(3):
        values = rng.normal(size=len(triples))
        values /= np.linalg.norm(values)
        twist = [[*t, float(v)] for t, v in zip(triples, values)]
        report = run_verify_hodge(tmp_path, capsys, {"schema": 1, "dimension": m, "twist": twist})
        info = report["info"]
        assert info["background_integrable"] is False
        assert max(info["first_structure_torsion"], info["second_structure_torsion"]) > 1e-2
        assert [c["name"] for c in report["checks"]] == ["component_sum_reproduces_derivative"]


TINY_TWIST = [[0, 1, 2, 1e-13]]


def verify_hodge_on(tmp_path, capsys, monkeypatch, pair, twist=None):
    """``verify-hodge --json`` on a given pair (and twist) and its report."""
    monkeypatch.setattr(cli, "build_background", lambda doc, m: pair)
    doc = {"schema": 1, "dimension": pair.m, **({"twist": twist} if twist else {})}
    return run_verify_hodge(tmp_path, capsys, doc)


def splitting_pairs(m):
    """A Kahler pair with a J-invariant metric, a b-field pair and a random pair."""
    rng = np.random.default_rng(70 + m)
    J = gs.standard_complex_structure(m)
    bfield = gs.HermitianPair.from_metric(
        gs.complex_structure_gcs(J), j_invariant(rng, m, True), j_invariant(rng, m, False)
    )
    return {
        "kaehler": gs.HermitianPair.from_kahler(J, j_invariant(rng, m, True)),
        "bfield": bfield,
        "random": gs.random_hermitian_pair(rng, m),
    }


def assert_matches_dense_oracle(pair, report, h=None):
    """Every splitting residual of the report equals the dense route's to 1e-13
    of the residual's scale: the derivative's coefficient norm to the power of
    the operator's degree in it (a Green residual is divided by the norm of
    Lap(delta+), so it is first put back in units of that scale squared)."""
    residuals, units = dense_splitting_residuals(pair, h)
    got = {c["name"]: c["max_residual"] for c in report["checks"]}
    for name, want in residuals.items():
        assert abs(got[name] - want) * units[name] <= 1e-13, (name, got[name], want)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_verify_hodge_closed_form_matches_dense_oracle(tmp_path, capsys, monkeypatch, m):
    """The closed-form splitting checks reproduce the dense coefficient
    products on Kahler, b-field and random pairs, untwisted and, from T^4 on,
    with a twist of 1e-13, which passes the torsion test."""
    for label, pair in splitting_pairs(m).items():
        for twist in [None] + ([TINY_TWIST] if m >= 4 else []):
            report = verify_hodge_on(tmp_path, capsys, monkeypatch, pair, twist)
            assert report["info"]["background_integrable"] is True, label
            assert len(report["checks"]) == 11 and report["ok"] is True, label
            assert_matches_dense_oracle(pair, report, cli.build_twist({"twist": twist}, m) if twist else None)


@pytest.mark.parametrize("m", [4, 6])
def test_verify_hodge_tiny_twist_keeps_the_lower_degree_terms(tmp_path, capsys, m):
    """A twist of 1e-13 on the default background is integrable at the
    tolerance: the constant terms of the components enter every product, and
    the closed form carries them (their products are nonzero at 1e-14)."""
    report = run_verify_hodge(tmp_path, capsys, {"schema": 1, "dimension": m, "twist": TINY_TWIST})
    assert report["info"]["background_integrable"] is True
    assert len(report["checks"]) == 11 and all(c["pass"] for c in report["checks"])
    got = {c["name"]: c["max_residual"] for c in report["checks"]}
    assert got["green_commutes_with_laplacian"] > 1e-15
    pair = gs.HermitianPair.from_kahler(gs.standard_complex_structure(m), np.eye(m))
    assert_matches_dense_oracle(pair, report, cli.build_twist({"twist": TINY_TWIST}, m))


CLOSED_FORM_CHECKS = [
    "component_squares_vanish",
    "opposite_components_anticommute",
    "mixed_anticommutators_cancel",
    "full_laplacian_is_four_times_each",
    "green_commutes_with_laplacian",
    "green_plus_harmonic_resolve_identity",
    "green_agrees_across_components",
]


def failed_checks(report):
    return {c["name"] for c in report["checks"] if not c["pass"]}


def test_verify_hodge_closed_form_sees_a_broken_clifford_ladder(tmp_path, capsys, monkeypatch):
    """One flipped ladder sign makes cl no Clifford representation; the
    closed forms assume one, so every closed-form check fails."""
    pair = gs.HermitianPair.from_kahler(gs.standard_complex_structure(4), np.eye(4))
    tables = cl._ladder_tables
    source, signs = tables(4)
    bad = signs.copy()
    bad[1, 2, np.flatnonzero(bad[1, 2])[0]] *= -1
    monkeypatch.setattr(cl, "_ladder_tables", lambda m: (source, bad) if m == 4 else tables(m))
    report = verify_hodge_on(tmp_path, capsys, monkeypatch, pair)
    assert report["ok"] is False
    assert failed_checks(report) >= set(CLOSED_FORM_CHECKS)


def test_verify_hodge_closed_form_sees_a_corrupted_component(tmp_path, capsys, monkeypatch):
    """One wrong coefficient of delta_bar+ breaks its adjoint relation, and
    the Laplacian and Green checks, which use that relation, fail with it."""
    build = gh.component_operator

    def corrupted(shift, pair, support, h=None):
        op = build(shift, pair, support, h)
        if tuple(shift) == (-1, -1):
            op.coeffs[0, 0, 1] += 1e-3
        return op

    monkeypatch.setattr(gh, "component_operator", corrupted)
    report = run_verify_hodge(tmp_path, capsys, {"schema": 1, "dimension": 4})
    assert failed_checks(report) >= {
        "plus_adjoint_is_minus_conjugate",
        "full_laplacian_is_four_times_each",
        "green_commutes_with_laplacian",
        "green_plus_harmonic_resolve_identity",
        "green_agrees_across_components",
    }


def test_verify_hodge_forms_no_dense_product(tmp_path, capsys, monkeypatch):
    """verify-hodge multiplies no coefficient operators, on the benchmark's
    T^4 shape and on a T^6 b-field background, and an untwisted T^8 run at
    frequency_box 2 passes all eleven checks; the counters do count, as the
    dense oracle shows."""
    calls = {"matmul": 0, "laplacian": 0}
    matmul, laplacian = gh.BlockOperator.__matmul__, gh.laplacian

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(gh.BlockOperator, "__matmul__", counted("matmul", matmul))
    monkeypatch.setattr(gh, "laplacian", counted("laplacian", laplacian))
    metric = j_invariant(np.random.default_rng(4), 4, True)
    background = {"kind": "kaehler", "metric": metric.tolist()}
    shape = {"schema": 1, "dimension": 4, "frequency_box": 3, "background": background}
    assert run_verify_hodge(tmp_path, capsys, shape)["ok"] is True
    bfield = {"schema": 1, "dimension": 6, "background": bfield_background_t6()}
    assert run_verify_hodge(tmp_path, capsys, bfield)["ok"] is True
    report = run_verify_hodge(tmp_path, capsys, {"schema": 1, "dimension": 8, "frequency_box": 2})
    assert len(report["checks"]) == 11 and all(c["pass"] for c in report["checks"])
    assert calls == {"matmul": 0, "laplacian": 0}
    dense_splitting_residuals(splitting_pairs(2)["random"])
    assert calls["matmul"] > 0 and calls["laplacian"] > 0


def test_deform_trivial_bivector_all_orders_vanish(tmp_path, capsys):
    doc = {
        "schema": 1,
        "dimension": 4,
        "order": 4,
        "verify_points": 4,
        "deformation": [{"kind": "constant-bivector", "vectors": [0, 1]}],
    }
    out = tmp_path / "run"
    code = cli.main(["deform", "--config", write_config(tmp_path, doc), "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    rows = (out / "residuals.csv").read_text().strip().splitlines()
    assert rows[0] == "order,residual_norm,beta_norm,wall_ms"
    assert len(rows) == 5
    for row in rows[1:]:
        order, residual, beta, wall = row.split(",")
        assert float(residual) == 0.0 and float(beta) == 0.0
        assert float(wall) >= 0.0
    series = json.loads((out / "series.json").read_text())
    assert all(entry["modes"] == [] for entry in series["betas"])
    assert series["psi"][0]["modes"][0]["frequency"] == [0, 0, 0, 0]


def test_deform_bfield_artifacts_and_determinism(tmp_path, capsys):
    cfg = write_config(tmp_path, bfield_doc())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["deform", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["deform", "--config", cfg, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "series.json").read_bytes() == (out2 / "series.json").read_bytes()

    report = json.loads((out1 / "report.json").read_text())
    assert report["ok"] is True
    assert report["orders"][0]["beta_norm"] > 1e-3
    assert "wall" not in (out1 / "report.json").read_text()
    assert report["verification"]["halving_ratio"] == pytest.approx(8.0, rel=0.2)
    assert report["tolerances"]["tol_order"] == pytest.approx(1e-9)

    series = json.loads((out1 / "series.json").read_text())
    first = series["betas"][0]["modes"]
    assert first, "first-order correction must carry modes"
    entry = first[0]["matrix"][0][0]
    assert isinstance(entry, list) and len(entry) == 2


def test_deform_order_and_tol_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path, bfield_doc(order=3))
    code = cli.main(["deform", "--config", cfg, "--order", "1", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["order_cap"] == 1 and len(report["orders"]) == 1
    assert cli.main(["deform", "--config", cfg, "--tol", "1e-30"]) == 1
    assert "identity failure" in capsys.readouterr().out


def test_deform_modulated_bivector_precondition_exit_2(tmp_path, capsys):
    pair = gs.standard_kahler_pair(4)
    base = -pair.J1[:4, :4]
    u = np.linalg.svd(0.5 * (np.eye(4) - 1j * base))[0][:, :2]
    biv = np.outer(u[:, 0], u[:, 1]) - np.outer(u[:, 1], u[:, 0])
    alpha = 0.5 * cl.bivector_so((biv + biv.conj()).real)
    mode = lambda k: {"frequency": k, "real": alpha.real.tolist(), "imag": alpha.imag.tolist()}
    doc = {
        "schema": 1,
        "dimension": 4,
        "order": 2,
        "deformation": [
            {"kind": "explicit-series", "terms": [[mode([1, 0, 0, 0]), mode([-1, 0, 0, 0])]]}
        ],
    }
    out = tmp_path / "run"
    code = cli.main(["deform", "--config", write_config(tmp_path, doc), "--out", str(out)])
    assert code == 2
    assert "precondition failure" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["ok"] is False and report["failed_order"] == 1


def test_console_module_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "genkahler.cli", "verify-algebra", "--trials", "5", "--n-max", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "result: ok" in proc.stdout


def test_cli_import_leaves_scipy_unloaded():
    """scipy is a test-only dependency; the command line must run without it."""
    code = "import sys, genkahler.cli; sys.exit('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr or "genkahler.cli imported scipy"


def test_deform_loads_no_numpy_random(tmp_path):
    """The verification points come from ``uniform_points``, so a deform
    run imports neither ``numpy.random`` nor the OpenSSL hashing it loads."""
    config = write_config(tmp_path, bfield_doc())
    code = (
        "import sys\n"
        "from genkahler import cli\n"
        f"assert cli.main(['deform', '--config', {config!r}, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "sys.exit(' '.join(sorted({'numpy.random', '_hashlib'} & set(sys.modules))) or None)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def readme_config():
    """The config example of README.md (its first JSON block)."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return json.loads(text.split("```json\n", 1)[1].split("```", 1)[0])


@pytest.mark.parametrize("argv", [["deform", "--order", "2"], ["verify-hodge"]])
def test_readme_config_example_runs(tmp_path, capsys, argv):
    path = write_config(tmp_path, readme_config())
    assert cli.main([*argv, "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert "result: ok" in capsys.readouterr().out


def overflow_doc(c):
    """m=4, order 2, verified at t = 1 with one-form modes of size ``c``."""
    modes = [{"frequency": [1, 0, 0, 0], "cos": [0, c, -c, c]}, {"frequency": [0, 1, 1, 0], "sin": [c, 0, c, -c]}]
    return {
        "schema": 1,
        "dimension": 4,
        "order": 2,
        "verify_t": 1.0,
        "deformation": [{"kind": "exact-b-field", "one_form": modes}],
    }


@pytest.mark.parametrize(
    "c, message",
    [(3, None), (30, "induced metric is not positive at t=1"), (300, "the transported structures at t=1 are not finite")],
)
def test_deform_verification_failure_exits_1(tmp_path, c, message):
    """The solve passes at every size; at c = 30 the induced metric at t = 1
    is indefinite and at c = 300 the exponentials overflow.  Both end in a
    verification failure report, not a traceback, a numpy warning or
    ``result: ok``."""
    out = tmp_path / "run"
    argv = ["deform", "--config", write_config(tmp_path, overflow_doc(c)), "--out", str(out)]
    proc = subprocess.run([sys.executable, "-m", "genkahler.cli", *argv], capture_output=True, text=True)
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    report = json.loads((out / "report.json").read_text())
    if message is None:
        assert proc.returncode == 0 and report["ok"] is True
        assert "result: ok" in proc.stdout
    else:
        assert proc.returncode == 1 and report["ok"] is False
        assert f"verification failure: {message}" in proc.stdout
        assert message in report["error"]


def test_deform_stops_a_large_rotation_at_the_jet_step_cap(tmp_path):
    """The constant rotation ``[[A, 0], [0, A]]``, ``A = 1e12 J``, keeps the
    pair and solves; verifying it would take about 9 days per point.  It
    ends within seconds in a verification failure that names the step count
    and the budget, with no traceback."""
    rotation = np.kron(np.eye(2), 1e12 * gs.standard_complex_structure(4))
    doc = {
        "schema": 1,
        "dimension": 4,
        "order": 1,
        "verify_points": 1,
        "deformation": [{"kind": "explicit-series", "terms": [[{"frequency": [0, 0, 0, 0], "real": rotation.tolist()}]]}],
    }
    argv = ["deform", "--config", write_config(tmp_path, doc)]
    proc = subprocess.run([sys.executable, "-m", "genkahler.cli", *argv], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    message = rf"verification failure: jet exponential needs 20000000000 steps, above the \d+ left of the budget of {sol._JET_STEP_BUDGET}\n"
    assert re.search(message, proc.stdout)


def test_deform_at_the_frequency_bound_verifies_at_t_1(tmp_path, capsys):
    """One exact-b-field mode at ``|k| = cli.MAX_FREQUENCY`` verified at t = 1
    needs about 1,200 jet steps per point, well under the budget."""
    doc = frequency_doc("exact-b-field", cli.MAX_FREQUENCY)
    doc.update({"order": 1, "verify_t": 1.0, "verify_points": 4})
    assert cli.main(["deform", "--config", write_config(tmp_path, doc)]) == 0
    assert "result: ok" in capsys.readouterr().out


def test_indefinite_metric_stops_verification_before_the_spinor_side(monkeypatch):
    """At c = 30 the metric at t = 1 is indefinite: the verification fails on
    the orthogonal side without running a single spinor jet."""
    doc = overflow_doc(30)
    pair = cli.build_background(doc, 4)
    seed, _ = cli.build_seed(doc, pair)
    report = sol.run_deformation(cli.build_deformation(doc, pair, 2), pair, order_cap=2, psi=seed)

    def refuse(*args, **kw):
        raise AssertionError("the spinor side ran")

    monkeypatch.setattr(sol, "_exp_jet", refuse)
    with pytest.raises(ValueError, match="induced metric is not positive at t=1 "):
        sol.verify_gk_at_t(report, 1.0)
