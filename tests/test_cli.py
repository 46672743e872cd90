"""End-to-end checks of the command line driver: exit codes, report
artifacts, and determinism."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import genkahler.clifford as cl
import genkahler.structures as gs
from genkahler import cli


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


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


def readme_config():
    """The config example of README.md (its first JSON block)."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return json.loads(text.split("```json\n", 1)[1].split("```", 1)[0])


@pytest.mark.parametrize("argv", [["deform", "--order", "2"], ["verify-hodge"]])
def test_readme_config_example_runs(tmp_path, capsys, argv):
    path = write_config(tmp_path, readme_config())
    assert cli.main([*argv, "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert "result: ok" in capsys.readouterr().out
