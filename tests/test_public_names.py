"""Every exported name has a user.

A name in a module's ``__all__`` must be used by another ``genkahler``
module, or named by the benchmark tracer's boundaries or by the acceptance
tests.  The few library entry points that neither the solver nor the command
line reaches are listed below with their reason.  A helper that only the
tests use belongs in the tests, as an oracle.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "genkahler"

ALLOWED = {
    "clifford.require_so": "the documented so(m,m) membership check",
    "clifford.so_residual": "the residual that check compares, named in its messages",
    "solver.OrderData": "the record that order_residual returns",
    "solver.CorrectionSystem": "the system that beta_from_phi takes",
    "solver.structure_series_of_family": "composes several families before extract_transverse_family",
}


def identifiers(path):
    """Every name, attribute and imported name used in a Python file."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def tracer_names():
    namespace = {"__name__": "_perfbench_tracer"}
    tracer = ROOT / "perfbench" / "tracer.py"
    exec(compile(tracer.read_text(encoding="utf-8"), str(tracer), "exec"), namespace)
    return {part for _, _, qualnames in namespace["BOUNDARIES"] for q in qualnames for part in q.split(".")}


def test_every_exported_name_has_a_user():
    modules = {p.stem: p for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    used_by = {name: identifiers(path) for name, path in modules.items()}
    outside = tracer_names() | identifiers(ROOT / "tests" / "test_acceptance.py")
    unused = []
    for name in sorted(modules):
        for export in getattr(importlib.import_module(f"genkahler.{name}"), "__all__", ()):
            if f"{name}.{export}" in ALLOWED or export in outside:
                continue
            if not any(export in ids for other, ids in used_by.items() if other != name):
                unused.append(f"{name}.{export}")
    assert not unused, unused


def test_every_allowed_name_is_exported():
    """An allow-list entry names an exported function that is still there."""
    for entry in ALLOWED:
        module, export = entry.split(".")
        assert export in importlib.import_module(f"genkahler.{module}").__all__, entry
