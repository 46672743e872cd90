"""Every exported name has a user.

A name in a module's ``__all__`` must be used by another ``genkahler``
module, or named by the benchmark tracer's boundaries or by the acceptance
tests.  A use counts only when it names the module: an attribute of a name
bound to the module, or a ``from`` import of the name from it, so a method
or a local that shares the name is no use.  The few library entry points
that neither the solver nor the command line reaches are listed below with
their reason.  A helper that only the tests use belongs in the tests, as an
oracle.
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
}


def module_uses(path):
    """``(module, name)`` for every name of a ``genkahler`` module that a
    Python file uses: ``alias.name`` for an alias bound to the module, and
    ``from genkahler.module import name`` (relative imports included)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases, out = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname and a.name.startswith("genkahler."):
                    aliases[a.asname] = a.name.split(".")[1]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative, so within the package
                module = f"genkahler.{module}".rstrip(".")
            if module == "genkahler":
                aliases.update({a.asname or a.name: a.name for a in node.names})
            elif module.startswith("genkahler."):
                out.update((module.split(".")[1], a.name) for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            out.add((aliases[node.value.id], node.attr))
    return out


def tracer_names():
    namespace = {"__name__": "_perfbench_tracer"}
    tracer = ROOT / "perfbench" / "tracer.py"
    exec(compile(tracer.read_text(encoding="utf-8"), str(tracer), "exec"), namespace)
    return {
        (module.split(".")[1], qualname.split(".")[0])
        for _, module, qualnames in namespace["BOUNDARIES"]
        for qualname in qualnames
    }


def test_every_exported_name_has_a_user():
    modules = {p.stem: p for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    used_by = {name: module_uses(path) for name, path in modules.items()}
    outside = tracer_names() | module_uses(ROOT / "tests" / "test_acceptance.py")
    unused = []
    for name in sorted(modules):
        for export in getattr(importlib.import_module(f"genkahler.{name}"), "__all__", ()):
            if f"{name}.{export}" in ALLOWED or (name, export) in outside:
                continue
            if not any((name, export) in uses for other, uses in used_by.items() if other != name):
                unused.append(f"{name}.{export}")
    assert not unused, unused


def test_a_use_names_the_module(tmp_path):
    """A method or an attribute of another object that shares an exported
    name is no use of it; an alias's attribute and a ``from`` import are."""
    path = tmp_path / "user.py"
    path.write_text(
        "import genkahler.solver as sol\n"
        "from genkahler import structures as gs\n"
        "from .hodge import Support\n"
        "pair.canonical_generator(2)\n"
        "gs.hodge_star(g)\n"
        "sol.run_deformation\n",
        encoding="utf-8",
    )
    assert module_uses(path) == {("hodge", "Support"), ("structures", "hodge_star"), ("solver", "run_deformation")}


def test_every_allowed_name_is_exported():
    """An allow-list entry names an exported function that is still there."""
    for entry in ALLOWED:
        module, export = entry.split(".")
        assert export in importlib.import_module(f"genkahler.{module}").__all__, entry
