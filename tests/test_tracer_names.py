"""The benchmark tracer's layer boundaries name functions that exist.

A renamed or deleted function would otherwise only turn its per-layer
metrics into nulls; here it fails the suite.
"""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_boundaries():
    # executed from source, so no bytecode is written next to the benchmark
    namespace = {"__name__": "_perfbench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    return namespace["BOUNDARIES"]


def test_every_traced_name_resolves():
    boundaries = load_boundaries()
    assert boundaries
    missing = []
    for prefix, module_name, qualnames in boundaries:
        module = importlib.import_module(module_name)
        for qualname in qualnames:
            holder = module
            for part in qualname.split("."):
                holder = getattr(holder, part, None)
            if not callable(holder):
                missing.append(f"{prefix}: {module_name}.{qualname}")
    assert not missing, missing
