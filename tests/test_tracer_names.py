"""The benchmark tracer's layer boundaries name functions that exist.

A renamed or deleted function would otherwise only turn its per-layer
metrics into nulls; here it fails the suite.  Every name is resolved twice:
by attribute lookup, and by the tracer's own lookup, which reads only a
class's own namespace, so an inherited method fails here as it would in a
traced run.
"""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    # executed from source, so no bytecode is written next to the benchmark
    namespace = {"__name__": "_perfbench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    return namespace


def test_every_traced_name_resolves():
    tracer = load_tracer()
    boundaries, resolve = tracer["BOUNDARIES"], tracer["Tracer"]._resolve
    assert boundaries
    missing = []
    for prefix, module_name, qualnames in boundaries:
        module = importlib.import_module(module_name)
        for qualname in qualnames:
            holder = module
            for part in qualname.split("."):
                holder = getattr(holder, part, None)
            if not callable(holder) or resolve(module, qualname) is None:
                missing.append(f"{prefix}: {module_name}.{qualname}")
    assert not missing, missing
