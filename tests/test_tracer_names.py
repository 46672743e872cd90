"""The benchmark tracer's layer boundaries name functions that exist.

A renamed or deleted function would otherwise only turn its per-layer
metrics into nulls; here it fails the suite.  Every name is resolved twice:
by attribute lookup, and by the tracer's own lookup, which reads only a
class's own namespace, so an inherited method fails here as it would in a
traced run.  The tracer's counters run here too, on real results of their
boundaries, so a changed result type fails the suite, not a traced run.
"""

import importlib
from pathlib import Path

import numpy as np

from genkahler import fields as gf
from genkahler import hodge as gh
from genkahler import structures as gs

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


def counter_cases():
    """Per ``COUNTERS`` boundary, real calls as (args, kwargs, result)."""
    pair = gs.standard_kahler_pair(4)
    support = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 1, 0)]
    A = gf.FourierOperatorField(2, 3, {(0, 0): np.eye(3), (1, 0): np.ones((3, 3))})
    B = gf.FourierOperatorField(2, 3, {(0, 1): np.eye(3)})
    return {
        "fields.FourierOperatorField.__matmul__": [((A, B), {}, A @ B)],
        "hodge.component_operator": [
            (((1, 1), pair, support), {}, gh.component_operator((1, 1), pair, support)),
            (((1, 1),), {"pair": pair, "support": support}, gh.component_operator((1, 1), pair=pair, support=support)),
        ],
    }


def test_every_counter_counts_a_real_result():
    """Each counter runs on a result of its boundary and returns every key it
    declares as a non-negative int; every counter has a case here."""
    counters = load_tracer()["COUNTERS"]
    cases = counter_cases()
    assert set(cases) == set(counters)
    for name, (keys, count) in counters.items():
        for args, kwargs, result in cases[name]:
            got = count(args, kwargs, result)
            assert set(got) == set(keys), name
            assert all(type(v) is int and v >= 0 for v in got.values()), (name, got)
