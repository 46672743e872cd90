"""Span tracer that wraps genkahler's public functions from outside the package.

Every boundary is a named function or method of one genkahler module.  The
tracer replaces the original function object wherever it is bound: the
aliases are found by an identity scan over every loaded ``genkahler.*``
module namespace and every class defined there (``cached_property``,
``staticmethod`` and ``classmethod`` members included), never from a
hand-written list.  After patching, the scan runs again and any binding still
holding an original object is reported, so a missed alias fails the run
instead of silently under-counting.

Spans (name, start, end, parent span) are kept in memory and aggregated once
the traced command has returned.  A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from functools import cached_property, update_wrapper

# (metric prefix, module, qualified names).  Several qualified names under one
# prefix are summed into one boundary.  "total" boundaries also report their
# inclusive time.
BOUNDARIES: list[tuple[str, str, tuple[str, ...]]] = [
    ("cli.load_config", "genkahler.cli", ("load_config",)),
    ("cli.build_background", "genkahler.cli", ("build_background",)),
    ("cli.build_deformation", "genkahler.cli", ("build_deformation",)),
    ("cli.canonical_json", "genkahler.cli", ("canonical_json",)),
    ("clifford.spin_lie_action", "genkahler.clifford", ("spin_lie_action",)),
    ("clifford.clifford_vector_matrix", "genkahler.clifford", ("clifford_vector_matrix",)),
    ("structures.iso_projectors", "genkahler.structures", ("iso_projectors",)),
    ("structures.HermitianPair.__init__", "genkahler.structures", ("HermitianPair.__init__",)),
    ("fields.FourierOperatorField.__matmul__", "genkahler.fields", ("FourierOperatorField.__matmul__",)),
    ("fields.FourierOperatorField.act", "genkahler.fields", ("FourierOperatorField.act",)),
    ("fields.twisted_derivative", "genkahler.fields", ("twisted_derivative",)),
    (
        "fields.arith",
        "genkahler.fields",
        tuple(f"{cls}.{op}" for cls in ("FourierField", "FourierOperatorField") for op in ("__add__", "__sub__", "__mul__")),
    ),
    ("hodge.component_operator", "genkahler.hodge", ("component_operator",)),
    ("hodge.laplacian", "genkahler.hodge", ("laplacian",)),
    ("hodge.green_operator", "genkahler.hodge", ("green_operator",)),
    ("hodge.adjoint", "genkahler.hodge", ("adjoint",)),
    ("hodge.BlockOperator.act", "genkahler.hodge", ("BlockOperator.act",)),
    ("hodge.BlockOperator.__matmul__", "genkahler.hodge", ("BlockOperator.__matmul__",)),
    ("hodge.l2_norm", "genkahler.hodge", ("l2_norm",)),
    ("solver.support_closure", "genkahler.solver", ("support_closure",)),
    ("solver.first_structure_defects", "genkahler.solver", ("first_structure_defects",)),
    ("solver.series_exp_action", "genkahler.solver", ("series_exp_action",)),
    ("solver.order_residual", "genkahler.solver", ("order_residual",)),
    ("solver.solve_phi", "genkahler.solver", ("solve_phi",)),
    ("solver.beta_from_phi", "genkahler.solver", ("beta_from_phi",)),
    ("solver.extract_transverse_family", "genkahler.solver", ("extract_transverse_family",)),
    ("solver.run_deformation", "genkahler.solver", ("run_deformation",)),
    ("solver.verify_gk_at_t", "genkahler.solver", ("verify_gk_at_t",)),
]

TOTAL_BOUNDARIES = ("cli.build_deformation", "solver.run_deformation", "solver.verify_gk_at_t")


def _matmul_pairs(args, kwargs, result) -> dict[str, int]:
    # coefficient products of one convolution: |A| * |B|
    return {"pairs": len(args[0].coeffs) * len(args[1].coeffs)}


def _component_work(args, kwargs, result) -> dict[str, int]:
    # per block: two dense n x n complex products for every bigrading entry,
    # 8 n^3 real flops each (computed from shapes, not measured)
    pair = kwargs["pair"] if "pair" in kwargs else args[1]
    blocks = len(result.blocks)
    n = result.value_dim
    return {"blocks": blocks, "flops": blocks * len(pair.bigrading) * 2 * 8 * n**3}


# boundary -> (counter keys, function of (args, kwargs, result))
COUNTERS = {
    "fields.FourierOperatorField.__matmul__": (("pairs",), _matmul_pairs),
    "hodge.component_operator": (("blocks", "flops"), _component_work),
}


class TraceIntegrityError(RuntimeError):
    """A wrapped function is still reachable through an unwrapped binding."""


def _package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items()) if name == "genkahler" or name.startswith("genkahler.")]


def _own_classes(module) -> list[type]:
    return [
        v for v in vars(module).values()
        if isinstance(v, type) and v.__module__ == module.__name__
    ]


def _member_function(member):
    """The plain function behind a class member, or the member itself."""
    if isinstance(member, (staticmethod, classmethod)):
        return member.__func__
    if isinstance(member, cached_property):
        return member.func
    if isinstance(member, property):
        return member.fget
    return member


def _bindings():
    """Every binding in the package namespaces as (holder, key, kind, object, where).

    ``kind`` says how to rebind: "attr" for a module attribute, "member" for
    a class member (behind its descriptor, if any), "item" for an entry of a
    container held in a module namespace, "default" for a function default.
    """
    for module in _package_modules():
        mod = module.__name__
        for key, value in list(vars(module).items()):
            yield module, key, "attr", value, f"{mod}.{key}"
            if isinstance(value, dict):
                for k, v in value.items():
                    yield value, k, "item", v, f"{mod}.{key}[{k!r}]"
            elif isinstance(value, (list, tuple)):
                for i, v in enumerate(value):
                    yield value, i, "item", v, f"{mod}.{key}[{i}]"
            defaults = getattr(value, "__defaults__", None) or ()
            for i, v in enumerate(defaults):
                yield value, i, "default", v, f"{mod}.{key} default #{i}"
        for cls in _own_classes(module):
            for key, member in list(vars(cls).items()):
                yield cls, key, "member", _member_function(member), f"{mod}.{cls.__name__}.{key}"


class Tracer:
    """Collects spans and counters for the configured boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []

    # -- wrapping

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        counter = COUNTERS[name][1] if name in COUNTERS else None
        span_name, span_start, span_end, span_parent = self.span_name, self.span_start, self.span_end, self.span_parent
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                stack.pop()
            if counter is not None:
                for key, v in counter(args, kwargs, result).items():
                    counters[f"{name}.{key}"] = counters.get(f"{name}.{key}", 0) + v
            return result

        return update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap every boundary at every binding; raise if any alias escapes."""
        originals: dict[int, tuple[object, object]] = {}
        for name, module_name, qualnames in BOUNDARIES:
            module = sys.modules.get(module_name)
            found = []
            for qual in qualnames:
                fn = self._resolve(module, qual)
                if fn is not None:
                    found.append(fn)
            if len(found) != len(qualnames):
                self.missing.append(name)
                continue
            for fn in found:
                originals[id(fn)] = (fn, self._wrap(name, fn))

        for holder, key, kind, value, _ in _bindings():
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                self._rebind(holder, key, kind, hit[1])

        escaped = [
            where for _, _, _, value, where in _bindings()
            if id(value) in originals and originals[id(value)][0] is value
        ]
        if escaped:
            raise TraceIntegrityError("unwrapped aliases of traced functions: " + ", ".join(escaped))

    @staticmethod
    def _resolve(module, qual: str):
        if module is None:
            return None
        holder = module
        parts = qual.split(".")
        for part in parts[:-1]:
            holder = vars(holder).get(part)
            if holder is None:
                return None
        value = vars(holder).get(parts[-1])
        return _member_function(value) if value is not None else None

    @staticmethod
    def _rebind(holder, key, kind: str, wrapper) -> None:
        if kind == "attr":
            setattr(holder, key, wrapper)
        elif kind == "member":
            member = vars(holder)[key]
            if isinstance(member, cached_property):
                member.func = wrapper
            elif callable(member) and not isinstance(member, (staticmethod, classmethod)):
                setattr(holder, key, wrapper)
        # containers, defaults and other descriptors are left alone; the
        # integrity scan reports them as unwrapped aliases

    # -- aggregation

    def summary(self) -> dict[str, float | int | None]:
        """Per-boundary ``calls``, ``self_s`` (and ``total_s``) plus counters."""
        count = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        for i in range(count):
            name = self.names[self.span_name[i]]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
            total_s[name] = total_s.get(name, 0.0) + dur[i]
        out: dict[str, float | int | None] = {}
        for name, _, _ in BOUNDARIES:
            missing = name in self.missing
            out[f"{name}.calls"] = None if missing else calls.get(name, 0)
            out[f"{name}.self_s"] = None if missing else self_s.get(name, 0.0)
            if name in TOTAL_BOUNDARIES:
                out[f"{name}.total_s"] = None if missing else total_s.get(name, 0.0)
        for name, (keys, _) in COUNTERS.items():
            for key in keys:
                out[f"{name}.{key}"] = None if name in self.missing else self.counters.get(f"{name}.{key}", 0)
        out["span_count"] = count
        return out

    def spans(self) -> dict[str, list]:
        return {
            "names": list(self.names),
            "name": list(self.span_name),
            "start": list(self.span_start),
            "end": list(self.span_end),
            "parent": list(self.span_parent),
        }
