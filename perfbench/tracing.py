"""Span tracing around the package's layer functions.

Each traced function is replaced, in every module of the package that binds
it, by a wrapper that records one span: name, start, end, parent span and
run id (the sweep it belongs to).  Spans live in flat arrays in memory and
are written out once, at the end.  A function's self time is its spans'
duration minus the part their child spans cover.
"""

import functools
import json
import sys
import types
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

# Sweep entry points: the root spans of each certificate.
ROOTS = (
    "qdual.verify_quadratic_duality",
    "resolution.verify_resolution",
    "cli.verify_branching",
    "cli.verify_idempotent_system",
)

LAYERS = (
    "qdual.build_quadratic_dual",
    "qdual.dual_hom_dim",
    "resolution.build_resolution",
    "resolution.verify_complex",
    "resolution.verify_exactness",
    "exactlinalg.rank",
    "exactlinalg.multiply",
    "quiver.hom_dim_C",
    "quiver.hom_dim_Cprime_mod_J",
    "partitions.skew_classify",
    "partitions.add_node",
    "signs.arrow_sign",
    "symgroup.multiply",
    "symgroup.central_idempotent",
    "symgroup.young_symmetrizer",
    "symgroup.direct_hom_dimension",
    "symgroup.induction_multiplicity",
    "certificates.Certificate.to_json",
)

TRACED = ROOTS + LAYERS


def _rank_counters(totals: dict, args, result) -> None:
    m = args[0]
    totals["cells"] += m.n_rows * m.n_cols
    totals["nnz"] += len(m.entries)
    totals["rows"] += m.n_rows
    totals["rank"] += result


def _term_pairs(totals: dict, args, result) -> None:
    totals["term_pairs"] += len(args[0].terms) * len(args[1].terms)


def _json_bytes(totals: dict, args, result) -> None:
    totals["bytes"] += len(result.encode())


COUNTERS = {
    "exactlinalg.rank": _rank_counters,
    "symgroup.multiply": _term_pairs,
    "certificates.Certificate.to_json": _json_bytes,
}


class TraceError(RuntimeError):
    """A traced name is missing or some binding of it escaped the rebinding."""


def _package_modules(package: str) -> list[types.ModuleType]:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == package or name.startswith(package + "."))
    ]


def _functions_of(module: types.ModuleType):
    """Functions defined at module level or on module-level classes."""
    for value in vars(module).values():
        if isinstance(value, types.FunctionType):
            yield value
        elif isinstance(value, type):
            for member in vars(value).values():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if isinstance(member, types.FunctionType):
                    yield member


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.counters: dict[str, Counter] = {}
        self.bindings: dict[str, list[str]] = {}
        self.run_id = 0
        self._stack: list[int] = []
        self._wrappers: set[int] = set()

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        totals = self.counters[name] = Counter()
        stack = self._stack
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, runs = self.span_parent, self.span_run
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            runs.append(tracer.run_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(totals, args, result)
            return result

        self._wrappers.add(id(traced))
        return traced

    def install(self, package: str) -> None:
        """Rebind every traced name in every module of ``package`` that binds
        it, then check that no binding of an original function is left."""
        modules = {m.__name__: m for m in _package_modules(package)}
        originals = {}
        for qualified in TRACED:
            module_name, _, attr = qualified.partition(".")
            module = modules.get(f"{package}.{module_name}")
            if module is None:
                raise TraceError(f"{qualified}: module {package}.{module_name} is not loaded")
            owner, _, fn_name = attr.rpartition(".")
            holder = getattr(module, owner) if owner else module
            fn = vars(holder).get(fn_name)
            if not isinstance(fn, types.FunctionType):
                raise TraceError(f"{qualified}: no function {fn_name!r} on {holder!r}")
            originals[qualified] = fn
            wrapper = self._wrap(qualified, fn)
            if owner:
                setattr(holder, fn_name, wrapper)
                self.bindings[qualified] = [f"{module.__name__}.{owner}"]
                continue
            consumers = []
            for consumer in modules.values():
                for key, value in list(vars(consumer).items()):
                    if value is fn:
                        setattr(consumer, key, wrapper)
                        consumers.append(f"{consumer.__name__}.{key}")
            self.bindings[qualified] = consumers
        self._check_rebound(modules, originals)

    def _check_rebound(self, modules: dict, originals: dict) -> None:
        by_id = {id(fn): name for name, fn in originals.items()}
        leaks = []
        for module in modules.values():
            for fn in _functions_of(module):
                if id(fn) in by_id:
                    leaks.append(f"{module.__name__} still binds the original {by_id[id(fn)]}")
                elif id(fn) not in self._wrappers:
                    leaks += [f"{fn.__module__}.{fn.__qualname__} holds the original"
                              f" {by_id[id(v)]}" for v in _held(fn) if id(v) in by_id]
        if leaks:
            raise TraceError("traced names not rebound: " + "; ".join(sorted(set(leaks))))

    def summary(self, sweeps: int) -> dict:
        """Per-sweep calls, self time and counters of every traced name."""
        n = len(self.names)
        calls = [0] * n
        self_s = [0.0] * n
        cover = array("d", bytes(8 * len(self.span_start)))
        names, starts, ends, parents = (
            self.span_name, self.span_start, self.span_end, self.span_parent
        )
        # children are recorded after their parent, so one backward pass
        # has every child's duration in place before its parent is read
        for idx in range(len(starts) - 1, -1, -1):
            duration = ends[idx] - starts[idx]
            name_id = names[idx]
            calls[name_id] += 1
            self_s[name_id] += duration - cover[idx]
            parent = parents[idx]
            if parent >= 0:
                cover[parent] += duration
        out = {}
        for name_id, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[name_id] / sweeps
            out[f"{name}.self_s"] = self_s[name_id] / sweeps
        rank = self.counters["exactlinalg.rank"]
        out["exactlinalg.rank.cells"] = rank["cells"] / sweeps
        out["exactlinalg.rank.nnz"] = rank["nnz"] / sweeps
        out["exactlinalg.rank.rank_per_row"] = rank["rank"] / rank["rows"] if rank["rows"] else 0.0
        out["symgroup.multiply.term_pairs"] = (
            self.counters["symgroup.multiply"]["term_pairs"] / sweeps
        )
        out["certificates.Certificate.to_json.bytes"] = (
            self.counters["certificates.Certificate.to_json"]["bytes"] / sweeps
        )
        return out

    def write(self, path: Path) -> None:
        """Spans as raw arrays in ``path`` with a JSON header beside it."""
        arrays = [("name", self.span_name), ("start", self.span_start),
                  ("end", self.span_end), ("parent", self.span_parent),
                  ("run", self.span_run)]
        with open(path, "wb") as handle:
            for _, values in arrays:
                values.tofile(handle)
        header = {
            "spans": len(self.span_start),
            "names": self.names,
            "columns": [{"field": f, "typecode": a.typecode, "itemsize": a.itemsize}
                        for f, a in arrays],
            "layout": "each column stored whole, in the order listed",
            "bindings": self.bindings,
        }
        path.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")


def _held(fn):
    """Objects a function keeps: default arguments and closure cells."""
    yield from fn.__defaults__ or ()
    yield from (fn.__kwdefaults__ or {}).values()
    for cell in fn.__closure__ or ():
        try:
            yield cell.cell_contents
        except ValueError:  # empty cell
            pass
