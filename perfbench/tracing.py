"""Span recorders wrapped around onebit's module-level functions.

The wrappers live here, in the benchmark, so the program under test is not
edited.  ``Tracer.install`` rebinds every module-level name that refers to
a wrapped function, in every loaded ``onebit`` module and in the package
namespace, because modules import each other's functions by name (``cli``
holds its own reference to ``invariance_scan``).  A target that no longer
exists is reported as missing instead of failing the run.

Each span records its name, the operation it belongs to, its parent span,
and its start and end.  Self time is the span's duration minus the time
covered by its child spans.  Aggregates are kept for every call; raw spans
are kept in memory for the first ``SPAN_LIMIT`` calls and written out when
the benchmark ends.
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter

#: (module, function) pairs whose calls get a span.
TARGETS = (
    ("cli", "main"),
    ("transforms", "invariance_scan"),
    ("transforms", "scan_deviations"),
    ("transforms", "total_uncertainty_p6"),
    ("transforms", "random_rotation"),
    ("transforms", "induced_from_rotation"),
    ("transforms", "search_norm_preservers"),
    ("transforms", "_coordinate_descent"),
    ("transforms", "_map_from_params"),
    ("transforms", "permutation_distance"),
    ("transforms", "is_sector_stochastic"),
    ("highdim", "info_positivity_check"),
    ("highdim", "eigen_positivity_oracle"),
    ("highdim", "random_basis"),
    ("highdim", "gpt_from_density"),
    ("highdim", "eigh"),
    ("highdim", "postselect"),
    ("highdim", "pair_uncertainty"),
    ("highdim", "minor_condition"),
    ("qubit", "total_uncertainty_state"),
    ("measures", "pair_entropy"),
)

#: Scan cost model, per state x map x alpha cell: the 6x6 map applied to a
#: 6-vector (36 multiplies, 36 adds) plus six powers; the block materialises
#: the image, its clipped copy and its power (three 6-vectors of float64)
#: and one float64 deviation.  Computed from array sizes, not measured.
SCAN_FLOPS_PER_CELL = 72 + 6
SCAN_BYTES_PER_CELL = 3 * 6 * 8 + 8
SCAN_BLOCK_MAPS = 64

#: Raw spans kept in memory; later calls are aggregated only.
SPAN_LIMIT = 100_000

COUNTERS = (
    "transforms.scan.cells",
    "transforms.search.starts",
    "transforms.search.starts_converged",
    "transforms.search.evals",
    "transforms.search.candidates",
    "highdim.pairs_checked",
    "highdim.negative_verdicts",
)


class _Proxy:
    """Copy of a module's attributes with some replaced, so lookups stay
    plain attribute reads; attributes the module makes lazily fall through."""

    def __init__(self, target, **overrides):
        self.__dict__.update(vars(target))
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


def _argument_reader(fn):
    """``read(args, kwargs, name)``: an argument of a call to ``fn``, passed
    by position or keyword, else ``fn``'s default.  The signature is read
    once here, not on every call."""
    params = list(inspect.signature(fn).parameters.values())
    index = {p.name: i for i, p in enumerate(params)}

    def read(args, kwargs, name):
        i = index[name]
        return args[i] if i < len(args) else kwargs.get(name, params[i].default)

    return read


def _count_scan(counters, read, args, kwargs, result):
    counters["transforms.scan.cells"] += (
        len(read(args, kwargs, "states")) * len(read(args, kwargs, "maps"))
        * len(list(read(args, kwargs, "alphas")))
    )


def _count_descent(counters, read, args, kwargs, result):
    counters["transforms.search.starts"] += 1
    counters["transforms.search.evals"] += int(result[2])
    counters["transforms.search.starts_converged"] += int(bool(result[3]))


def _count_search(counters, read, args, kwargs, result):
    counters["transforms.search.candidates"] += len(result)


def _count_positivity(counters, read, args, kwargs, result):
    n = read(args, kwargs, "rho").n
    strategy = read(args, kwargs, "strategy")
    views = 1
    if strategy in ("sampled", "eigen-directed"):
        views += read(args, kwargs, "n_bases")
    if strategy == "eigen-directed":
        views += 1
    counters["highdim.pairs_checked"] += views * n * (n - 1) // 2
    counters["highdim.negative_verdicts"] += int(not result.positive)


_HOOKS = {
    "transforms.scan_deviations": _count_scan,
    "transforms._coordinate_descent": _count_descent,
    "transforms.search_norm_preservers": _count_search,
    "highdim.info_positivity_check": _count_positivity,
}


class Tracer:
    """Aggregates calls, self time and counters per wrapped function."""

    def __init__(self):
        self.calls = {f"{m}.{f}": 0 for m, f in TARGETS}
        self.self_s = {name: 0.0 for name in self.calls}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.missing: list[str] = []
        self.spans: list[tuple] = []
        self.op_id = 0
        self._stack: list[list] = []  # [span index or -1, child seconds]

    def wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        read = _argument_reader(fn) if hook is not None else None
        calls, self_s, counters, spans, stack = (
            self.calls, self.self_s, self.counters, self.spans, self._stack
        )

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            if index < SPAN_LIMIT:
                spans.append(None)
            else:
                index = -1
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if index >= 0:
                    spans[index] = (name, self.op_id, parent, start, end)
            if hook is not None:
                hook(counters, read, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every wrapped target in all loaded onebit modules."""
        modules = [
            m for key, m in sys.modules.items()
            if m is not None and (key == "onebit" or key.startswith("onebit."))
        ]
        for module_name, func_name in TARGETS:
            name = f"{module_name}.{func_name}"
            module = sys.modules.get(f"onebit.{module_name}")
            if (module_name, func_name) == ("highdim", "eigh"):
                original = self._install_eigh(module, name)
            else:
                original = getattr(module, func_name, None)
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _install_eigh(self, module, name):
        """highdim calls ``np.linalg.eigh`` through the numpy module; give
        highdim alone a numpy view whose ``linalg.eigh`` is traced."""
        np_module = getattr(module, "np", None)
        linalg = getattr(np_module, "linalg", None)
        original = getattr(linalg, "eigh", None)
        if callable(original):
            module.np = _Proxy(
                np_module, linalg=_Proxy(linalg, eigh=self.wrap(name, original))
            )
        return original

    def write_spans(self, path) -> int:
        """Write recorded spans as JSON lines; returns the number written."""
        written = 0
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span is None:
                    continue
                name, op, parent, start, end = span
                handle.write(
                    json.dumps(
                        {"name": name, "op": op, "parent": parent,
                         "start": start, "end": end}
                    ) + "\n"
                )
                written += 1
        return written
