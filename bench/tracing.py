"""Span wrappers around the public functions of each ``laplacefit`` layer.

``Tracer.install`` wraps every function named in ``SPANS`` and rebinds the
wrapper wherever a loaded ``laplacefit`` module binds the original: module
globals (``ps.censored_moments``), module-level dicts
(``montecarlo._FITTERS``) and the ``Sample.from_values`` classmethod. Spans
are kept in memory as per-name totals; a span's self time is its duration
minus the time its child spans cover. Nothing is installed unless a traced
run asks for it, so untraced runs measure the program as shipped.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref
from typing import Any, Callable

#: traced layer functions as "module.function"; "laplace_core.from_values"
#: is the ``Sample.from_values`` classmethod
SPANS = (
    "distributions.derive_substream",
    "distributions.sample_spec",
    "laplace_core.load_sample",
    "laplace_core.parse_sample_lines",
    "laplace_core.parse_sample_csv",
    "laplace_core.from_values",
    "laplace_core.solve_censoring_point",
    "laplace_core.censored_moments",
    "laplace_core.censored_moments_at",
    "laplace_core.influence_rows",
    "laplace_core.sample_covariance",
    "numdiff.central_diff_jacobian",
    "results.normal_quantile",
    "results.make_gof_outcome",
    "ps.fit_ps",
    "ps.gof_ps",
    "tweedie.fit_tweedie",
    "tweedie.gof_tweedie",
    "montecarlo.run_configs",
    "cli.main",
)

SOLVE = "laplace_core.solve_censoring_point"


class Tracer:
    """In-memory span totals: calls, total and self seconds per span name."""

    def __init__(self) -> None:
        self.calls = {name: 0 for name in SPANS}
        self.total_s = {name: 0.0 for name in SPANS}
        self.child_s = {name: 0.0 for name in SPANS}
        self.absent: list[str] = []
        self.solver_iterations = 0
        self.distinct_samples = 0
        # id -> weakref of every live sample the solver has seen; a dead
        # sample's callback frees its id, so a reused id counts as new
        self._live_samples: dict[int, weakref.ref] = {}
        self._stack: list[float] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stack, clock = self._stack, time.perf_counter
        on_solve = self._on_solve if name == SOLVE else None

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.child_s[name] += children
            if on_solve is not None:
                on_solve(args[0] if args else kwargs["sample"], result)
            return result

        return span

    def _on_solve(self, sample: Any, point: Any) -> None:
        self.solver_iterations += int(point.iterations)
        key = id(sample)
        if key not in self._live_samples:
            self.distinct_samples += 1
            self._live_samples[key] = weakref.ref(
                sample, lambda _ref, key=key: self._live_samples.pop(key, None)
            )

    def install(self) -> None:
        """Wrap every span function and rebind it in all loaded laplacefit modules."""
        loaded = {}
        for mod_name in dict.fromkeys(name.split(".")[0] for name in SPANS):
            try:
                loaded[mod_name] = importlib.import_module(f"laplacefit.{mod_name}")
            except ModuleNotFoundError:
                loaded[mod_name] = None
        modules = [m for n, m in list(sys.modules.items()) if n == "laplacefit" or n.startswith("laplacefit.")]
        for name in SPANS:
            mod_name, func_name = name.split(".")
            module = loaded[mod_name]
            if func_name == "from_values":
                sample_cls = getattr(module, "Sample", None)
                original = getattr(sample_cls, "from_values", None)
                if original is None:
                    self.absent.append(name)
                    continue
                sample_cls.from_values = classmethod(self._wrap(name, original.__func__))
                continue
            original = getattr(module, func_name, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if item is original:
                                value[key] = wrapper

    def summary(self) -> dict:
        """JSON-ready totals: per-span calls and self seconds, plus solver counts."""
        return {
            "spans": {
                name: {"calls": self.calls[name], "self_s": self.total_s[name] - self.child_s[name]}
                for name in SPANS
            },
            "absent": self.absent,
            "solver_iterations": self.solver_iterations,
            "distinct_samples": self.distinct_samples,
        }
