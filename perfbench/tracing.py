"""Span recording at gridcrit's layer boundaries, from outside the program.

For the duration of one traced command, every function that a caller module
(``search``, ``cli``, ``surrogate``) imports from a layer module is replaced
in the caller's namespace by a pass-through that records a span. The hooked
set is found by introspection (``obj.__module__`` names the layer), so a
function a later change adds or removes is picked up or reported absent
without editing this file. A few boundaries are not imports and are named
explicitly: the acquisition, ``GPSurrogate.build``, ``ParetoArchive.add`` and
the likelihood function(s) ``fit_hyperparameters`` hands to the optimizer.

Spans (name, start, end, parent, run id) stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

PACKAGE = "gridcrit"
LAYERS = ("feeder", "adoption", "powerflow", "pareto", "surrogate", "search", "cli")
CALLERS = ("search", "cli", "surrogate")
# Boundaries that are not cross-module imports: (module, attribute path).
NAMED = (
    ("search", "acquisition_alpha_nd"),
    ("surrogate", "GPSurrogate.build"),
    ("pareto", "ParetoArchive.add"),
)


def _layer_of(obj) -> str | None:
    module = getattr(obj, "__module__", None) or ""
    head, _, layer = module.partition(".")
    return layer if head == PACKAGE and layer in LAYERS else None


def _likelihood_names(surrogate) -> list[str]:
    """Module-level likelihood functions that ``fit_hyperparameters`` references."""
    fit = getattr(surrogate, "fit_hyperparameters", None)
    if fit is None:
        return []
    return [n for n in fit.__code__.co_names
            if "likelihood" in n and inspect.isfunction(getattr(surrogate, n, None))]


class Tracer:
    """Installs span-recording pass-throughs and keeps the spans they record."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.hooked: set[str] = set()
        self.likelihood: set[str] = set()
        self.counters: dict[str, float] = defaultdict(float)
        self.pf_bits: set = set()
        self.broken_observers: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent))
        observe = OBSERVERS.get(name)
        if observe is not None:
            try:
                observe(self, args, kwargs, result)
            except (AttributeError, TypeError, IndexError, KeyError):
                self.broken_observers.add(name)
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def pass_through(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return pass_through

    # -- installation ---------------------------------------------------
    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS}
        for caller in CALLERS:
            mod = mods[caller]
            for attr, obj in list(vars(mod).items()):
                layer = _layer_of(obj)
                if inspect.isfunction(obj) and layer and layer != caller:
                    name = f"{layer}.{obj.__qualname__}"
                    self._replace(mod, attr, self._wrap(name, obj))
                    self.hooked.add(name)
        surrogate = mods["surrogate"]
        for attr in _likelihood_names(surrogate):
            name = f"surrogate.{attr}"
            self._replace(surrogate, attr, self._wrap(name, getattr(surrogate, attr)))
            self.hooked.add(name)
            self.likelihood.add(name)
        for layer, path in NAMED:
            owner = mods[layer]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = getattr(owner, "__dict__", {}).get(attr)
            name = f"{layer}.{path}"
            if isinstance(raw, classmethod):
                self._replace(owner, attr, classmethod(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._replace(owner, attr, self._wrap(name, raw))
            else:
                continue
            self.hooked.add(name)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent in sorted(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": sid, "name": name,
                                     "start": start, "end": end, "parent": parent}) + "\n")

    # -- aggregation ----------------------------------------------------
    def stats(self) -> dict[str, dict[str, float]]:
        """Calls, total seconds and self seconds per span name."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for sid, name, start, end, _ in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[sid]
        return out


def _observe_power_flow(tr: Tracer, args, kwargs, result) -> None:
    scenario = args[1] if len(args) > 1 else kwargs["scenario"]
    tr.pf_bits.add(tuple(scenario.bits))
    tr.counters["pf.iterations"] += result.iterations
    tr.counters["pf.nonconverged"] += not result.converged


def _observe_acquisition(tr: Tracer, args, kwargs, result) -> None:
    tr.counters["alpha.scored"] += len(result)
    tr.counters["alpha.positive"] += int((result > 0).sum())


def _observe_posterior(tr: Tracer, args, kwargs, result) -> None:
    tr.counters["posterior.candidates"] += len(result.mean)


def _observe_simulation(tr: Tracer, args, kwargs, result) -> None:
    tr.counters["adoption.scenarios"] += len(result)


def _observe_search(tr: Tracer, args, kwargs, result) -> None:
    tr.counters["search.steps"] += len(result.tau_steps)
    tr.counters["search.pool_size"] += len(result.scenarios)
    tr.counters["search.pool_distinct"] += len({s.bits for s in result.scenarios})


OBSERVERS = {
    "powerflow.solve_power_flow": _observe_power_flow,
    "search.acquisition_alpha_nd": _observe_acquisition,
    "surrogate.posterior": _observe_posterior,
    "adoption.simulate_batch": _observe_simulation,
    "search.run_search": _observe_search,
}


def per_layer_metrics(tr: Tracer, root: str) -> tuple[dict, list[str]]:
    """Per-layer metrics from one traced command, and the names reported absent.

    A metric is absent when the function behind it was not found to hook, or
    its observer no longer fits the function's signature or result. It is
    still emitted, as 0, so every run reports the same metric names; a
    function that exists but that the workload never calls also reads 0.
    """
    st = tr.stats()
    metrics: dict[str, tuple[float, str]] = {}
    absent: list[str] = []

    def put(metric: str, unit: str, span: str, value, counter: bool = False):
        missing = span != root and span not in tr.hooked
        missing |= counter and span in tr.broken_observers
        if missing:
            absent.append(metric)
        metrics[metric] = (0.0 if missing else float(value), unit)

    def stat(span: str, key: str) -> float:
        return st[span][key] if span in st else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    c = tr.counters
    pf = "powerflow.solve_power_flow"
    put(f"{pf}.calls", "count", pf, stat(pf, "calls"))
    put(f"{pf}.s", "s", pf, stat(pf, "s"))
    put("powerflow.iterations", "count", pf, c["pf.iterations"], counter=True)
    put("powerflow.nonconverged", "count", pf, c["pf.nonconverged"], counter=True)
    put("powerflow.distinct_fraction", "ratio", pf,
        ratio(len(tr.pf_bits), stat(pf, "calls")), counter=True)
    for name in ("powerflow.compute_stress", "powerflow.violation_map"):
        put(f"{name}.s", "s", name, stat(name, "s"))

    acq = "search.acquisition_alpha_nd"
    put(f"{acq}.self_s", "s", acq, stat(acq, "self_s"))
    put(f"{acq}.calls", "count", acq, stat(acq, "calls"))
    put("search.alpha_pos_ratio", "ratio", acq,
        ratio(c["alpha.positive"], c["alpha.scored"]), counter=True)

    fit = "surrogate.fit_hyperparameters"
    put(f"{fit}.calls", "count", fit, stat(fit, "calls"))
    put(f"{fit}.s", "s", fit, stat(fit, "s"))
    lml = sorted(tr.likelihood)  # empty (so the metric is absent) if none was found
    put("surrogate.lml_evals", "count", lml[0] if lml else "surrogate.likelihood",
        sum(stat(n, "calls") for n in lml))
    post = "surrogate.posterior"
    put(f"{post}.calls", "count", post, stat(post, "calls"))
    put(f"{post}.s", "s", post, stat(post, "s"))
    put(f"{post}.candidates", "count", post, c["posterior.candidates"], counter=True)
    for name in ("surrogate.sample_joint", "surrogate.GPSurrogate.build"):
        put(f"{name}.s", "s", name, stat(name, "s"))

    sim = "adoption.simulate_batch"
    put(f"{sim}.calls", "count", sim, stat(sim, "calls"))
    put(f"{sim}.s", "s", sim, stat(sim, "s"))
    put("adoption.scenarios", "count", sim, c["adoption.scenarios"], counter=True)

    loop = "search.run_search"
    put(f"{loop}.self_s", "s", loop, stat(loop, "self_s"))
    for key in ("steps", "pool_size", "pool_distinct"):
        put(f"search.{key}", "count", loop, c[f"search.{key}"], counter=True)

    oracle = "search.brute_force_oracle"
    put(f"{oracle}.self_s", "s", oracle, stat(oracle, "self_s"))
    arch = "pareto.ParetoArchive.add"
    put(f"{arch}.calls", "count", arch, stat(arch, "calls"))
    put(f"{arch}.s", "s", arch, stat(arch, "s"))
    put("feeder.load_feeder.s", "s", "feeder.load_feeder", stat("feeder.load_feeder", "s"))

    # Self time per layer; with the root span's self time as the cli share,
    # these add up to the traced command's wall time.
    layer_self = defaultdict(float)
    for name, entry in st.items():
        layer_self[name.split(".")[0]] += entry["self_s"]
    for layer in LAYERS:
        put(f"{layer}.self_s", "s", root, layer_self[layer])
    return metrics, absent
