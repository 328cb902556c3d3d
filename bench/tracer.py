"""Span tracing of ecrplus from outside the program.

:class:`Tracer` wraps every public module-level function of the traced
modules, and rebinds each name under which another module imported one
of them (``solvency.panjer_compound``, ``forecast.aggregate_loss``...), so
calls between modules are seen too.  A span is (name, start, end,
parent); spans stay in memory and are written out once, at the end of
the run.  Some functions also get a work record computed from their
arguments and result, such as the Panjer window n_max * J.

:func:`layer_metrics` turns one round's spans into the per-layer metrics
listed in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import statistics
import time

import numpy as np

# The traced modules; mc_oracle is the tests' reference simulator and no
# pipeline calls it.
LAYERS = ("cli", "ingest", "domain", "aggregation", "estimation", "trends", "solvency",
          "forecast", "validation")


def _args(sig, args, kwargs) -> dict:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _panjer_work(sig, args, kwargs, result):
    if len(args) == 2:
        sector, n_max = args
    else:
        a = _args(sig, args, kwargs)
        sector, n_max = a["sector"], a["n_max"]
    keys = sector.severity.pmf.keys()
    J = min(max(keys), n_max) if n_max > 0 else 0
    nnz = sum(1 for k in keys if 1 <= k <= J)
    return {"steps": n_max, "macs": n_max * J, "useful": n_max * nnz}


def _convolve_work(sig, args, kwargs, result):
    sectors = _args(sig, args, kwargs)["sectors"]
    if len(sectors) < 2:
        return {"macs": 0}
    size, macs = sectors[0].pmf.size, 0
    for d in sectors[1:]:
        macs += size * d.pmf.size
        size += d.pmf.size - 1
    return {"macs": macs}


def _mcmc_work(sig, args, kwargs, result):
    cfg = _args(sig, args, kwargs)["cfg"]
    path = cfg.record_path
    return {
        "n_steps": cfg.n_steps,
        # One evaluation per block per step plus the initial state; a
        # proposal outside a positivity domain is rejected unevaluated, so
        # this is an upper bound.
        "logpost_evals": cfg.n_steps * len(result.acceptance) + 1,
        "acceptance_min": min(result.acceptance.values()) if result.acceptance else 0.0,
        "chain_bytes": os.path.getsize(path) if path and os.path.exists(path) else 0,
    }


def _delta_bof_work(sig, args, kwargs, result):
    a = _args(sig, args, kwargs)
    chain, max_samples = a["chain"], a["max_samples"]
    n = len(chain)
    if type(chain).__name__ == "McmcChain":
        n = np.unique(np.linspace(0, n - 1, min(max_samples, n)).astype(int)).size
    return {"samples": n, "lattice_points": result.pmf.size}


WORK = {
    "aggregation.panjer_compound": _panjer_work,
    "aggregation.convolve_sectors": _convolve_work,
    "estimation.mcmc_sample": _mcmc_work,
    "estimation.load_chain": lambda sig, a, k, r: {"records": len(r)},
    "solvency.delta_bof_distribution": _delta_bof_work,
}


class Tracer:
    """Wraps the public functions of ``modules`` (a dict layer -> module)."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent, work]
        self.stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        work = WORK.get(name)
        sig = inspect.signature(fn) if work else None
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [idx, clock(), 0.0, stack[-1] if stack else -1, None]
            sid = len(spans)
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[4] = work(sig, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        wrapped = {}
        for layer, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)][1])

    def uninstall(self):
        for mod, attr, obj in self._saved:
            setattr(mod, attr, obj)
        self._saved.clear()

    @contextlib.contextmanager
    def root(self, name: str):
        """Span for a call the runner makes itself (one CLI subcommand)."""
        if name not in self.names:
            self.names.append(name)
        span = [self.names.index(name), time.perf_counter(), 0.0,
                self.stack[-1] if self.stack else -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start_s", "end_s", "parent", "work"],
                       "spans": self.spans}, fh)


# Per-layer metrics in report order, with their units and which direction
# is better.  Work counts are computed from call arguments and results.
PER_LAYER = {
    **{f"cli.{sub}_s": ("s", "lower") for sub in ("aggregate", "scenario", "fit_mom", "fit_mcmc",
                                                  "scr", "forecast", "validate", "life_table")},
    "cli.self_s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "ingest.ingest_s": ("s", "lower"),
    "domain.build_portfolio_s": ("s", "lower"),
    "aggregation.build_sectors_s": ("s", "lower"),
    "aggregation.panjer_s": ("s", "lower"),
    "aggregation.panjer_calls": ("count", "lower"),
    "aggregation.panjer_steps": ("count", "lower"),
    "aggregation.panjer_macs": ("count", "lower"),
    "aggregation.panjer_useful_ratio": ("ratio", "higher"),
    "aggregation.convolve_s": ("s", "lower"),
    "aggregation.convolve_calls": ("count", "lower"),
    "aggregation.convolve_macs": ("count", "lower"),
    "aggregation.quantile_s": ("s", "lower"),
    "estimation.mom_fit_s": ("s", "lower"),
    "estimation.mcmc_sample_s": ("s", "lower"),
    "estimation.mh_sweep_us": ("us", "lower"),
    "estimation.logpost_evals": ("count", "lower"),
    "estimation.log_likelihood_us": ("us", "lower"),
    "estimation.acceptance_min": ("ratio", "higher"),
    "estimation.chain_bytes_written": ("bytes", "lower"),
    "estimation.load_chain_s": ("s", "lower"),
    "estimation.load_chain_records": ("count", "lower"),
    "trends.grid_us": ("us", "lower"),
    "solvency.delta_bof_s": ("s", "lower"),
    "solvency.term_life_bel_s": ("s", "lower"),
    "solvency.term_life_bel_calls": ("count", "lower"),
    "solvency.posterior_samples": ("count", "lower"),
    "solvency.lattice_points": ("count", "lower"),
    "forecast.forecast_bands_s": ("s", "lower"),
    "forecast.engine_calls": ("count", "lower"),
    "forecast.life_expectancy_s": ("s", "lower"),
    "validation.moment_bounds_s": ("s", "lower"),
    "validation.residual_tests_s": ("s", "lower"),
    "validation.ks_gamma_s": ("s", "lower"),
}


def layer_metrics(tracer: Tracer, first: int, last: int, subcommands: list[str],
                  output_bytes: int) -> dict:
    """Per-layer metrics of the spans with indices first..last-1 (one round).

    Span indices are absolute; ``parent`` refers into the same list.
    """
    names = tracer.names
    spans = tracer.spans
    idx = range(first, last)
    child_time = {}
    for i in idx:
        p = spans[i][3]
        if p >= first:
            child_time[p] = child_time.get(p, 0.0) + spans[i][2] - spans[i][1]
    by_name: dict[str, list[int]] = {}
    for i in idx:
        by_name.setdefault(names[spans[i][0]], []).append(i)

    def incl(*wanted):
        """Inclusive time of the spans named in ``wanted`` that have no
        ancestor also named there, so nested calls are not counted twice."""
        return sum(spans[i][2] - spans[i][1] for i in _outer(set(wanted)))

    def _outer(wanted):
        for w in wanted:
            for i in by_name.get(w, []):
                p = spans[i][3]
                while p >= first and names[spans[p][0]] not in wanted:
                    p = spans[p][3]
                if p < first:
                    yield i

    def work(name, key):
        return sum(spans[i][4][key] for i in by_name.get(name, []) if spans[i][4])

    m = {}
    for sub in ("aggregate", "scenario", "fit-mom", "fit-mcmc", "scr", "forecast", "validate",
                "life-table"):
        m[f"cli.{sub.replace('-', '_')}_s"] = incl(f"cli.{sub}") if sub in subcommands else 0.0
    m["cli.self_s"] = sum(spans[i][2] - spans[i][1] - child_time.get(i, 0.0)
                          for i in idx if names[spans[i][0]].startswith("cli."))
    m["cli.output_bytes"] = output_bytes
    m["ingest.ingest_s"] = incl("ingest.ingest")
    m["domain.build_portfolio_s"] = incl("domain.build_portfolio")
    m["aggregation.build_sectors_s"] = incl("aggregation.build_sectors")
    m["aggregation.panjer_s"] = incl("aggregation.panjer_compound")
    m["aggregation.panjer_calls"] = len(by_name.get("aggregation.panjer_compound", []))
    m["aggregation.panjer_steps"] = work("aggregation.panjer_compound", "steps")
    macs = work("aggregation.panjer_compound", "macs")
    m["aggregation.panjer_macs"] = macs
    m["aggregation.panjer_useful_ratio"] = (
        work("aggregation.panjer_compound", "useful") / macs if macs else 0.0)
    conv = [i for i in by_name.get("aggregation.convolve_sectors", []) if spans[i][4]["macs"]]
    m["aggregation.convolve_s"] = sum(spans[i][2] - spans[i][1] for i in conv)
    m["aggregation.convolve_calls"] = len(conv)
    m["aggregation.convolve_macs"] = work("aggregation.convolve_sectors", "macs")
    m["aggregation.quantile_s"] = incl("aggregation.quantile")
    m["estimation.mom_fit_s"] = incl("estimation.mom_fit")
    mcmc_s = incl("estimation.mcmc_sample")
    steps = work("estimation.mcmc_sample", "n_steps")
    m["estimation.mcmc_sample_s"] = mcmc_s
    m["estimation.mh_sweep_us"] = 1e6 * mcmc_s / steps if steps else 0.0
    m["estimation.logpost_evals"] = work("estimation.mcmc_sample", "logpost_evals")
    acc = [spans[i][4]["acceptance_min"] for i in by_name.get("estimation.mcmc_sample", [])]
    m["estimation.acceptance_min"] = min(acc) if acc else 0.0
    m["estimation.chain_bytes_written"] = work("estimation.mcmc_sample", "chain_bytes")
    m["estimation.load_chain_s"] = incl("estimation.load_chain")
    m["estimation.load_chain_records"] = work("estimation.load_chain", "records")
    m["solvency.delta_bof_s"] = incl("solvency.delta_bof_distribution")
    m["solvency.term_life_bel_s"] = incl("solvency.term_life_bel")
    m["solvency.term_life_bel_calls"] = len(by_name.get("solvency.term_life_bel", []))
    m["solvency.posterior_samples"] = work("solvency.delta_bof_distribution", "samples")
    m["solvency.lattice_points"] = work("solvency.delta_bof_distribution", "lattice_points")
    m["forecast.forecast_bands_s"] = incl("forecast.forecast_bands")
    m["forecast.engine_calls"] = sum(
        1 for i in by_name.get("aggregation.aggregate_loss", [])
        if spans[i][3] >= first and names[spans[spans[i][3]][0]] == "forecast.forecast_death_rate")
    m["forecast.life_expectancy_s"] = incl("forecast.life_expectancy")
    m["validation.moment_bounds_s"] = incl("validation.moment_bounds_test")
    m["validation.residual_tests_s"] = incl("validation.standardized_residuals",
                                            "validation.cross_correlation_ttest",
                                            "validation.breusch_godfrey", "validation.bg_lm_test")
    m["validation.ks_gamma_s"] = incl("validation.ks_gamma_test")
    return m


def median_us(fn, repeats: int) -> float:
    """Median wall time of fn() in microseconds over ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(times)
