"""Batch command-line interface.

Subcommands cover the whole pipeline: ``fit-mom``, ``fit-mcmc`` (resumable),
``map-factors``, ``aggregate``, ``forecast``, ``life-table``, ``scenario``,
``scr``, ``validate`` and ``benchmark``.  Everything is driven by one INI
config file; all outputs are plain CSV/JSON and deterministic given the
seeds (no timestamps are written).  Exit codes: 0 success, 1 usage,
2 data error, 3 numerical failure.  ``ECRPLUS_THREADS`` caps the number of
worker processes used for parallel MCMC chains.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import os
import sys
import time

import numpy as np

from . import aggregation, domain, estimation, forecast, ingest, mc_oracle, solvency, validation
from .domain import CellSpec, LatticeSeverity, Policyholder, Portfolio, RiskFactorSpec
from .errors import DataError, DegenerateEstimateError, EcrplusError, NumericalError
from .trends import TrendParams

QUANTILE_LEVELS = (0.01, 0.05, 0.5, 0.95, 0.99, 0.995)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Config file, parameter and CSV (de)serialisation
# ---------------------------------------------------------------------------


def _finite(text: str) -> float:
    if not math.isfinite(value := float(text)):
        raise ValueError("not a finite number")
    return value


def _count(text: str) -> int:
    if (value := int(text)) < 0:
        raise ValueError(f"negative count {value}")
    return value


def _list(parse):
    """Comma- or semicolon-separated values, each read by ``parse``."""
    return lambda text: [parse(x.strip()) for x in text.replace(";", ",").split(",") if x.strip()]


def _pairs(parse_key, parse_value):
    """Comma-separated ``key:value`` pairs, as a dict."""
    return lambda text: {
        parse_key(k.strip()): parse_value(v.strip())
        for k, v in (p.split(":", 1) for p in text.split(",") if p.strip())
    }


# Range checks: (predicate, what a value must be).
_POSITIVE = (lambda v: v > 0, "> 0")
_NON_NEGATIVE = (lambda v: v >= 0, ">= 0")
_AGE = (lambda v: 0 <= v < forecast.TERMINAL_AGE, f"an age in [0, {forecast.TERMINAL_AGE})")
_INCREASING = (lambda v: v and all(a < b for a, b in zip(v, v[1:])), "increasing ages")
_LEVELS = (lambda v: v and all(0 < x < 1 for x in v), "one or more levels in (0, 1)")
_FACTORS = (lambda v: all(k >= 1 and lam > 0 for k, lam in v.items()), "causes >= 1, factors > 0")
_LIKELIHOOD = (lambda v: v in ("poisson", "bernoulli"), "poisson or bernoulli")
_REQUIRED = object()
_PRIOR = {  # [prior] <family>.c, <family>.epsilon and <family>.order
    "c": (_finite, 0.0, _NON_NEGATIVE), "epsilon": (_finite, 0.0, _NON_NEGATIVE),
    "order": (int, 1, (lambda v: v in (1, 2, 3), "1, 2 or 3")),
}
_BOOK = {  # [aggregate] and [scenario]
    "portfolio": (str, _REQUIRED, None), "unit": (_finite, 1.0, _POSITIVE),
    "year": (_finite, None, None),
}

# Every config key: section -> key -> (parser, default or _REQUIRED, range
# check or None).  An empty value counts as absent.
CONFIG = {
    "data": {
        "population": (str, _REQUIRED, None), "deaths": (str, _REQUIRED, None),
        "factors": (str, None, None), "age_groups": (_list(str), (), None),
        "merge": (_pairs(str, str), {}, None), "year_min": (int, None, None),
        "year_max": (int, None, None), "idiosyncratic": (str, "idiosyncratic", None),
    },
    "trends": {
        "t0": (_finite, 1987.0, None),
        "age_lower_bounds": (_list(_finite), tuple(range(50, 90, 5)), _INCREASING),
        "eta": (_finite, 1.0 / 150.0, _POSITIVE), "zeta": (_finite, 0.0, None),
        "psi": (_finite, 1.0 / 150.0, _POSITIVE), "phi": (_finite, 0.0, None),
    },
    "model": {"sigma2": (_list(_finite), (), (lambda v: all(x > 0 for x in v), "variances > 0"))},
    "mcmc": {
        "steps": (int, 40_000, _POSITIVE), "burn_in": (int, 10_000, _NON_NEGATIVE),
        "chains": (int, 1, _POSITIVE), "seed": (int, 0, _NON_NEGATIVE),
        "scale": (_finite, 0.05, _POSITIVE), "likelihood": (str, "poisson", _LIKELIHOOD),
    },
    "prior": {f"{fam}.{attr}": e for fam in estimation.FAMILIES for attr, e in _PRIOR.items()},
    "aggregate": _BOOK,
    "scenario": {**_BOOK, "factors": (_pairs(int, _finite), {}, _FACTORS)},
    "scr": {
        "policies": (str, _REQUIRED, None), "asset_value": (_finite, 0.0, None),
        "coupon": (_finite, 0.0, None), "rate": (_finite, 0.0, _NON_NEGATIVE),
        "base_year": (int, None, None), "unit": (_finite, None, _POSITIVE),
    },
    "forecast": {
        "horizon": (int, _REQUIRED, None), "base_year": (int, None, None),
        "d": (_finite, 0.0, _NON_NEGATIVE), "levels": (_list(_finite), (0.05, 0.5, 0.95), _LEVELS),
        "max_samples": (int, 50, _POSITIVE),
    },
    "life_table": {
        "year": (int, None, None), "age_min": (int, 0, _AGE), "age_max": (int, 110, _AGE),
    },
}


def load_config(path: str) -> configparser.ConfigParser:
    if not os.path.isfile(path):
        raise DataError(f"config file not found: {path}")
    cfg = configparser.ConfigParser(interpolation=None)
    try:
        cfg.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: bad config file ({exc})") from None
    cfg.path = path
    unknown = [s for s in cfg.sections() if s not in CONFIG] + ["DEFAULT"] * bool(cfg.defaults())
    if unknown:
        raise DataError(f"{path}: unknown section [{unknown[0]}] (known: {', '.join(CONFIG)})")
    return cfg


def config(cfg: configparser.ConfigParser, section: str, **flags) -> dict:
    """Every key of ``section`` in :data:`CONFIG`, parsed, defaulted and range-checked; a
    flag that is not None replaces the key's value.  A missing required section or key, an
    unknown key, an unparsable value or one out of range is a DataError naming them."""
    table = CONFIG[section]
    if not cfg.has_section(section) and any(e[1] is _REQUIRED for e in table.values()):
        raise DataError(f"{cfg.path}: config needs a [{section}] section")
    raw = dict(cfg[section]) if cfg.has_section(section) else {}
    unknown = sorted(raw.keys() - table.keys())
    if unknown:
        raise DataError(f"{cfg.path}: [{section}] {unknown[0]} = {raw[unknown[0]]}: unknown key")
    out = {}
    for key, (parse, default, check) in table.items():
        where = f"{cfg.path}: [{section}] {key} = {raw.get(key)}"
        if flags.get(key) is not None:
            value, where = flags[key], f"--{key.replace('_', '-')} {flags[key]}"
        elif raw.get(key):
            try:
                value = parse(raw[key])
            except ValueError as exc:
                raise DataError(f"{where}: cannot be read ({exc})") from None
        elif default is _REQUIRED:
            raise DataError(f"{cfg.path}: [{section}] needs a {key} entry")
        else:
            out[key] = default
            continue
        if check and not check[0](value):
            raise DataError(f"{where}: must be {check[1]}")
        out[key] = value
    return out


def trends_from_config(cfg: configparser.ConfigParser, n_causes: int) -> TrendParams:
    """Template trend parameters (alpha, beta, u, v zeroed) from [trends]."""
    sec = config(cfg, "trends")
    A = len(sec["age_lower_bounds"])
    return TrendParams(  # beta, zeta, eta, v, phi and psi broadcast to their shapes
        alpha=np.zeros((A, 2)), beta=0.0, zeta=sec["zeta"], eta=sec["eta"],
        u=np.zeros((A, 2, n_causes)), v=0.0, phi=sec["phi"], psi=sec["psi"],
        t0=sec["t0"], age_lower_bounds=np.array(sec["age_lower_bounds"]),
    )


def params_to_dict(params: estimation.ParamVector) -> dict:
    t = params.trends
    out = {f: v.tolist() for f, v in params.to_state().items() if f != "kappa"}
    out.update(
        t0=t.t0,
        kappa={str(z): v for z, v in sorted(t.kappa.items())},
        age_lower_bounds=None if t.age_lower_bounds is None else t.age_lower_bounds.tolist(),
        fixed=sorted(params.fixed),
    )
    return out


def params_from_dict(d: dict) -> estimation.ParamVector:
    bounds = d.get("age_lower_bounds")
    trends = TrendParams(
        **{f: np.array(d[f]) for f in estimation.TREND_FAMILIES},
        t0=float(d["t0"]),
        kappa={int(z): float(v) for z, v in d.get("kappa", {}).items()},
        age_lower_bounds=None if bounds is None else np.array(bounds),
    )
    return estimation.ParamVector(
        trends=trends,
        sigma2=np.array(d["sigma2"], dtype=float),
        fixed=frozenset(d.get("fixed", sorted(estimation._DEFAULT_FIXED))),
    )


def load_params(path: str) -> estimation.ParamVector:
    if not os.path.isfile(path):
        raise DataError(f"parameter file not found: {path}")
    with open(path) as fh:
        try:
            return params_from_dict(json.load(fh))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: damaged parameter file ({exc!r})") from None


def _panel_params(args, panel: ingest.CohortPanel) -> estimation.ParamVector:
    """The ``--params`` file, which must have the panel's age groups and causes."""
    params = load_params(args.params)
    shape = (params.trends.n_age_groups, params.trends.n_causes)
    if shape != (panel.n_age_groups, panel.n_causes):
        raise DataError(f"{args.params}: (age groups, causes) {shape} do not match the panel's")
    return params


def _posterior_sample(args, params: estimation.ParamVector, max_samples: int | None = None):
    """The chain file given with ``--chain``, checked against the
    parameter file's free blocks, or the parameter vector alone.  With
    ``max_samples`` only the records a command draws are loaded."""
    if not args.chain:
        return [params]
    return estimation.load_chain(args.chain, template=params, max_samples=max_samples)


def save_params(params: estimation.ParamVector, path: str):
    _write_json(params_to_dict(params), path)


def panel_from_config(cfg: configparser.ConfigParser) -> ingest.CohortPanel:
    sec = config(cfg, "data")
    years = (sec["year_min"], sec["year_max"])
    if (years[0] is None) != (years[1] is None):
        raise DataError(f"{cfg.path}: [data] year_min and year_max go together")
    return ingest.ingest(ingest.IngestSpec(
        population_path=sec["population"], deaths_path=sec["deaths"], factors_path=sec["factors"],
        age_group_labels=tuple(sec["age_groups"]), cause_merge=sec["merge"],
        year_range=None if years[0] is None else years, idiosyncratic_label=sec["idiosyncratic"],
    ))


def _csv_records(path: str, kind: str, make) -> list:
    """``make(row)`` for each row of the CSV file at ``path``.  A missing
    file, or a row ``make`` cannot read, is a DataError naming the file."""
    if not os.path.isfile(path):
        raise DataError(f"{kind} file not found: {path}")
    records = []
    with open(path, newline="") as fh:
        for i, row in enumerate(csv.DictReader(fh, restval=""), start=2):
            try:
                records.append(make(row))
            except (KeyError, ValueError) as exc:
                raise DataError(f"{path}:{i}: bad {kind} row ({exc})") from None
    return records


def load_portfolio_csv(path: str, trends: TrendParams, year: float, unit: float) -> Portfolio:
    cells = _csv_records(path, "portfolio", lambda row: CellSpec(
        age_group=int(row["age_group"]), gender=row["gender"].strip().lower(),
        count=_count(row["count"]), payment=_finite(row.get("payment") or "1"),
        survival_payment=_finite(row["survival_payment"]) if row.get("survival_payment") else None,
    ))
    return domain.build_portfolio(cells, trends, year, unit=unit)


def _book(args, cfg, section: str):
    """[section]'s keys, the risk factors and the portfolio priced at [section]
    year with the ``--params`` trends, else [trends]; year defaults to their t0."""
    sec = config(cfg, section)
    rf = [RiskFactorSpec(k=i + 1, variance=v) for i, v in enumerate(config(cfg, "model")["sigma2"])]
    trends = load_params(args.params).trends if args.params else trends_from_config(cfg, len(rf) + 1)
    year = trends.t0 if sec["year"] is None else sec["year"]
    return sec, rf, load_portfolio_csv(sec["portfolio"], trends, year, sec["unit"])


def _write_distribution_csv(dist: aggregation.LossDistribution, path: str):
    n = np.arange(dist.pmf.size)
    rows = zip(n.tolist(), (dist.offset + n * dist.unit).tolist(),
               dist.pmf.tolist(), dist.cdf().tolist())
    with open(path, "w", newline="") as fh:
        fh.write("index,value,pmf,cdf\r\n")
        fh.writelines("%d,%.12g,%.12g,%.12g\r\n" % row for row in rows)


def _dist_summary(dist: aggregation.LossDistribution) -> dict:
    out = {
        "mean": dist.mean(),
        "sd": float(np.sqrt(dist.variance())),
        "truncation_mass": dist.truncation_mass,
        "quantiles": {},
    }
    for p in QUANTILE_LEVELS:
        try:
            out["quantiles"][str(p)] = aggregation.quantile(dist, p)
        except NumericalError:
            out["quantiles"][str(p)] = None
    return out


def _write_json(obj, path: str):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_benchmark(args) -> int:
    """Reference portfolio: exact engine vs naive per-head Monte Carlo."""
    from scipy import stats as sps

    n_sims = args.sims
    out = {}
    holders_idio = [
        Policyholder(
            id="bench", age_group=0, gender="f", birth_year=0, death_prob=0.05,
            weights=np.array([1.0]), payment=LatticeSeverity.point(1), multiplicity=10_000,
        )
    ]
    holders_mixed = [
        Policyholder(
            id="bench", age_group=0, gender="f", birth_year=0, death_prob=0.05,
            weights=np.array([0.0, 1.0]), payment=LatticeSeverity.point(1), multiplicity=10_000,
        )
    ]
    cases = [
        ("idiosyncratic", Portfolio(holders=holders_idio), []),
        ("one-factor", Portfolio(holders=holders_mixed), [RiskFactorSpec(k=1, variance=0.1)]),
    ]
    for name, pf, rf in cases:
        t0 = time.perf_counter()
        exact = aggregation.aggregate_loss(pf, rf, unit=1.0)
        t_exact = time.perf_counter() - t0
        cfg = mc_oracle.SimConfig(n_sims=n_sims, seed=args.seed, method="individual")
        t0 = time.perf_counter()
        mc = mc_oracle.simulate_bernoulli(pf, rf, cfg)
        t_mc = time.perf_counter() - t0

        grid = np.arange(exact.n_max + 1)
        if rf:
            nodes, weights = solvency.gamma_mixture_grid(rf[0].variance, 2000)
            ref_pmf = np.zeros(exact.n_max + 1)
            for lam, wt in zip(nodes, weights):
                ref_pmf += wt * sps.binom.pmf(grid, 10_000, min(0.05 * lam, 1.0))
        else:
            ref_pmf = sps.binom.pmf(grid, 10_000, 0.05)
        ref = aggregation.LossDistribution(
            unit=1.0, pmf=ref_pmf, truncation_mass=max(0.0, 1.0 - ref_pmf.sum())
        )
        quantiles = {
            str(p): aggregation.quantile(exact, p) for p in (0.01, 0.1, 0.5, 0.9, 0.99)
        }
        mc_quantiles = {
            str(p): aggregation.quantile(mc, p) for p in (0.01, 0.1, 0.5, 0.9, 0.99)
        }
        out[name] = {
            "engine_quantiles": quantiles,
            "mc_quantiles": mc_quantiles,
            "engine_seconds": t_exact,
            "mc_seconds": t_mc,
            "speedup": t_mc / t_exact if t_exact > 0 else float("inf"),
            "engine_tv_vs_reference": aggregation.tv_distance(exact, ref),
            "mc_tv_vs_reference": aggregation.tv_distance(mc, ref),
            "n_sims": n_sims,
        }
        print(
            f"{name}: engine {t_exact * 1e3:.2f} ms, MC {t_mc:.2f} s "
            f"({out[name]['speedup']:.0f}x), quantiles {list(quantiles.values())}, "
            f"TV {out[name]['engine_tv_vs_reference']:.4f}"
        )
    _write_json(out, os.path.join(args.out, "benchmark.json"))
    return 0


def cmd_aggregate(args) -> int:
    cfg = load_config(args.config)
    sec, rf, pf = _book(args, cfg, "aggregate")
    unit = sec["unit"]
    if not pf.holders:
        dist = aggregation.LossDistribution.point(0.0, unit=unit)
    else:
        dist = aggregation.aggregate_loss(pf, rf, unit=unit)
    _write_distribution_csv(dist, os.path.join(args.out, "distribution.csv"))
    _write_json(_dist_summary(dist), os.path.join(args.out, "summary.json"))
    print(f"aggregate: {len(pf)} heads, mean {dist.mean():.4f}, sd {np.sqrt(dist.variance()):.4f}")
    return 0


def cmd_fit_mom(args) -> int:
    cfg = load_config(args.config)
    panel = panel_from_config(cfg)
    template = trends_from_config(cfg, panel.n_causes)
    fitted = estimation.mom_fit(panel, template)
    save_params(fitted, os.path.join(args.out, "params_mom.json"))
    print(f"fit-mom: {panel.n_years} years, {panel.n_age_groups} age groups, "
          f"K={panel.n_causes - 1}; sigma2={np.round(fitted.sigma2, 6).tolist()}")
    return 0


def _prior_from_config(cfg) -> estimation.PriorSpec:
    """[prior] ``<family>.c``, ``.epsilon`` and ``.order``; a family with
    c = 0 is flat and left out."""
    sec = config(cfg, "prior")
    return estimation.PriorSpec({
        f: estimation.BlockPrior(sec[f"{f}.c"], sec[f"{f}.epsilon"], sec[f"{f}.order"])
        for f in estimation.FAMILIES
        if sec[f"{f}.c"] > 0
    })


def _run_chain(payload):
    panel, init, prior, mcfg, resume = payload
    return estimation.mcmc_sample(panel, init, prior, mcfg, resume=resume)


def cmd_fit_mcmc(args) -> int:
    cfg = load_config(args.config)
    sec = config(cfg, "mcmc", steps=args.steps, burn_in=args.burn_in)
    n_steps, burn_in, n_chains = sec["steps"], sec["burn_in"], sec["chains"]
    if burn_in >= n_steps:
        raise DataError(f"{cfg.path}: [mcmc] burn_in {burn_in} must be below steps {n_steps}")
    prior = _prior_from_config(cfg)
    threads = os.environ.get("ECRPLUS_THREADS", "1")
    if not threads.isdigit() or int(threads) < 1:
        raise UsageError(f"ECRPLUS_THREADS must be a positive integer, not {threads!r}")
    panel = panel_from_config(cfg)
    if sec["likelihood"] == "bernoulli" and panel.n_causes > 1:
        panel = panel.collapse_causes()
    if args.params:
        init = _panel_params(args, panel)
    else:
        init = estimation.mom_fit(panel, trends_from_config(cfg, panel.n_causes))

    payloads = []
    for c in range(n_chains):
        mcfg = estimation.McmcConfig(
            n_steps=n_steps, burn_in=burn_in, seed=sec["seed"], chain_id=c,
            likelihood=sec["likelihood"], record_path=os.path.join(args.out, f"chain_{c}.csv"),
            proposal_scales={f: sec["scale"] for f in estimation.FAMILIES},
        )
        payloads.append((panel, init, prior, mcfg, args.resume))

    workers = min(int(threads), n_chains)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chains = list(pool.map(_run_chain, payloads))
    else:
        chains = [_run_chain(p) for p in payloads]

    summary = {}
    for c, chain in enumerate(chains):
        summary[f"chain_{c}"] = {
            "kept_steps": len(chain),
            "acceptance": chain.acceptance,
            "max_log_posterior": float(chain.log_posterior.max()) if len(chain) else None,
        }
    best = max(chains, key=lambda ch: ch.log_posterior.max() if len(ch) else -np.inf)
    save_params(best.mean_param_vector(), os.path.join(args.out, "params_mcmc.json"))
    _write_json(summary, os.path.join(args.out, "mcmc_summary.json"))
    print(f"fit-mcmc: {n_chains} chain(s) x {n_steps} steps, burn-in {burn_in}; "
          f"kept {sum(len(c) for c in chains)} records")
    return 0


def cmd_map_factors(args) -> int:
    cfg = load_config(args.config)
    panel = panel_from_config(cfg)
    params = _panel_params(args, panel)
    rows = []
    sigma_rows = []
    for k in range(1, panel.n_causes):
        lams = []
        for year in panel.years:
            try:
                lam = estimation.map_risk_factor(panel, params, k, int(year))
            except EcrplusError:
                lam = float("nan")
            try:
                approx = estimation.map_risk_factor_approx(panel, params, k, int(year))
            except EcrplusError:
                approx = float("nan")
            rows.append((panel.cause_labels[k], int(year), lam, approx))
            lams.append(lam)
        series = np.array([x for x in lams if np.isfinite(x)])
        try:
            sig = estimation.map_sigma(series) if series.size else float("nan")
        except EcrplusError:
            sig = float("nan")
        sigma_rows.append((panel.cause_labels[k], sig, estimation.map_sigma_approx(series)))
    with open(os.path.join(args.out, "factors.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["cause", "year", "lambda_map", "lambda_approx"])
        for row in rows:
            w.writerow(row)
    with open(os.path.join(args.out, "factor_sigmas.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["cause", "sigma_map", "sigma_approx"])
        for row in sigma_rows:
            w.writerow(row)
    print(f"map-factors: {len(rows)} factor realisations written")
    return 0


def cmd_forecast(args) -> int:
    cfg = load_config(args.config)
    sec = config(cfg, "forecast")
    panel = panel_from_config(cfg)
    params = _panel_params(args, panel)
    base_year = int(panel.years[-1]) if sec["base_year"] is None else sec["base_year"]
    horizon, levels, max_samples = sec["horizon"], sec["levels"], sec["max_samples"]
    if base_year not in panel.years:
        raise DataError(
            f"{cfg.path}: [forecast] base_year {base_year} is not a panel year "
            f"({int(panel.years[0])}-{int(panel.years[-1])}); its exposures are unknown"
        )
    if horizon <= base_year:
        raise DataError(
            f"{cfg.path}: [forecast] horizon {horizon} must lie beyond base_year {base_year}"
        )
    ti = list(panel.years).index(base_year)
    population = {(a, gi): int(panel.exposure[ti, a, gi])
                  for a in range(panel.n_age_groups) for gi in range(2)}
    fcfg = forecast.ForecastConfig(
        base_year=base_year, horizon=horizon, inflation=sec["d"], population=population
    )
    draws = estimation.posterior_draws(_posterior_sample(args, params, max_samples), max_samples)
    years = list(range(base_year + 1, horizon + 1))
    with open(os.path.join(args.out, "forecast_bands.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["age_group", "gender", "year"] + [f"q{lv}" for lv in levels])
        for a in range(panel.n_age_groups):
            for gi, g in enumerate("fm"):
                bands = forecast.forecast_bands(
                    (a, gi), years, draws, fcfg, levels=tuple(levels), max_samples=max_samples
                )
                for year in years:
                    w.writerow(
                        [a, g, year] + [f"{bands[year][lv]:.8g}" for lv in levels]
                    )
    print(f"forecast: bands for {panel.n_age_groups * 2} cells, {len(years)} years")
    return 0


def cmd_life_table(args) -> int:
    cfg = load_config(args.config)
    sec = config(cfg, "life_table")
    params = load_params(args.params)
    year = int(params.trends.t0) if sec["year"] is None else sec["year"]
    age_min, age_max = sec["age_min"], sec["age_max"]
    with open(os.path.join(args.out, "life_table.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["age", "gender", "expected_future_years"])
        for age in range(age_min, age_max + 1):
            for gi, g in enumerate("fm"):
                e = forecast.life_expectancy(age, gi, year, params.trends)
                w.writerow([age, g, f"{e:.6f}"])
    print(f"life-table: ages {age_min}..{age_max} written")
    return 0


def cmd_scenario(args) -> int:
    cfg = load_config(args.config)
    sec, rf, pf = _book(args, cfg, "scenario")
    if not pf.holders:
        raise DataError(f"{sec['portfolio']}: no policyholders (no rows, or every count is 0)")
    unit, fixed = sec["unit"], sec["factors"]
    sectors = aggregation.build_sectors(pf, rf, unit)
    cond, base = aggregation.aggregate_sector_sets(
        [solvency.scenario_sectors(sectors, solvency.Scenario(fixed_factors=fixed)), sectors]
    )
    report = {"scenario": _dist_summary(cond), "unconditional": _dist_summary(base)}
    try:
        total = pf.total_survival_payment()
        report["scenario_annuity_loss"] = _dist_summary(
            aggregation.loss_from_annuity(total, cond)
        )
        report["unconditional_annuity_loss"] = _dist_summary(
            aggregation.loss_from_annuity(total, base)
        )
    except DataError:
        pass
    _write_json(report, os.path.join(args.out, "scenario.json"))
    _write_distribution_csv(cond, os.path.join(args.out, "scenario_distribution.csv"))
    print(f"scenario: fixed {fixed}; mean {cond.mean():.3f} vs {base.mean():.3f}")
    return 0


def cmd_scr(args) -> int:
    cfg = load_config(args.config)
    sec = config(cfg, "scr")
    policies = _csv_records(sec["policies"], "policy", lambda row: solvency.TermPolicy(
        age=int(row["age"]), gender=row["gender"].strip().lower(),
        sum_insured=_finite(row["sum_insured"]), term_years=int(row["term_years"]),
    ))
    if not policies:
        raise DataError(f"{sec['policies']}: no policies")
    params = load_params(args.params)
    chain = _posterior_sample(args, params)
    horizon = max(p.term_years for p in policies) + 2
    dist = solvency.delta_bof_distribution(
        policies,
        asset_value=sec["asset_value"],
        coupon=sec["coupon"],
        curve=solvency.DiscountCurve.flat(sec["rate"], horizon),
        chain=chain,
        base_year=int(params.trends.t0) if sec["base_year"] is None else sec["base_year"],
        unit=sec["unit"],
    )
    capital = solvency.scr(dist)
    report = _dist_summary(dist)
    report["scr"] = capital
    _write_json(report, os.path.join(args.out, "scr.json"))
    _write_distribution_csv(dist, os.path.join(args.out, "delta_bof.csv"))
    print(f"scr: 99.5% quantile of the own-funds decline = {capital:.2f}")
    return 0


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    panel = panel_from_config(cfg)
    params = _panel_params(args, panel)
    chain = _posterior_sample(args, params, validation.MOMENT_BOUNDS_DRAWS)
    report = {}

    mb = validation.moment_bounds_test(panel, params, chain)
    report["moment_bounds"] = {
        "accepted_fraction": mb.accepted_fraction,
        "n_statistics": len(mb.statistics),
    }
    with open(os.path.join(args.out, "moment_bounds.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["kind", "cell", "observed", "band_low", "band_high", "accepted"])
        for s in mb.statistics:
            w.writerow([s["kind"], s["cell"], f"{s['observed']:.8g}",
                        f"{s['band'][0]:.8g}", f"{s['band'][1]:.8g}", int(s["accepted"])])

    # A factor mode that does not exist (too few deaths) is taken as its
    # prior mean, lambda = 1, and counted.
    lam = np.ones((panel.n_years, panel.n_causes - 1))
    degenerate_modes = 0
    for k in range(1, panel.n_causes):
        for ti, year in enumerate(panel.years):
            try:
                lam[ti, k - 1] = estimation.map_risk_factor(panel, params, k, int(year))
            except DegenerateEstimateError:
                degenerate_modes += 1
    resid = validation.standardized_residuals(panel, params, lam)

    if panel.n_causes > 1:
        cc = validation.cross_correlation_ttest(resid)
        report["cross_correlation"] = {
            "accepted_fraction": cc.accepted_fraction,
            "n_statistics": len(cc.statistics),
        }
        with open(os.path.join(args.out, "cross_correlation.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["cell", "pair", "correlation", "p_value", "accepted"])
            for s in cc.statistics:
                w.writerow([s["cell"], s["pair"], f"{s['correlation']:.6g}",
                            f"{s['p_value']:.6g}", int(s["accepted"])])

    max_order = min(10, panel.n_years - 3)
    fracs = []
    for a in range(panel.n_age_groups):
        for gi in range(2):
            for k in range(panel.n_causes):
                bg = validation.breusch_godfrey(resid[:, a, gi, k], max_order=max_order)
                fracs.append(bg.accepted_fraction)
    report["breusch_godfrey"] = {
        "accepted_fraction": float(np.mean(fracs)),
        "max_order": max_order,
    }

    ks, sigma_fallbacks = {}, 0
    for k in range(1, panel.n_causes):
        rep = validation.ks_gamma_test(lam[:, k - 1], float(params.sigma2[k - 1]))
        ks[panel.cause_labels[k]] = rep.statistics[0]
        sigma_fallbacks += rep.extras["sigma_fallbacks"]
    report["ks_gamma"] = ks
    report["fallbacks"] = {
        "degenerate_factor_modes": degenerate_modes,
        "ks_bootstrap_sigma_moments": sigma_fallbacks,
    }

    _write_json(report, os.path.join(args.out, "validation.json"))
    print("validate:", json.dumps({k: (v if not isinstance(v, dict) else
          {kk: vv for kk, vv in list(v.items())[:2]}) for k, v in report.items()})[:400])
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="ecrplus", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", "-c", default="ecrplus.ini", help="INI config file")
        p.add_argument("--out", "-o", default=".", help="output directory")
        p.add_argument("--params", help="parameter JSON file")

    p = sub.add_parser("benchmark", help="reference-portfolio engine vs Monte Carlo")
    p.add_argument("--out", "-o", default=".")
    p.add_argument("--sims", type=int, default=50_000)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_benchmark)

    for name, fn in [
        ("aggregate", cmd_aggregate),
        ("fit-mom", cmd_fit_mom),
        ("map-factors", cmd_map_factors),
        ("life-table", cmd_life_table),
        ("scenario", cmd_scenario),
    ]:
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("fit-mcmc", help="random-walk MH within Gibbs; resumable")
    common(p)
    p.add_argument("--steps", type=int)
    p.add_argument("--burn-in", type=int, dest="burn_in")
    p.add_argument("--resume", action="store_true")
    p.set_defaults(func=cmd_fit_mcmc)

    for name, fn in [("forecast", cmd_forecast), ("scr", cmd_scr), ("validate", cmd_validate)]:
        p = sub.add_parser(name)
        common(p)
        p.add_argument("--chain", help="chain record file for parameter uncertainty")
        p.set_defaults(func=fn)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if hasattr(args, "out"):
            os.makedirs(args.out, exist_ok=True)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, EcrplusError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
