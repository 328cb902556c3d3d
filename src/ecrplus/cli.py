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
import os
import sys
import time

import numpy as np

from . import aggregation, estimation, forecast, ingest, mc_oracle, solvency, validation
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
# Config and parameter (de)serialisation
# ---------------------------------------------------------------------------


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.replace(";", ",").split(",") if x.strip()]


def load_config(path: str) -> configparser.ConfigParser:
    if not os.path.exists(path):
        raise DataError(f"config file not found: {path}")
    cfg = configparser.ConfigParser()
    cfg.read(path)
    return cfg


def trends_from_config(cfg: configparser.ConfigParser, n_causes: int) -> TrendParams:
    """Template trend parameters (alpha, beta, u, v zeroed) from [trends]."""
    sec = cfg["trends"] if cfg.has_section("trends") else {}
    bounds = _floats(sec.get("age_lower_bounds", "50,55,60,65,70,75,80,85"))
    A = len(bounds)
    t0 = float(sec.get("t0", "1987"))
    eta = float(sec.get("eta", str(1.0 / 150.0)))
    zeta = float(sec.get("zeta", "0"))
    psi = float(sec.get("psi", str(1.0 / 150.0)))
    phi = float(sec.get("phi", "0"))
    return TrendParams(
        alpha=np.zeros((A, 2)),
        beta=np.zeros((A, 2)),
        zeta=np.full((A, 2), zeta),
        eta=np.full((A, 2), eta),
        u=np.zeros((A, 2, n_causes)),
        v=np.zeros((A, 2, n_causes)),
        phi=np.full(n_causes, phi),
        psi=np.full(n_causes, psi),
        t0=t0,
        age_lower_bounds=np.array(bounds),
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
    if not os.path.exists(path):
        raise DataError(f"parameter file not found: {path}")
    with open(path) as fh:
        try:
            return params_from_dict(json.load(fh))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: damaged parameter file ({exc!r})") from None


def _posterior_sample(args, params: estimation.ParamVector):
    """The chain file given with ``--chain``, checked against the
    parameter file's free blocks, or the parameter vector alone."""
    return estimation.load_chain(args.chain, template=params) if args.chain else [params]


def save_params(params: estimation.ParamVector, path: str):
    with open(path, "w") as fh:
        json.dump(params_to_dict(params), fh, indent=1, sort_keys=True)
        fh.write("\n")


def panel_from_config(cfg: configparser.ConfigParser) -> ingest.CohortPanel:
    if not cfg.has_section("data"):
        raise DataError("config needs a [data] section with population/deaths paths")
    sec = cfg["data"]
    merge = {}
    for pair in sec.get("merge", "").split(","):
        if ":" in pair:
            src, dst = pair.split(":", 1)
            merge[src.strip()] = dst.strip()
    year_range = None
    if sec.get("year_min") and sec.get("year_max"):
        year_range = (int(sec["year_min"]), int(sec["year_max"]))
    labels = tuple(x.strip() for x in sec.get("age_groups", "").split(",") if x.strip())
    spec = ingest.IngestSpec(
        population_path=sec.get("population", ""),
        deaths_path=sec.get("deaths", ""),
        factors_path=sec.get("factors") or None,
        age_group_labels=labels,
        cause_merge=merge,
        year_range=year_range,
        idiosyncratic_label=sec.get("idiosyncratic", "idiosyncratic"),
    )
    return ingest.ingest(spec)


def load_portfolio_csv(path: str, trends: TrendParams, year: float, unit: float) -> Portfolio:
    if not os.path.exists(path):
        raise DataError(f"portfolio file not found: {path}")
    cells = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for i, row in enumerate(reader, start=2):
            try:
                cells.append(
                    CellSpec(
                        age_group=int(row["age_group"]),
                        gender=row["gender"].strip().lower(),
                        count=int(row["count"]),
                        payment=float(row.get("payment") or 1.0),
                        survival_payment=float(row["survival_payment"])
                        if row.get("survival_payment")
                        else None,
                    )
                )
            except (KeyError, ValueError) as exc:
                raise DataError(f"{path}:{i}: bad portfolio row ({exc})") from None
    from .domain import build_portfolio

    return build_portfolio(cells, trends, year, unit=unit)


def risk_factors_from_config(cfg) -> list[RiskFactorSpec]:
    sec = cfg["model"] if cfg.has_section("model") else {}
    s2 = _floats(sec.get("sigma2", ""))
    return [RiskFactorSpec(k=i + 1, variance=v) for i, v in enumerate(s2)]


def _write_distribution_csv(dist: aggregation.LossDistribution, path: str):
    cdf = dist.cdf()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "value", "pmf", "cdf"])
        for n, p in enumerate(dist.pmf):
            w.writerow([n, f"{dist.offset + n * dist.unit:.12g}", f"{p:.12g}", f"{cdf[n]:.12g}"])


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
    rf = risk_factors_from_config(cfg)
    sec = cfg["aggregate"]
    unit = float(sec.get("unit", "1.0"))
    year = float(sec.get("year", sec.get("t0", "1987")))
    params = load_params(args.params) if args.params else None
    trends = params.trends if params else trends_from_config(cfg, len(rf) + 1)
    pf = load_portfolio_csv(sec["portfolio"], trends, year, unit)
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
    blocks = {}
    if cfg.has_section("prior"):
        grouped: dict[str, dict[str, float]] = {}
        for key, val in cfg["prior"].items():
            if "." not in key:
                continue
            family, attr = key.rsplit(".", 1)
            grouped.setdefault(family, {})[attr] = float(val)
        for family, kw in grouped.items():
            blocks[family] = estimation.BlockPrior(
                c=kw.get("c", 0.0),
                epsilon=kw.get("epsilon", 0.0),
                order=int(kw.get("order", 1)),
            )
    return estimation.PriorSpec(blocks)


def _run_chain(payload):
    panel, init, prior, mcfg, resume = payload
    return estimation.mcmc_sample(panel, init, prior, mcfg, resume=resume)


def cmd_fit_mcmc(args) -> int:
    cfg = load_config(args.config)
    panel = panel_from_config(cfg)
    sec = cfg["mcmc"] if cfg.has_section("mcmc") else {}
    likelihood = sec.get("likelihood", "poisson")
    if likelihood == "bernoulli" and panel.n_causes > 1:
        panel = panel.collapse_causes()
    if args.params:
        init = load_params(args.params)
    else:
        init = estimation.mom_fit(panel, trends_from_config(cfg, panel.n_causes))
    prior = _prior_from_config(cfg)
    n_steps = args.steps or int(sec.get("steps", "40000"))
    burn_in = args.burn_in or int(sec.get("burn_in", "10000"))
    n_chains = int(sec.get("chains", "1"))
    seed = int(sec.get("seed", "0"))
    scale = float(sec.get("scale", "0.05"))

    payloads = []
    for c in range(n_chains):
        mcfg = estimation.McmcConfig(
            n_steps=n_steps,
            burn_in=burn_in,
            seed=seed,
            chain_id=c,
            likelihood=likelihood,
            proposal_scales={f: scale for f in estimation.FAMILIES},
            record_path=os.path.join(args.out, f"chain_{c}.csv"),
        )
        payloads.append((panel, init, prior, mcfg, args.resume))

    threads = int(os.environ.get("ECRPLUS_THREADS", "1"))
    if threads > 1 and n_chains > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
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
    params = load_params(args.params)
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
    panel = panel_from_config(cfg)
    params = load_params(args.params)
    sec = cfg["forecast"]
    base_year = int(sec.get("base_year", str(int(panel.years[-1]))))
    horizon = int(sec["horizon"])
    d = float(sec.get("d", "0"))
    levels = _floats(sec.get("levels", "0.05,0.5,0.95"))
    population = {}
    ti = list(panel.years).index(base_year) if base_year in panel.years else -1
    for a in range(panel.n_age_groups):
        for gi in range(2):
            population[(a, gi)] = int(panel.exposure[ti, a, gi])
    fcfg = forecast.ForecastConfig(
        base_year=base_year, horizon=horizon, inflation=d, population=population
    )
    max_samples = int(sec.get("max_samples", "50"))
    draws = estimation.posterior_draws(_posterior_sample(args, params), max_samples)
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
    params = load_params(args.params)
    sec = cfg["life_table"] if cfg.has_section("life_table") else {}
    year = int(sec.get("year", str(int(params.trends.t0))))
    age_min = int(sec.get("age_min", "0"))
    age_max = int(sec.get("age_max", "110"))
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
    rf = risk_factors_from_config(cfg)
    sec = cfg["scenario"]
    unit = float(sec.get("unit", "1.0"))
    year = float(sec.get("year", "1987"))
    params = load_params(args.params) if args.params else None
    trends = params.trends if params else trends_from_config(cfg, len(rf) + 1)
    pf = load_portfolio_csv(sec["portfolio"], trends, year, unit)
    fixed = {}
    for pair in sec.get("factors", "").split(","):
        if ":" in pair:
            k, lam = pair.split(":", 1)
            fixed[int(k)] = float(lam)
    scen = solvency.Scenario(fixed_factors=fixed, description=sec.get("description", ""))
    cond = solvency.scenario_loss(pf, rf, scen, unit=unit)
    base = aggregation.aggregate_loss(pf, rf, unit=unit)
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
    sec = cfg["scr"]
    policies = []
    with open(sec["policies"], newline="") as fh:
        reader = csv.DictReader(fh)
        for i, row in enumerate(reader, start=2):
            try:
                policies.append(
                    solvency.TermPolicy(
                        age=int(row["age"]),
                        gender=row["gender"].strip().lower(),
                        sum_insured=float(row["sum_insured"]),
                        term_years=int(row["term_years"]),
                    )
                )
            except (KeyError, ValueError) as exc:
                raise DataError(f"{sec['policies']}:{i}: bad policy row ({exc})") from None
    params = load_params(args.params)
    chain = _posterior_sample(args, params)
    horizon = max(p.term_years for p in policies) + 2
    curve = solvency.DiscountCurve.flat(float(sec.get("rate", "0.0")), horizon)
    base_year = int(sec.get("base_year", str(int(params.trends.t0))))
    unit = float(sec["unit"]) if sec.get("unit") else None
    dist = solvency.delta_bof_distribution(
        policies,
        asset_value=float(sec.get("asset_value", "0")),
        coupon=float(sec.get("coupon", "0")),
        curve=curve,
        chain=chain,
        base_year=base_year,
        unit=unit,
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
    params = load_params(args.params)
    chain = _posterior_sample(args, params)
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
