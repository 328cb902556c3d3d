"""Re-measure the single-call baselines quoted in ROADMAP.md.

    python3 bench/baselines.py [--seed N]

Run from the root of a checkout.  Prints one JSON object:

- the heterogeneous book of the book-aggregate workload (200 cells, four
  sectors, payments 1-49): sector build, Panjer over the four sectors and
  ``convolve_sectors``, each repeated in one process;
- the fitter on an A=8, K=3, T=25 panel at exposure 100,000: the public
  log-likelihood, one log-posterior evaluation and one MH step (a sweep
  over the free blocks), for the CLI's default free blocks and for the
  alpha/beta/sigma2 blocks that acceptance criterion 6b samples;
- ``delta_bof_distribution`` with 50 policies and one posterior sample at
  2k, 20k and 200k lattice points (the default), with the SCR at each.

The 200k-point SCR alone takes tens of seconds to minutes.
"""

import argparse
import math
import os
import statistics
import shutil
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "ECRPLUS_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEATS = 3


def timed(fn, repeats):
    times, out = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return times, out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ecrplus", "cli.py")):
        print("ecrplus sources not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import json

    import numpy as np

    from ecrplus import aggregation, cli, estimation, solvency
    from ecrplus.domain import RiskFactorSpec

    import reference as ref
    import workloads as wl

    out = {}
    ws = os.path.join(ROOT, ".bench_work", "baselines")
    shutil.rmtree(ws, ignore_errors=True)
    os.makedirs(os.path.join(ws, "out"))
    try:
        # Heterogeneous book.
        book = wl.BookAggregate(ws, args.seed)
        book.generate()
        params = cli.load_params(book.params)
        pf = cli.load_portfolio_csv(os.path.join(ws, "portfolio.csv"), params.trends, book.YEAR, 1.0)
        rf = [RiskFactorSpec(k=k + 1, variance=float(s)) for k, s in enumerate(wl.SIGMA2)]
        t_build, sectors = timed(lambda: aggregation.build_sectors(pf, rf, 1.0), REPEATS)
        mean = sum(s.mean() for s in sectors)
        n_max = int(math.ceil(mean + 12.0 * math.sqrt(sum(s.var() for s in sectors))))
        t_panjer, parts = timed(lambda: [aggregation.panjer_compound(s, n_max) for s in sectors],
                                REPEATS)
        t_conv, _ = timed(lambda: aggregation.convolve_sectors(parts, unit=1.0, n_max=n_max), REPEATS)
        out["book"] = {"cells": len(pf.holders), "sectors": len(sectors), "n_max": n_max,
                       "build_sectors_s": t_build, "panjer_4_sectors_s": t_panjer,
                       "convolve_sectors_s": t_conv}

        # Fitter.
        rng = np.random.default_rng([args.seed, 9])
        model = wl.base_model(rng)
        years = np.arange(1987, 2012)
        exposure = np.full((years.size, wl.A, 2), 100_000)
        deaths = ref.simulate_panel(rng, model, years, exposure)
        pop, dth = wl.write_panel(ws, years, deaths, exposure)
        cfg_path = os.path.join(ws, "fit.ini")
        with open(cfg_path, "w") as fh:
            fh.write(wl.config_text(wl.data_sections(pop, dth)))
        cfg = cli.load_config(cfg_path)
        panel = cli.panel_from_config(cfg)
        init = estimation.mom_fit(panel, cli.trends_from_config(cfg, panel.n_causes))
        t_ll, _ = timed(lambda: estimation.log_likelihood(panel, init), 300)
        fitter = {"log_likelihood_us": 1e6 * statistics.median(t_ll)}
        for label, fixed in (("cli_default_blocks", init.fixed),
                             ("criterion_6b_blocks", init.fixed | {"u", "v"})):
            pv = estimation.ParamVector(trends=init.trends, sigma2=np.maximum(init.sigma2, 1e-3),
                                        fixed=fixed)
            steps = 1000
            mcfg = estimation.McmcConfig(n_steps=steps, burn_in=steps // 2, seed=args.seed)
            t0 = time.perf_counter()
            chain = estimation.mcmc_sample(panel, pv, estimation.PriorSpec(), mcfg)
            elapsed = time.perf_counter() - t0
            blocks = len(chain.acceptance)
            fitter[label] = {"blocks": blocks, "mh_step_ms": 1e3 * elapsed / steps,
                             "logpost_eval_us": 1e6 * elapsed / (steps * blocks)}
        out["fitter"] = fitter

        # SCR against the lattice size.
        scr = wl.ScrPosterior(ws, args.seed)
        scr.generate()
        params = cli.load_params(scr.params)
        policies = [solvency.TermPolicy(age=a, gender="fm"[g], sum_insured=s, term_years=t)
                    for a, g, s, t in scr.policies]
        curve = solvency.DiscountCurve.flat(scr.RATE, max(p.term_years for p in policies) + 2)
        rows = []
        for points in (2_000, 20_000, 200_000):
            t0 = time.perf_counter()
            dist = solvency.delta_bof_distribution(
                policies, asset_value=scr.asset, coupon=scr.COUPON, curve=curve, chain=[params],
                base_year=scr.BASE_YEAR, lattice_points=points)
            rows.append({"lattice_points": points, "seconds": time.perf_counter() - t0,
                         "scr": solvency.scr(dist)})
        out["scr_one_sample"] = rows
    finally:
        shutil.rmtree(ws, ignore_errors=True)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
