"""The benchmark's four workloads.

Each workload writes its INI/CSV/JSON inputs from the seed, lists the CLI
subcommands one round runs, reads the outputs back and checks them
against :mod:`reference`.  Every check comes with a corruption of the
outputs that it must reject, which the runner applies once per run as a
self-test of the check.

The model layout is the one of the CLI's defaults: 8 age groups with
lower bounds 50..85, K = 3 cause factors plus the idiosyncratic cause,
t0 = 1987, eta = psi = 1/150 and zeta = phi = 0.  The seed perturbs a
fixed base model and draws the inputs; sizes that set the cost of a
round (lattice length, Panjer window, chain length, panel shape) are
held fixed across seeds so that runs with different seeds time the same
amount of work.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref

A, K1 = 8, 4
T0 = 1987
AGE_BOUNDS = np.arange(50.0, 90.0, 5.0)
SIGMA2 = np.array([0.05, 0.1, 0.2])
BLOCKS = [("alpha", "f"), ("alpha", "m"), ("beta", "f"), ("beta", "m"), ("u", "f"), ("u", "m"),
          ("v", "f"), ("v", "m"), ("sigma2", "")]
CAUSES = ("idiosyncratic", "cause1", "cause2", "cause3")


@dataclass
class Check:
    """One output check: ``test`` returns None on success or a reason;
    ``corrupt`` returns a deliberately wrong copy of the outputs that
    ``test`` must reject."""

    name: str
    test: Callable[[dict], str | None]
    corrupt: Callable[[dict], dict]


def base_model(rng) -> ref.Model:
    """Fixed base mortality model with seed-driven perturbations."""
    ages = np.arange(A)[:, None]
    alpha = -5.0 + 0.4 * ages + np.array([[-0.3, 0.0]]) + rng.normal(0.0, 0.05, (A, 2))
    beta = -0.02 + rng.normal(0.0, 0.004, (A, 2))
    u = (np.array([0.0, 0.5, 0.2, -0.3])[None, None, :]
         + ages[:, :, None] * np.array([0.0, 0.05, 0.02, -0.03])[None, None, :]
         + rng.normal(0.0, 0.1, (A, 2, K1)))
    v = rng.normal(0.0, 0.005, (A, 2, K1))
    return ref.Model(alpha=alpha, beta=beta, u=u, v=v, sigma2=SIGMA2.copy(), t0=float(T0),
                     age_lower_bounds=AGE_BOUNDS)


def params_dict(m: ref.Model) -> dict:
    """Parameter file in the CLI's JSON layout."""
    return {
        "alpha": m.alpha.tolist(), "beta": m.beta.tolist(),
        "zeta": np.full((A, 2), m.zeta).tolist(), "eta": np.full((A, 2), m.eta).tolist(),
        "u": m.u.tolist(), "v": m.v.tolist(),
        "phi": np.full(K1, m.phi).tolist(), "psi": np.full(K1, m.psi).tolist(),
        "t0": m.t0, "kappa": {}, "age_lower_bounds": m.age_lower_bounds.tolist(),
        "sigma2": m.sigma2.tolist(), "fixed": ["eta", "kappa", "phi", "psi", "zeta"],
    }


def write_csv(path: str, header: list[str], rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_json(path: str, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def write_panel(ws: str, years, deaths: np.ndarray, exposure: np.ndarray) -> tuple[str, str]:
    pop, dth = os.path.join(ws, "population.csv"), os.path.join(ws, "deaths.csv")
    write_csv(pop, ["year", "age_group", "gender", "count"],
              [[y, f"a{a}", g, int(exposure[t, a, gi])]
               for t, y in enumerate(years) for a in range(A) for gi, g in enumerate("fm")])
    write_csv(dth, ["year", "age_group", "gender", "cause", "count"],
              [[y, f"a{a}", g, CAUSES[k], int(deaths[t, a, gi, k])]
               for t, y in enumerate(years) for a in range(A) for gi, g in enumerate("fm")
               for k in range(K1)])
    return pop, dth


def config_text(sections: dict) -> str:
    out = []
    for name, items in sections.items():
        out.append(f"[{name}]")
        out += [f"{k} = {v}" for k, v in items.items()]
        out.append("")
    return "\n".join(out)


def data_sections(pop: str, dth: str) -> dict:
    return {
        "data": {"population": pop, "deaths": dth, "age_groups": ",".join(f"a{a}" for a in range(A))},
        "trends": {"t0": T0, "age_lower_bounds": ",".join(str(int(b)) for b in AGE_BOUNDS)},
    }


def synthetic_chain(rng, m: ref.Model, n: int) -> np.ndarray:
    """n posterior-like draws of the free blocks around the model."""
    names = ref.flat_names(A, K1)
    scale = np.array([{"alpha": 0.01, "beta": 0.003, "u": 0.03, "v": 0.003, "sigma2": 0.0}[
        ref.parse_name(x, K1)[0]] for x in names])
    flat = ref.flat_values(m)
    draws = flat + scale * rng.standard_normal((n, flat.size))
    s2 = names.index("sigma2[0]")
    draws[:, s2:] = flat[s2:] * np.exp(0.15 * rng.standard_normal((n, K1 - 1)))
    return draws


def write_chain(path: str, draws: np.ndarray, burn_in: int = 1000):
    """A chain record file in the layout fit-mcmc streams: one header line
    with the run's metadata, the column names, then one record per step.
    The log-posterior column holds each draw's Gaussian log density."""
    names = ref.flat_names(A, K1)
    centred = draws - draws.mean(axis=0)
    sd = centred.std(axis=0) + 1e-300
    logpost = -0.5 * ((centred / sd) ** 2).sum(axis=1)
    meta = {"seed": 0, "chain": 0, "n_steps": burn_in + len(draws), "burn_in": burn_in,
            "likelihood": "poisson", "blocks": [f"{f}:{g}" for f, g in BLOCKS]}
    scales = ",".join("0.050000000000000003" for _ in BLOCKS)
    fmt = ",".join(["%.17g"] * draws.shape[1])
    with open(path, "w") as fh:
        fh.write(f"#ecrplus-chain v1 {json.dumps(meta)}\n")
        fh.write("step,log_posterior,"
                 + ",".join(f"scale.{f}" + (f".{g}" if g else "") for f, g in BLOCKS)
                 + "," + ",".join(names) + "\n")
        for i, (lp, row) in enumerate(zip(logpost, draws)):
            fh.write(f"{burn_in + i},{lp:.17g},{scales},{fmt % tuple(row)}\n")


def read_chain(path: str) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """Names, log-posterior column, parameter matrix and step column of a
    chain record file."""
    with open(path) as fh:
        fh.readline()
        columns = fh.readline().strip().split(",")
        lines = [line for line in fh if line.strip()]
    n_scales = sum(c.startswith("scale.") for c in columns)
    data = np.array([[float(x) for x in line.split(",")] for line in lines]).reshape(len(lines), -1)
    return columns[2 + n_scales:], data[:, 1], data[:, 2 + n_scales:], data[:, 0]


def read_distribution(path: str) -> tuple[np.ndarray, np.ndarray]:
    """(values, pmf) columns of a distribution CSV written by the CLI."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(1, 2), ndmin=2)
    return data[:, 0], data[:, 1]


def shifted(values: np.ndarray, pmf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The same law moved up by one lattice step."""
    step = values[1] - values[0]
    return values + step, pmf


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def evenly_spaced(n: int, k: int) -> np.ndarray:
    """k record indices spread evenly over 0..n-1, first and last included,
    the rule ecrplus documents for choosing posterior samples."""
    return np.unique(np.linspace(0, n - 1, min(k, n)).astype(int))


class Workload:
    name = ""
    stream = 0

    def __init__(self, ws: str, seed: int):
        self.ws = ws
        self.out = os.path.join(ws, "out")
        self.seed = seed
        self.rng = np.random.default_rng([seed, self.stream])
        self.config = os.path.join(ws, "run.ini")
        self.panel = None  # (years, deaths, exposure) for workloads with one

    def generate(self):
        raise NotImplementedError

    def prepare(self):
        """Reference computations that depend on the inputs only."""

    def commands(self) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def read_outputs(self) -> dict:
        raise NotImplementedError

    def checks(self) -> list[Check]:
        raise NotImplementedError

    def layer_params(self) -> str:
        """Parameter file for the per-layer likelihood and grid timings."""
        return self.params

    def cli(self, sub: str, *extra: str) -> list[str]:
        return [sub, "-c", self.config, "-o", self.out, *extra]


# ---------------------------------------------------------------------------
# book-aggregate
# ---------------------------------------------------------------------------


class BookAggregate(Workload):
    """aggregate plus a one-factor scenario on a 200-cell multi-cause book.

    Payments are real amounts in [1, 49) on a unit lattice (two atoms per
    cell), so each sector's severity is dense over 49 points; counts are
    scaled so that mean + 12 sd of the book, the engine's lattice length,
    is 100,000 points on every seed.
    """

    name = "book-aggregate"
    stream = 1
    N_CELLS = 200
    LATTICE = 100_000
    YEAR = 2000
    PINNED = {2: 0.8}
    LEVELS = (0.5, 0.99, 0.995)
    TV_BOUND = 1e-9

    def generate(self):
        rng = self.rng
        self.model = base_model(rng)
        ages = rng.integers(0, A, self.N_CELLS)
        genders = rng.integers(0, 2, self.N_CELLS)
        payments = rng.uniform(1.0, 49.0, self.N_CELLS)
        payments[0] = 48.75
        raw = rng.integers(50, 500, self.N_CELLS).astype(float)
        q = self.model.q(self.YEAR)[0, ages, genders]
        w = self.model.w(self.YEAR)[0, ages, genders]

        def n_max(c):
            counts = np.maximum(np.round(raw * c), 1.0)
            secs = ref.book_sectors(counts, payments, q, w, SIGMA2, 1.0)
            mean = sum(s.moments()[0] for s in secs)
            var = sum(s.moments()[1] for s in secs)
            return mean + 12.0 * math.sqrt(var), counts

        lo, hi = 0.01, 100.0
        for _ in range(60):
            mid = math.sqrt(lo * hi)
            lo, hi = (mid, hi) if n_max(mid)[0] < self.LATTICE else (lo, mid)
        self.counts = n_max(hi)[1].astype(int)
        self.payments, self.q, self.w = payments, q, w
        portfolio = os.path.join(self.ws, "portfolio.csv")
        write_csv(portfolio, ["age_group", "gender", "count", "payment"],
                  [[int(a), "fm"[g], int(c), repr(float(y))]
                   for a, g, c, y in zip(ages, genders, self.counts, payments)])
        params = os.path.join(self.ws, "params.json")
        write_json(params, params_dict(self.model))
        self.params = params
        with open(self.config, "w") as fh:
            fh.write(config_text({
                "model": {"sigma2": ",".join(repr(float(s)) for s in SIGMA2)},
                "aggregate": {"portfolio": portfolio, "unit": "1.0", "year": self.YEAR},
                "scenario": {"portfolio": portfolio, "unit": "1.0", "year": self.YEAR,
                             "factors": ",".join(f"{k}:{v}" for k, v in self.PINNED.items())},
            }))

    def prepare(self):
        self.refs = {}
        for key, pinned in (("plain", None), ("scenario", self.PINNED)):
            secs = ref.book_sectors(self.counts, self.payments, self.q, self.w, SIGMA2, 1.0, pinned)
            mean = sum(s.moments()[0] for s in secs)
            var = sum(s.moments()[1] for s in secs)
            pmf = ref.pgf_fft_pmf(secs, int(mean + 20.0 * math.sqrt(var)))
            self.refs[key] = {"mean": mean, "var": var, "pmf": pmf, "cdf": np.cumsum(pmf)}

    def commands(self):
        return [("aggregate", self.cli("aggregate", "--params", self.params)),
                ("scenario", self.cli("scenario", "--params", self.params))]

    def read_outputs(self):
        out = {}
        for key, csv_name, json_name in (("plain", "distribution.csv", "summary.json"),
                                         ("scenario", "scenario_distribution.csv", "scenario.json")):
            values, pmf = read_distribution(os.path.join(self.out, csv_name))
            with open(os.path.join(self.out, json_name)) as fh:
                summary = json.load(fh)
            if key == "scenario":
                summary = summary["scenario"]
            out[key] = {"values": values, "pmf": pmf,
                        "quantiles": {float(p): v for p, v in summary["quantiles"].items()}}
        return out

    def _moments(self, key):
        def test(o):
            values, pmf = o[key]["values"], o[key]["pmf"]
            mean = float(values @ pmf)
            var = float(((values - mean) ** 2) @ pmf)
            r = self.refs[key]
            if rel_err(mean, r["mean"]) > 1e-6 or rel_err(var, r["var"]) > 1e-6:
                return f"{key}: mean {mean:.9g} var {var:.9g} vs closed form {r['mean']:.9g} {r['var']:.9g}"
            return None
        return test

    def _quantiles(self, key):
        def test(o):
            values, pmf = o[key]["values"], o[key]["pmf"]
            r = self.refs[key]
            if abs(values[0]) > 1e-9 or abs(values[1] - values[0] - 1.0) > 1e-9:
                return f"{key}: lattice does not start at 0 with unit 1"
            # Mass past the common range (the program's truncation mass, the
            # reference's tail) enters as one lump, as tv_distance counts it.
            n = min(pmf.size, r["pmf"].size)
            tv = 0.5 * (np.abs(pmf[:n] - r["pmf"][:n]).sum()
                        + abs(r["pmf"][:n].sum() - pmf[:n].sum()))
            if tv > self.TV_BOUND:
                return f"{key}: TV distance to the PGF-FFT law {tv:.3g} > {self.TV_BOUND}"
            for p in self.LEVELS:
                idx = round(o[key]["quantiles"][p])
                if not ref.quantile_agrees(r["cdf"], idx, p, self.TV_BOUND):
                    return f"{key}: {p}-quantile {idx} vs PGF-FFT {ref.lattice_quantile(r['cdf'], p)}"
            return None
        return test

    def _shift(self, key):
        def corrupt(o):
            o = dict(o)
            d = dict(o[key])
            pmf = np.concatenate([[0.0], d["pmf"][:-1]])
            d["pmf"] = pmf
            d["quantiles"] = {p: v + 1.0 for p, v in d["quantiles"].items()}
            o[key] = d
            return o
        return corrupt

    def checks(self):
        out = []
        for key in ("plain", "scenario"):
            out.append(Check(f"{key}-moments", self._moments(key), self._shift(key)))
            out.append(Check(f"{key}-quantiles", self._quantiles(key), self._shift(key)))
        return out


# ---------------------------------------------------------------------------
# mcmc-fit
# ---------------------------------------------------------------------------


class McmcFit(Workload):
    """fit-mom then fit-mcmc on a simulated A=8, K=3, T=25 panel at an
    exposure of 100,000 per cell, sampling the CLI's 9 default free blocks
    and streaming the chain to its record file."""

    name = "mcmc-fit"
    stream = 2
    YEARS = np.arange(1987, 2012)
    EXPOSURE = 100_000
    STEPS, BURN_IN = 2500, 500
    LOGPOST_RECORDS = 16
    LOGPOST_RTOL = 1e-9
    # The cause factors are shared by all age groups, so the alpha posterior
    # has an sd near 0.05 that moves every cell together; over 19 seeds the
    # worst cell was 0.11 from the truth.
    ALPHA_BAND = 0.25

    def generate(self):
        self.model = base_model(self.rng)
        exposure = np.full((self.YEARS.size, A, 2), self.EXPOSURE)
        deaths = ref.simulate_panel(self.rng, self.model, self.YEARS, exposure)
        self.panel = (self.YEARS, deaths, exposure)
        pop, dth = write_panel(self.ws, self.YEARS, deaths, exposure)
        sections = data_sections(pop, dth)
        sections["mcmc"] = {"steps": self.STEPS, "burn_in": self.BURN_IN, "seed": self.seed,
                            "scale": "0.05"}
        with open(self.config, "w") as fh:
            fh.write(config_text(sections))
        self.chain = os.path.join(self.out, "chain_0.csv")

    def layer_params(self):
        return os.path.join(self.out, "params_mom.json")

    def commands(self):
        return [("fit-mom", self.cli("fit-mom")),
                ("fit-mcmc", self.cli("fit-mcmc", "--params", os.path.join(self.out, "params_mom.json")))]

    def read_outputs(self):
        n = self.STEPS - self.BURN_IN
        picks = evenly_spaced(n, self.LOGPOST_RECORDS)
        names, lp, flat, steps = read_chain(self.chain)
        return {"steps": steps, "names": names, "lp": lp[picks], "flat": flat[picks],
                "alpha_mean": {nm: float(flat[:, j].mean()) for j, nm in enumerate(names)
                               if nm.startswith("alpha")}}

    def test_records(self, o):
        want = np.arange(self.BURN_IN, self.STEPS)
        if o["steps"].size != want.size or np.any(o["steps"] != want):
            return f"chain holds {o['steps'].size} records, expected steps {self.BURN_IN}..{self.STEPS - 1}"
        return None

    def test_logpost(self, o):
        years, deaths, exposure = self.panel
        for lp, flat in zip(o["lp"], o["flat"]):
            own = ref.log_likelihood(deaths, exposure, self.model.with_flat(o["names"], flat), years)
            if rel_err(lp, own) > self.LOGPOST_RTOL:
                return f"recorded log-posterior {lp:.17g} vs own likelihood {own:.17g}"
        return None

    def test_alpha(self, o):
        worst = 0.0
        for nm, mean in o["alpha_mean"].items():
            fam, (a, gi) = ref.parse_name(nm, K1)
            worst = max(worst, abs(mean - self.model.alpha[a, gi]))
        if worst > self.ALPHA_BAND:
            return f"posterior mean of alpha {worst:.3g} from the truth (band {self.ALPHA_BAND})"
        return None

    def checks(self):
        def drop_record(o):
            return {**o, "steps": o["steps"][:-1]}

        def perturb_lp(o):
            return {**o, "lp": o["lp"] * (1.0 + 1e-8)}

        def shift_alpha(o):
            return {**o, "alpha_mean": {k: v + 0.5 for k, v in o["alpha_mean"].items()}}

        return [Check("chain-records", self.test_records, drop_record),
                Check("chain-logpost", self.test_logpost, perturb_lp),
                Check("alpha-posterior", self.test_alpha, shift_alpha)]


# ---------------------------------------------------------------------------
# scr-posterior
# ---------------------------------------------------------------------------


class ScrPosterior(Workload):
    """scr on a 50-policy term-life book mixed over a short posterior chain.

    The lattice unit is chosen on every seed so that the recursion does
    the work of 70,000 steps over a 20,000-point window per sample on
    average; the severity then spans J of about 2 * 10^4 points, on which
    each policy puts at most two atoms.
    """

    name = "scr-posterior"
    stream = 3
    N_POLICIES = 50
    N_SAMPLES = 12
    BASE_YEAR = 2010
    RATE, COUPON = 0.01, 0.02
    STEPS, WINDOW = 70_000, 20_000
    # Fixed cost of one recursion step in window points, measured on a
    # 2-vCPU AMD EPYC: 1.1 us per step plus 0.029 ns per point.
    STEP_COST = 38_000
    CDF_TOL = 1e-9

    def generate(self):
        rng = self.rng
        self.model = base_model(rng)
        si = 1e6 * np.linspace(0.02, 1.0, self.N_POLICIES)
        ages = rng.integers(50, 76, self.N_POLICIES)
        ages[-1] = 50
        genders = rng.integers(0, 2, self.N_POLICIES)
        terms = rng.integers(5, 21, self.N_POLICIES)
        terms[-1] = 10
        self.policies = [(int(a), int(g), float(s), int(t)) for a, g, s, t in zip(ages, genders, si, terms)]
        write_csv(os.path.join(self.ws, "policies.csv"), ["age", "gender", "sum_insured", "term_years"],
                  [[a, "fm"[g], repr(s), t] for a, g, s, t in self.policies])
        self.draws = synthetic_chain(rng, self.model, self.N_SAMPLES)
        self.chain = os.path.join(self.ws, "chain.csv")
        write_chain(self.chain, self.draws)
        self.params = os.path.join(self.ws, "params.json")
        write_json(self.params, params_dict(self.model))

        # A sample's recursion runs n_max = (mean + 12 sd) / unit steps over
        # a window of J = largest atom / unit points.  A step costs about as
        # much as a dot product over STEP_COST more points, so the unit is
        # the root x = 1/unit of sum n_max * (J + STEP_COST) = the target.
        d1 = 1.0 / (1.0 + self.RATE)
        names = ref.flat_names(A, K1)
        quad = lin = 0.0
        for row in self.draws:
            sample = self.model.with_flat(names, row)
            lam = np.array([sample.q_age(a, g, self.BASE_YEAR) for a, g, _, _ in self.policies])
            atoms = np.array([d1 * s * (1.0 - ref.term_life_bel(sample, a + 1, g, self.BASE_YEAR + 1,
                                                                 t - 1, self.RATE))
                              for a, g, s, t in self.policies])
            span = float(lam @ atoms + 12.0 * math.sqrt(lam @ atoms**2))
            quad += span * float(atoms.max())
            lin += span * self.STEP_COST
        target = len(self.draws) * self.STEPS * (self.WINDOW + self.STEP_COST)
        x = (-lin + math.sqrt(lin * lin + 4.0 * quad * target)) / (2.0 * quad)
        self.unit = 1.0 / x
        asset = 1.2 * sum(s * ref.term_life_bel(self.model, a, g, self.BASE_YEAR, t, self.RATE)
                          for a, g, s, t in self.policies)
        with open(self.config, "w") as fh:
            fh.write(config_text({"scr": {
                "policies": os.path.join(self.ws, "policies.csv"), "asset_value": repr(asset),
                "coupon": self.COUPON, "rate": self.RATE, "base_year": self.BASE_YEAR,
                "unit": repr(self.unit)}}))
        self.asset = asset

    def prepare(self):
        names = ref.flat_names(A, K1)
        samples = [self.model.with_flat(names, row) for row in self.draws[evenly_spaced(len(self.draws), 200)]]
        mean_model = self.model.with_flat(names, self.draws.mean(axis=0))
        pmf, base, mean = ref.delta_bof_reference(
            self.policies, samples, mean_model, self.asset, self.COUPON, self.RATE, self.BASE_YEAR, self.unit)
        values = base + self.unit * np.arange(pmf.size)
        self.ref = {"cdf": np.cumsum(pmf), "offset": base, "mean": mean,
                    "enumerated_mean": float(values @ pmf),
                    "sd": math.sqrt(float(((values - mean) ** 2) @ pmf))}

    def commands(self):
        return [("scr", self.cli("scr", "--params", self.params, "--chain", self.chain))]

    def read_outputs(self):
        values, pmf = read_distribution(os.path.join(self.out, "delta_bof.csv"))
        with open(os.path.join(self.out, "scr.json")) as fh:
            report = json.load(fh)
        return {"values": values, "pmf": pmf, "scr": report["scr"], "mean": report["mean"]}

    def test_mean(self, o):
        """Mean over the enumerated lattice against the same sum over the
        reference; both leave the same mean + 12 sd tails out."""
        mean = float(o["values"] @ o["pmf"])
        want = self.ref["enumerated_mean"]
        tol = 1e-6 * (abs(self.ref["mean"]) + self.ref["sd"])
        if abs(mean - want) > tol:
            return f"delta-BOF mean {mean:.12g} vs own mixture {want:.12g} (tol {tol:.3g})"
        return None

    def test_scr(self, o):
        offset = o["values"][0]
        if abs(offset - self.ref["offset"]) > 1e-6 * self.unit:
            return f"lattice offset {offset!r} vs own {self.ref['offset']!r}"
        idx = round((o["scr"] - offset) / self.unit)
        if abs(offset + idx * self.unit - o["scr"]) > 1e-6 * self.unit:
            return f"SCR {o['scr']} is not on the lattice"
        if not ref.quantile_agrees(self.ref["cdf"], idx, 0.995, self.CDF_TOL):
            want = ref.lattice_quantile(self.ref["cdf"], 0.995)
            return f"SCR at lattice index {idx}, own compound-Poisson mixture gives {want}"
        return None

    def checks(self):
        def shift(o):
            values, pmf = shifted(o["values"], o["pmf"])
            return {**o, "values": values, "pmf": pmf, "scr": o["scr"] + self.unit}

        def scr_up(o):
            return {**o, "scr": o["scr"] + self.unit}

        return [Check("delta-bof-mean", self.test_mean, shift),
                Check("scr-quantile", self.test_scr, scr_up)]


# ---------------------------------------------------------------------------
# posterior-reports
# ---------------------------------------------------------------------------


class PosteriorReports(Workload):
    """forecast, validate and life-table from a 30,000-record chain file on
    a panel with insurer-sized exposures (2,000-5,000 per cell)."""

    name = "posterior-reports"
    stream = 4
    YEARS = np.arange(1987, 2012)
    CHAIN_RECORDS = 30_000
    HORIZON = 2016
    INFLATION = 0.05
    LEVELS = (0.05, 0.5, 0.95)
    MAX_SAMPLES = 50
    SAMPLED_CELLS = 3
    LIFE_YEAR, AGE_MIN, AGE_MAX = 2012, 50, 100
    # Nominal acceptance is 0.90; over 18 seeds it ranged 0.83-0.98, since
    # the covariance statistics share the factor draws.
    ACCEPT_BAND = (0.7, 1.0)

    def generate(self):
        rng = self.rng
        self.model = base_model(rng)
        base = rng.integers(2000, 5001, (A, 2))
        growth = 1.0 + 0.005 * (self.YEARS - self.YEARS[0])
        exposure = np.round(base[None] * growth[:, None, None]).astype(int)
        deaths = ref.simulate_panel(rng, self.model, self.YEARS, exposure)
        self.panel = (self.YEARS, deaths, exposure)
        pop, dth = write_panel(self.ws, self.YEARS, deaths, exposure)
        self.draws = synthetic_chain(rng, self.model, self.CHAIN_RECORDS)
        self.chain = os.path.join(self.ws, "chain.csv")
        write_chain(self.chain, self.draws)
        self.params = os.path.join(self.ws, "params.json")
        write_json(self.params, params_dict(self.model))
        sections = data_sections(pop, dth)
        sections["forecast"] = {"base_year": int(self.YEARS[-1]), "horizon": self.HORIZON,
                                "d": self.INFLATION, "levels": ",".join(map(str, self.LEVELS))}
        sections["life_table"] = {"year": self.LIFE_YEAR, "age_min": self.AGE_MIN, "age_max": self.AGE_MAX}
        with open(self.config, "w") as fh:
            fh.write(config_text(sections))
        cells = rng.choice(A * 2, self.SAMPLED_CELLS, replace=False)
        self.cells = [(int(c) // 2, int(c) % 2) for c in cells]
        self.ages = sorted(int(x) for x in rng.choice(np.arange(self.AGE_MIN, self.AGE_MAX + 1), 4, replace=False))

    def prepare(self):
        names = ref.flat_names(A, K1)
        samples = [self.model.with_flat(names, self.draws[i])
                   for i in evenly_spaced(self.CHAIN_RECORDS, self.MAX_SAMPLES)]
        exposure = self.panel[2][-1]
        base_year = int(self.YEARS[-1])
        self.ref_bands = {}
        for a, gi in self.cells:
            m = int(exposure[a, gi])
            for year in range(base_year + 1, self.HORIZON + 1):
                pmfs = [ref.forecast_count_pmf(s, a, gi, year, m, year - base_year, self.INFLATION)
                        for s in samples]
                size = max(p.size for p in pmfs)
                mix = sum(np.pad(p, (0, size - p.size)) for p in pmfs) / len(pmfs)
                self.ref_bands[(a, "fm"[gi], year)] = (m, np.cumsum(mix))
        self.ref_life = {(age, g): ref.life_expectancy(self.model, age, gi, self.LIFE_YEAR)
                         for age in self.ages for gi, g in enumerate("fm")}

    def commands(self):
        return [("forecast", self.cli("forecast", "--params", self.params, "--chain", self.chain)),
                ("validate", self.cli("validate", "--params", self.params, "--chain", self.chain)),
                ("life-table", self.cli("life-table", "--params", self.params))]

    def read_outputs(self):
        bands = {}
        with open(os.path.join(self.out, "forecast_bands.csv"), newline="") as fh:
            for row in csv.DictReader(fh):
                bands[(int(row["age_group"]), row["gender"], int(row["year"]))] = [
                    float(row[f"q{lv}"]) for lv in self.LEVELS]
        with open(os.path.join(self.out, "validation.json")) as fh:
            accepted = json.load(fh)["moment_bounds"]["accepted_fraction"]
        life = {}
        with open(os.path.join(self.out, "life_table.csv"), newline="") as fh:
            for row in csv.DictReader(fh):
                life[(int(row["age"]), row["gender"])] = float(row["expected_future_years"])
        return {"bands": bands, "accepted": accepted, "life": life}

    def test_ordered(self, o):
        n_cells = A * 2 * (self.HORIZON - int(self.YEARS[-1]))
        if len(o["bands"]) != n_cells:
            return f"{len(o['bands'])} forecast rows, expected {n_cells}"
        for key, band in o["bands"].items():
            if any(lo > hi for lo, hi in zip(band, band[1:])):
                return f"band {key} is not ordered by level: {band}"
        return None

    def test_mixture(self, o):
        for key, (m, cdf) in self.ref_bands.items():
            for lv, rate in zip(self.LEVELS, o["bands"][key]):
                idx = round(rate * m)
                if abs(idx - rate * m) > 1e-4 or not ref.quantile_agrees(cdf, idx, lv, 1e-9):
                    want = ref.lattice_quantile(cdf, lv)
                    return f"cell {key} level {lv}: band {rate} = {rate * m:.6g}/{m}, scipy mixture {want}/{m}"
        return None

    def test_accepted(self, o):
        lo, hi = self.ACCEPT_BAND
        if not lo <= o["accepted"] <= hi:
            return f"moment-bounds acceptance {o['accepted']:.3f} outside [{lo}, {hi}] (nominal 0.90)"
        return None

    def test_life(self, o):
        for key, e in self.ref_life.items():
            if key not in o["life"] or rel_err(o["life"][key], e) > 1e-6:
                return f"life expectancy {key}: {o['life'].get(key)} vs own {e:.6f}"
        return None

    def checks(self):
        def swap_levels(o):
            key = next(iter(self.ref_bands))
            bands = dict(o["bands"])
            bands[key] = bands[key][::-1]
            return {**o, "bands": bands}

        def low_acceptance(o):
            return {**o, "accepted": 0.3}

        def shorter_life(o):
            return {**o, "life": {k: v - 0.01 for k, v in o["life"].items()}}

        return [Check("bands-ordered", self.test_ordered, swap_levels),
                Check("bands-mixture", self.test_mixture, swap_levels),
                Check("moment-bounds-level", self.test_accepted, low_acceptance),
                Check("life-table", self.test_life, shorter_life)]


WORKLOADS = {w.name: w for w in (BookAggregate, McmcFit, ScrPosterior, PosteriorReports)}
