import csv
import json
import os

import numpy as np
import pytest

from ecrplus.cli import main, params_from_dict, params_to_dict
from ecrplus.errors import DataError
from ecrplus.estimation import McmcChain, ParamVector
from ecrplus.ingest import IngestSpec, ingest, write_panel

from conftest import flat_trends, realistic_trends, simulate_panel


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _basic_files(tmp_path, factor_rows=None):
    pop = tmp_path / "pop.csv"
    deaths = tmp_path / "deaths.csv"
    rows_p, rows_d = [], []
    for year in (2000, 2001):
        for ag in ("50-54", "55-59"):
            for g in ("f", "m"):
                rows_p.append([year, ag, g, 1000])
                rows_d.append([year, ag, g, "neoplasms", 10])
                rows_d.append([year, ag, g, "circulatory", 20])
                rows_d.append([year, ag, g, "rare", 1])
    _write_csv(pop, ["year", "age_group", "gender", "count"], rows_p)
    _write_csv(deaths, ["year", "age_group", "gender", "cause", "count"], rows_d)
    factors = None
    if factor_rows is not None:
        factors = tmp_path / "factors.csv"
        _write_csv(factors, ["cause", "factor", "applies_before_year"], factor_rows)
    return str(pop), str(deaths), None if factors is None else str(factors)


class TestIngest:
    def test_unit_factors_leave_counts(self, tmp_path):
        pop, deaths, factors = _basic_files(tmp_path, [["neoplasms", 1.0, 2001]])
        panel = ingest(IngestSpec(population_path=pop, deaths_path=deaths, factors_path=factors))
        k = panel.cause_labels.index("neoplasms")
        assert panel.deaths[:, :, :, k].min() == 10

    def test_comparability_factor_scales_early_years(self, tmp_path):
        pop, deaths, factors = _basic_files(tmp_path, [["neoplasms", 1.25, 2001]])
        panel = ingest(IngestSpec(population_path=pop, deaths_path=deaths, factors_path=factors))
        k = panel.cause_labels.index("neoplasms")
        assert panel.deaths[0, 0, 0, k] == 13  # round(10 * 1.25)
        assert panel.deaths[1, 0, 0, k] == 10  # at/after the cutover year

    def test_cause_merge(self, tmp_path):
        pop, deaths, _ = _basic_files(tmp_path)
        panel = ingest(
            IngestSpec(
                population_path=pop, deaths_path=deaths,
                cause_merge={"rare": "idiosyncratic"},
            )
        )
        assert panel.n_causes == 3  # idio + neoplasms + circulatory
        assert panel.deaths[0, 0, 0, 0] == 1

    def test_missing_population_cell(self, tmp_path):
        pop, deaths, _ = _basic_files(tmp_path)
        rows = list(csv.reader(open(pop)))
        _write_csv(pop, rows[0], rows[1:-1])  # drop one cell
        with pytest.raises(DataError, match="missing"):
            ingest(IngestSpec(population_path=pop, deaths_path=deaths))

    def test_negative_count_rejected(self, tmp_path):
        pop, deaths, _ = _basic_files(tmp_path)
        with open(deaths, "a", newline="") as fh:
            csv.writer(fh).writerow([2000, "50-54", "f", "neoplasms", -3])
        with pytest.raises(DataError, match="negative"):
            ingest(IngestSpec(population_path=pop, deaths_path=deaths))

    def test_round_trip(self, tmp_path, rng):
        tr = realistic_trends(rng, A=3, K=2)
        panel, _ = simulate_panel(rng, tr, [0.1, 0.2], np.arange(2000, 2005), 5000)
        pop = str(tmp_path / "pop.csv")
        deaths = str(tmp_path / "deaths.csv")
        write_panel(panel, pop, deaths)
        back = ingest(
            IngestSpec(
                population_path=pop, deaths_path=deaths,
                age_group_labels=tuple(f"a{i}" for i in range(3)),
            )
        )
        np.testing.assert_array_equal(back.exposure, panel.exposure)
        np.testing.assert_array_equal(back.deaths, panel.deaths)


class TestParamsSerialisation:
    def test_round_trip(self, rng):
        tr = realistic_trends(rng, A=4, K=2)
        pv = ParamVector(trends=tr, sigma2=np.array([0.07, 0.21]))
        back = params_from_dict(params_to_dict(pv))
        np.testing.assert_allclose(back.trends.alpha, tr.alpha)
        np.testing.assert_allclose(back.trends.u, tr.u)
        np.testing.assert_allclose(back.sigma2, pv.sigma2)
        assert back.fixed == pv.fixed


@pytest.fixture
def cli_workspace(tmp_path, rng):
    tr = flat_trends(A=2, K=1, alpha=-2.0, ages=[50, 60])
    panel, _ = simulate_panel(rng, tr, [0.1], np.arange(1998, 2008), 20_000)
    pop = tmp_path / "pop.csv"
    deaths = tmp_path / "deaths.csv"
    write_panel(panel, str(pop), str(deaths))
    portfolio = tmp_path / "portfolio.csv"
    _write_csv(
        portfolio,
        ["age_group", "gender", "count", "payment", "survival_payment"],
        [[a, g, 50, 10, 10] for a in range(2) for g in "fm"],
    )
    config = tmp_path / "ecrplus.ini"
    config.write_text(
        f"""[data]
population = {pop}
deaths = {deaths}
age_groups = a0,a1

[trends]
t0 = 1998
age_lower_bounds = 50,60

[model]
sigma2 = 0.1

[mcmc]
steps = 120
burn_in = 40
seed = 5
scale = 0.02

[aggregate]
portfolio = {portfolio}
unit = 1.0
year = 2003

[forecast]
base_year = 2007
horizon = 2009
d = 0.1
levels = 0.5
max_samples = 5

[life_table]
year = 2003
age_min = 50
age_max = 52

[scenario]
portfolio = {portfolio}
factors = 1:0.8
year = 2003

[scr]
policies = {tmp_path / 'policies.csv'}
asset_value = 1000
coupon = 0.0
rate = 0.0
base_year = 2003
unit = 5
"""
    )
    _write_csv(
        tmp_path / "policies.csv",
        ["age", "gender", "sum_insured", "term_years"],
        [[55, "f", 1000, 10], [60, "m", 2000, 5]],
    )
    return tmp_path


class TestCli:
    def test_full_pipeline(self, cli_workspace):
        ws = str(cli_workspace)
        cfg = os.path.join(ws, "ecrplus.ini")
        out = os.path.join(ws, "out")
        assert main(["fit-mom", "-c", cfg, "-o", out]) == 0
        params = os.path.join(out, "params_mom.json")
        assert main(["fit-mcmc", "-c", cfg, "-o", out, "--params", params]) == 0
        chain = os.path.join(out, "chain_0.csv")
        records = [l for l in open(chain).readlines()[2:] if l.strip()]
        assert len(records) == 80  # post-burn-in records only
        assert main(["map-factors", "-c", cfg, "-o", out, "--params", params]) == 0
        assert main(["aggregate", "-c", cfg, "-o", out, "--params", params]) == 0
        assert main(["forecast", "-c", cfg, "-o", out, "--params", params, "--chain", chain]) == 0
        assert main(["life-table", "-c", cfg, "-o", out, "--params", params]) == 0
        assert main(["scenario", "-c", cfg, "-o", out, "--params", params]) == 0
        assert main(["scr", "-c", cfg, "-o", out, "--params", params, "--chain", chain]) == 0
        assert main(["validate", "-c", cfg, "-o", out, "--params", params, "--chain", chain]) == 0
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["mean"] > 0
        report = json.load(open(os.path.join(out, "validation.json")))
        assert {"moment_bounds", "breusch_godfrey", "ks_gamma"} <= set(report)

    def test_deterministic_outputs(self, cli_workspace):
        ws = str(cli_workspace)
        cfg = os.path.join(ws, "ecrplus.ini")
        out1, out2 = os.path.join(ws, "o1"), os.path.join(ws, "o2")
        for out in (out1, out2):
            assert main(["fit-mom", "-c", cfg, "-o", out]) == 0
            assert main(["aggregate", "-c", cfg, "-o", out,
                         "--params", os.path.join(out, "params_mom.json")]) == 0
            assert main(["fit-mcmc", "-c", cfg, "-o", out,
                         "--params", os.path.join(out, "params_mom.json")]) == 0
        for name in ("params_mom.json", "distribution.csv", "summary.json", "chain_0.csv"):
            a = open(os.path.join(out1, name)).read()
            b = open(os.path.join(out2, name)).read()
            assert a == b, name

    def test_benchmark_reproduces_reference_quantiles(self, tmp_path):
        out = str(tmp_path / "bench")
        assert main(["benchmark", "-o", out, "--sims", "3000", "--seed", "3"]) == 0
        report = json.load(open(os.path.join(out, "benchmark.json")))
        idio = report["idiosyncratic"]["engine_quantiles"]
        assert [idio[k] for k in ("0.01", "0.1", "0.5", "0.9", "0.99")] == [449, 471, 500, 529, 553]
        mixed = report["one-factor"]["engine_quantiles"]
        assert [mixed[k] for k in ("0.01", "0.1", "0.5", "0.9", "0.99")] == [204, 309, 483, 712, 944]
        assert report["idiosyncratic"]["engine_tv_vs_reference"] <= 0.0125 + 1e-4

    def test_empty_portfolio_aggregate(self, cli_workspace):
        ws = str(cli_workspace)
        cfg = os.path.join(ws, "ecrplus.ini")
        empty = os.path.join(ws, "empty.csv")
        _write_csv(empty, ["age_group", "gender", "count", "payment"], [])
        text = open(cfg).read().replace(
            f"portfolio = {os.path.join(ws, 'portfolio.csv')}",
            f"portfolio = {empty}", 1,
        )
        cfg2 = os.path.join(ws, "empty.ini")
        open(cfg2, "w").write(text)
        out = os.path.join(ws, "out_empty")
        assert main(["aggregate", "-c", cfg2, "-o", out]) == 0
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["mean"] == 0.0
        assert summary["quantiles"]["0.5"] == 0.0

    def test_exit_codes(self, tmp_path):
        assert main(["aggregate", "-c", str(tmp_path / "missing.ini"), "-o", str(tmp_path)]) == 2
        assert main(["no-such-command"]) == 1

    def test_damaged_params_file_is_a_data_error(self, cli_workspace):
        ws = str(cli_workspace)
        cfg = os.path.join(ws, "ecrplus.ini")
        out = os.path.join(ws, "out")
        assert main(["fit-mom", "-c", cfg, "-o", out]) == 0
        with open(os.path.join(out, "params_mom.json")) as fh:
            params = json.load(fh)
        del params["beta"]
        damaged = os.path.join(ws, "damaged.json")
        with open(damaged, "w") as fh:
            json.dump(params, fh)
        assert main(["life-table", "-c", cfg, "-o", out, "--params", damaged]) == 2

    def test_mcmc_resume_after_interruption(self, cli_workspace):
        ws = str(cli_workspace)
        cfg = os.path.join(ws, "ecrplus.ini")
        out = os.path.join(ws, "resume")
        assert main(["fit-mom", "-c", cfg, "-o", out]) == 0
        params = os.path.join(out, "params_mom.json")
        assert main(["fit-mcmc", "-c", cfg, "-o", out, "--params", params]) == 0
        chain = os.path.join(out, "chain_0.csv")
        full = open(chain).read()
        lines = full.splitlines(keepends=True)
        open(chain, "w").writelines(lines[: 2 + 30])
        assert main(["fit-mcmc", "-c", cfg, "-o", out, "--params", params, "--resume"]) == 0
        assert open(chain).read() == full


def _damage_chain(text: str, damage: str) -> str:
    lines = text.splitlines(keepends=True)
    if damage == "header-only":
        return "".join(lines[:2])
    if damage == "torn":
        return text[:-7]
    if damage == "renamed":  # a chain of other free blocks, same field count
        lines[1] = lines[1].replace("alpha.f[0]", "zeta.f[0]")
        return "".join(lines)
    if damage == "columns":  # the column row names one field more than any record
        lines[1] = lines[1].rstrip("\n") + ",extra[0]\n"
        return "".join(lines)
    last = lines[-1].rstrip("\n").split(",")
    if damage == "short":
        last = last[:-1]
    else:  # unparsable
        last[-1] = "0.12x4"
    return "".join(lines[:-1]) + ",".join(last) + "\n"


class TestChainFiles:
    @pytest.mark.parametrize(
        "damage", ["header-only", "torn", "short", "unparsable", "renamed", "columns"]
    )
    def test_damaged_chain_is_a_data_error(self, cli_workspace, damage):
        ws = str(cli_workspace)
        cfg = os.path.join(ws, "ecrplus.ini")
        out = os.path.join(ws, "out")
        assert main(["fit-mom", "-c", cfg, "-o", out]) == 0
        params = os.path.join(out, "params_mom.json")
        assert main(["fit-mcmc", "-c", cfg, "-o", out, "--params", params]) == 0
        damaged = os.path.join(ws, "damaged.csv")
        with open(os.path.join(out, "chain_0.csv")) as fh:
            text = fh.read()
        with open(damaged, "w") as fh:
            fh.write(_damage_chain(text, damage))
        argv = ["forecast", "-c", cfg, "-o", out, "--params", params, "--chain", damaged]
        assert main(argv) == 2

    def test_forecast_builds_only_the_draws_it_uses(self, cli_workspace, monkeypatch):
        ws = str(cli_workspace)
        cfg = os.path.join(ws, "ecrplus.ini")
        out = os.path.join(ws, "out")
        assert main(["fit-mom", "-c", cfg, "-o", out]) == 0
        params = os.path.join(out, "params_mom.json")
        assert main(["fit-mcmc", "-c", cfg, "-o", out, "--params", params]) == 0
        with open(os.path.join(out, "chain_0.csv")) as fh:
            lines = fh.readlines()
        n_records, max_samples = 3000, 5  # max_samples as in the workspace config
        records = lines[2:] * (n_records // len(lines[2:]) + 1)
        long_chain = os.path.join(ws, "long.csv")
        with open(long_chain, "w") as fh:
            fh.writelines(lines[:2] + records[:n_records])
        built = []
        original = McmcChain.param_vector

        def counting(self, i):
            built.append(i)
            return original(self, i)

        monkeypatch.setattr(McmcChain, "param_vector", counting)
        argv = ["forecast", "-c", cfg, "-o", out, "--params", params, "--chain", long_chain]
        assert main(argv) == 0
        assert 0 < len(built) <= max_samples
        assert built[0] == 0 and built[-1] == n_records - 1

    def test_resume_with_other_settings_is_a_data_error(self, cli_workspace):
        ws = str(cli_workspace)
        cfg = os.path.join(ws, "ecrplus.ini")
        seed2 = os.path.join(ws, "seed2.ini")
        with open(cfg) as fh:
            text = fh.read()
        with open(seed2, "w") as fh:
            fh.write(text.replace("seed = 5", "seed = 2"))
        out = os.path.join(ws, "out")
        assert main(["fit-mom", "-c", cfg, "-o", out]) == 0
        params = os.path.join(out, "params_mom.json")
        run = ["-o", out, "--params", params, "--steps", "60", "--burn-in", "30"]
        assert main(["fit-mcmc", "-c", seed2, *run]) == 0
        chain = os.path.join(out, "chain_0.csv")
        with open(chain) as fh:
            written = fh.read()
        assert main(["fit-mcmc", "-c", cfg, *run, "--resume"]) == 2
        with open(chain) as fh:
            assert fh.read() == written
