import configparser
import csv
import json
import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ecrplus import estimation
from ecrplus.cli import CONFIG, load_params, main, params_from_dict, params_to_dict
from ecrplus.errors import DataError
from ecrplus.estimation import McmcChain, ParamVector
from ecrplus.ingest import IngestSpec, ingest, write_panel
from ecrplus.validation import MOMENT_BOUNDS_DRAWS

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

    def _with_portfolio(self, ws, rows, unit=None):
        """A copy of the workspace config whose portfolio holds ``rows``."""
        path = os.path.join(ws, "other_portfolio.csv")
        _write_csv(path, ["age_group", "gender", "count", "payment"], rows)
        text = open(os.path.join(ws, "ecrplus.ini")).read().replace(
            os.path.join(ws, "portfolio.csv"), path)
        if unit is not None:
            text = text.replace("unit = 1.0", f"unit = {unit}", 1)
        cfg = os.path.join(ws, "other.ini")
        open(cfg, "w").write(text)
        return cfg, path

    @pytest.mark.parametrize("command", ["aggregate", "scenario"])
    def test_negative_count_is_a_data_error(self, cli_workspace, capsys, command):
        ws = str(cli_workspace)
        cfg, path = self._with_portfolio(ws, [[0, "f", 50, 10], [1, "m", -5, 10]])
        assert main([command, "-c", cfg, "-o", os.path.join(ws, "out")]) == 2
        err = capsys.readouterr().err
        assert f"{path}:3" in err and "negative count -5" in err

    def test_scenario_without_policyholders_is_a_data_error(self, cli_workspace, capsys):
        ws = str(cli_workspace)
        cfg, path = self._with_portfolio(ws, [[0, "f", 0, 10], [1, "m", 0, 10]])
        assert main(["scenario", "-c", cfg, "-o", os.path.join(ws, "out")]) == 2
        err = capsys.readouterr().err
        assert path in err and "no policyholders" in err
        assert "unknown cause" not in err

    @pytest.mark.parametrize("unit, payment", [(1e-9, 10), (1.0, 1e12)])
    def test_lattice_above_the_ceiling_is_a_data_error(self, cli_workspace, capsys, unit, payment):
        ws = str(cli_workspace)
        cfg, _ = self._with_portfolio(ws, [[0, "f", 50, payment]], unit=unit)
        assert main(["aggregate", "-c", cfg, "-o", os.path.join(ws, "out")]) == 2
        err = capsys.readouterr().err
        assert "lattice needs" in err and f"unit {unit:g}" in err and "33,554,432" in err

    def test_exit_codes(self, tmp_path):
        assert main(["aggregate", "-c", str(tmp_path / "missing.ini"), "-o", str(tmp_path)]) == 2
        assert main(["no-such-command"]) == 1

    def test_config_without_section_header_is_a_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "flat.ini"
        cfg.write_text("portfolio = portfolio.csv\n")
        assert main(["aggregate", "-c", str(cfg), "-o", str(tmp_path / "out")]) == 2
        assert str(cfg) in capsys.readouterr().err

    @pytest.mark.parametrize("command, section", [
        ("aggregate", "aggregate"), ("scenario", "scenario"), ("scr", "scr"),
    ])
    def test_missing_config_section_is_a_data_error(self, cli_workspace, capsys, command, section):
        cfg = cli_workspace / "ecrplus.ini"
        text = cfg.read_text()
        start = text.index(f"[{section}]")
        end = text.find("\n[", start)
        cfg.write_text(text[:start] + (text[end + 1 :] if end >= 0 else ""))
        assert main([command, "-c", str(cfg), "-o", str(cli_workspace / "out")]) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and f"[{section}]" in err

    @pytest.mark.parametrize("command, section, key", [
        ("aggregate", "aggregate", "portfolio"), ("scr", "scr", "policies"),
        ("fit-mom", "data", "population"),
    ])
    def test_missing_config_key_is_a_data_error(self, cli_workspace, capsys, command, section, key):
        cfg = cli_workspace / "ecrplus.ini"
        text = cfg.read_text()
        start = text.index(f"[{section}]")
        line = text.index(f"{key} = ", start)
        cfg.write_text(text[:line] + text[text.index("\n", line) + 1 :])
        assert main([command, "-c", str(cfg), "-o", str(cli_workspace / "out")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("row", [
        [55, "x", 1000, 10], [130, "f", 1000, 10], [55, "f", "nan", 10],
    ])
    def test_bad_policy_row_is_a_data_error(self, cli_workspace, capsys, row):
        ws = str(cli_workspace)
        cfg = os.path.join(ws, "ecrplus.ini")
        out = os.path.join(ws, "out")
        assert main(["fit-mom", "-c", cfg, "-o", out]) == 0
        policies = os.path.join(ws, "policies.csv")
        _write_csv(policies, ["age", "gender", "sum_insured", "term_years"],
                   [[60, "m", 2000, 5], row])
        params = os.path.join(out, "params_mom.json")
        assert main(["scr", "-c", cfg, "-o", out, "--params", params]) == 2
        assert f"{policies}:3" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "scr.json"))

    def test_forecast_base_year_outside_the_panel_is_a_data_error(self, cli_workspace):
        ws = str(cli_workspace)
        cfg = os.path.join(ws, "ecrplus.ini")
        out = os.path.join(ws, "out")
        assert main(["fit-mom", "-c", cfg, "-o", out]) == 0
        params = os.path.join(out, "params_mom.json")
        late = os.path.join(ws, "late.ini")
        with open(cfg) as fh:
            text = fh.read()
        with open(late, "w") as fh:
            fh.write(text.replace("base_year = 2007\nhorizon = 2009",
                                  "base_year = 2030\nhorizon = 2032"))
        assert main(["forecast", "-c", late, "-o", out, "--params", params]) == 2
        assert not os.path.exists(os.path.join(out, "forecast_bands.csv"))

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


def _set_key(cfg, section, key, value):
    """Write ``key = value`` into [section] of the config file, in place of
    any value it had; the section is added when missing."""
    text = cfg.read_text()
    start = text.find(f"[{section}]\n")
    if start < 0:
        cfg.write_text(f"{text}\n[{section}]\n{key} = {value}\n")
        return
    end = text.find("\n[", start)
    end = len(text) if end < 0 else end + 1
    lines = [line for line in text[start:end].splitlines() if not line.startswith(f"{key} =")]
    lines.insert(1, f"{key} = {value}")
    cfg.write_text(text[:start] + "\n".join(lines) + "\n" + text[end:])


# Each command as the full pipeline runs it: (command, takes --params, takes --chain).
_COMMANDS = [
    ("fit-mom", False, False), ("fit-mcmc", True, False), ("map-factors", True, False),
    ("aggregate", True, False), ("forecast", True, True), ("life-table", True, False),
    ("scenario", True, False), ("scr", True, True), ("validate", True, True),
]


def _run(ws, command, cfg, out):
    """Run ``command`` against the parameters and chain in ``ws/base``."""
    argv = [command, "-c", str(cfg), "-o", str(out)]
    _, params, chain = next(c for c in _COMMANDS if c[0] == command)
    if params:
        argv += ["--params", str(ws / "base" / "params_mom.json")]
    if chain:
        argv += ["--chain", str(ws / "base" / "chain_0.csv")]
    return main(argv)


@pytest.fixture
def fitted_workspace(cli_workspace):
    """The CLI workspace with its moment fit and chain in ``base/``."""
    cfg, base = cli_workspace / "ecrplus.ini", cli_workspace / "base"
    assert main(["fit-mom", "-c", str(cfg), "-o", str(base)]) == 0
    assert main(["fit-mcmc", "-c", str(cfg), "-o", str(base),
                 "--params", str(base / "params_mom.json")]) == 0
    return cli_workspace


class TestConfigReader:
    @pytest.mark.parametrize("command, section, key, value", [
        ("fit-mcmc", "mcmc", "steps", "ten"),
        ("fit-mcmc", "mcmc", "burn_in", "200"),
        ("fit-mcmc", "mcmc", "likelihood", "foo"),
        ("fit-mcmc", "mcmc", "chains", "0"),
        ("fit-mcmc", "mcmc", "scale", "0"),
        ("fit-mcmc", "prior", "alpha.order", "4"),
        ("fit-mcmc", "prior", "alpha", "1"),
        ("aggregate", "model", "sigma2", "-0.1"),
        ("aggregate", "aggregate", "unit", "0"),
        ("aggregate", "aggregate", "unit", "abc"),
        ("aggregate", "aggregate", "t0", "2003"),
        ("scenario", "scenario", "factors", "1:x"),
        ("scenario", "scenario", "unit", "nan"),
        ("scenario", "scenario", "description", "pandemic"),
        ("scr", "scr", "asset_value", "x"),
        ("scr", "scr", "cupon", "0.05"),
        ("fit-mom", "trends", "t0", "x"),
        ("fit-mom", "data", "year_min", "2003"),
        ("forecast", "forecast", "horizon", "x"),
        ("forecast", "forecast", "horizon", "2005"),
        ("forecast", "forecast", "levels", "1.5"),
        ("forecast", "forecast", "levels", ","),
        ("life-table", "life_table", "age_min", "x"),
        ("life-table", "life_table", "age_max", "500"),
    ])
    def test_bad_value_is_a_data_error(self, fitted_workspace, capsys, command, section, key,
                                       value):
        cfg = fitted_workspace / "ecrplus.ini"
        _set_key(cfg, section, key, value)
        capsys.readouterr()
        assert _run(fitted_workspace, command, cfg, fitted_workspace / "out") == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and f"[{section}]" in err and key in err

    @pytest.mark.parametrize("text", ["[DEFAULT]\nunit = 2\n", "[scenaro]\nunit = 2\n"])
    def test_unknown_section_is_a_data_error(self, cli_workspace, capsys, text):
        cfg = cli_workspace / "ecrplus.ini"
        cfg.write_text(cfg.read_text() + text)
        assert main(["aggregate", "-c", str(cfg), "-o", str(cli_workspace / "out")]) == 2
        assert text.split("\n")[0] in capsys.readouterr().err

    # Without burn-in the proposal scales never adapt, and the v blocks
    # reject every proposal at the workspace's scale.
    @pytest.mark.filterwarnings("ignore:block .* every proposal was rejected:UserWarning")
    def test_flags_replace_config_values_and_are_checked(self, fitted_workspace):
        cfg, out = fitted_workspace / "ecrplus.ini", fitted_workspace / "out"
        params = str(fitted_workspace / "base" / "params_mom.json")
        assert main(["fit-mcmc", "-c", str(cfg), "-o", str(out), "--params", params,
                     "--burn-in", "0"]) == 0
        records = [line for line in open(out / "chain_0.csv").readlines()[2:] if line.strip()]
        assert len(records) == 120  # [mcmc] steps, none burnt in
        for flags in (["--steps", "0"], ["--burn-in", "-1"], ["--steps", "30"]):
            assert main(["fit-mcmc", "-c", str(cfg), "-o", str(out), "--params", params,
                         *flags]) == 2

    @pytest.mark.parametrize("command", ["fit-mcmc", "map-factors", "forecast", "validate"])
    def test_params_of_another_panel_is_a_data_error(self, fitted_workspace, capsys, command):
        cfg = fitted_workspace / "ecrplus.ini"
        _set_key(cfg, "data", "idiosyncratic", "other")  # a third cause
        capsys.readouterr()
        assert _run(fitted_workspace, command, cfg, fitted_workspace / "out") == 2
        assert "params_mom.json" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", [None, []])
    def test_missing_or_empty_policy_file_is_a_data_error(self, fitted_workspace, capsys, rows):
        policies = fitted_workspace / "policies.csv"
        if rows is None:
            policies.unlink()
        else:
            _write_csv(policies, ["age", "gender", "sum_insured", "term_years"], rows)
        cfg = fitted_workspace / "ecrplus.ini"
        assert _run(fitted_workspace, "scr", cfg, fitted_workspace / "out") == 2
        assert str(policies) in capsys.readouterr().err

    def test_parallel_chains_match_sequential_chains(self, fitted_workspace, monkeypatch, capsys):
        cfg = fitted_workspace / "ecrplus.ini"
        _set_key(cfg, "mcmc", "chains", "2")
        params = str(fitted_workspace / "base" / "params_mom.json")
        names = ("chain_0.csv", "chain_1.csv", "params_mcmc.json")
        written = {}
        for threads in (None, "2"):
            if threads is None:
                monkeypatch.delenv("ECRPLUS_THREADS", raising=False)
            else:
                monkeypatch.setenv("ECRPLUS_THREADS", threads)
            out = fitted_workspace / f"threads_{threads}"
            assert main(["fit-mcmc", "-c", str(cfg), "-o", str(out), "--params", params]) == 0
            written[threads] = [(out / name).read_bytes() for name in names]
        assert written[None] == written["2"]
        monkeypatch.setenv("ECRPLUS_THREADS", "abc")
        capsys.readouterr()
        assert main(["fit-mcmc", "-c", str(cfg), "-o", str(fitted_workspace / "bad"),
                     "--params", params]) == 1
        assert "ECRPLUS_THREADS" in capsys.readouterr().err

    def test_readme_documents_every_key(self):
        readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
        documented = set(re.findall(r"^\| `\[(\w+)\]` \| `([\w.<>]+)` \|", readme, re.M))
        for family in estimation.FAMILIES:
            assert f"`{family}`" in readme
        for section, keys in CONFIG.items():
            for key in keys:
                generic = re.sub(r"^\w+\.", "<family>.", key) if section == "prior" else key
                assert (section, generic) in documented, f"[{section}] {key}"

    # One change to the working config: a value replaced by text or by a
    # number, a key dropped, or a section dropped.  Numbers stay small, so
    # no step count, lattice unit or sample count asks for unbounded work.
    # A chain whose block rejects every proposal warns and still runs.
    @pytest.mark.filterwarnings("ignore:block .* every proposal was rejected:UserWarning")
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_config_change_ends_in_an_exit_code(self, fitted_workspace, data):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(fitted_workspace / "ecrplus.ini")
        keys = [(s, k) for s in parser.sections() for k in parser[s]]
        section, key = data.draw(st.sampled_from(keys))
        # Without [mcmc] steps or [scr] unit the run falls back to defaults
        # sized for real data (40,000 steps, a 200k-point lattice).
        changes = ["text", "number"]
        if (section, key) not in {("mcmc", "steps"), ("scr", "unit")}:
            changes.append("drop key")
        if section != "mcmc":
            changes.append("drop section")
        change = data.draw(st.sampled_from(changes))
        if change == "drop section":
            parser.remove_section(section)
        elif change == "drop key":
            parser.remove_option(section, key)
        fuzzed = fitted_workspace / "fuzzed.ini"
        with open(fuzzed, "w") as fh:
            parser.write(fh)
        if change in ("text", "number"):
            value = data.draw(st.text(max_size=8) if change == "text" else st.one_of(
                st.integers(-3, 5),
                st.sampled_from([-1.5, -0.5, 0.0, 0.25, 0.5, 1.5, 2.5, "nan", "inf", "1e400"]),
            ))
            _set_key(fuzzed, section, key, value)
        for command, _, _ in _COMMANDS:
            code = _run(fitted_workspace, command, fuzzed, fitted_workspace / "fuzz_out")
            assert code in (0, 2, 3), (command, code)


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


def _long_chain(ws, n_records: int) -> tuple[str, str, str, str]:
    """Config, output directory, parameter file and a chain file of
    ``n_records`` records repeated from a short fit.  Each record's
    log-posterior field, which no report uses, holds its record number."""
    cfg = os.path.join(ws, "ecrplus.ini")
    out = os.path.join(ws, "out")
    assert main(["fit-mom", "-c", cfg, "-o", out]) == 0
    params = os.path.join(out, "params_mom.json")
    assert main(["fit-mcmc", "-c", cfg, "-o", out, "--params", params]) == 0
    with open(os.path.join(out, "chain_0.csv")) as fh:
        lines = fh.readlines()
    records = lines[2:] * (n_records // len(lines[2:]) + 1)
    records = [re.sub(r"(?<=,)[^,]*", str(i), r, count=1) for i, r in enumerate(records)]
    long_chain = os.path.join(ws, "long.csv")
    with open(long_chain, "w") as fh:
        fh.writelines(lines[:2] + records[:n_records])
    return cfg, out, params, long_chain


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
        n_records, max_samples = 3000, 5  # max_samples as in the workspace config
        cfg, out, params, long_chain = _long_chain(cli_workspace, n_records)
        loaded, built = [], []
        load_chain, param_vector = estimation.load_chain, McmcChain.param_vector

        def loading(*args, **kwargs):
            loaded.append(load_chain(*args, **kwargs))
            return loaded[-1]

        def counting(self, i):
            built.append(i)
            return param_vector(self, i)

        monkeypatch.setattr(estimation, "load_chain", loading)
        monkeypatch.setattr(McmcChain, "param_vector", counting)
        argv = ["forecast", "-c", cfg, "-o", out, "--params", params, "--chain", long_chain]
        assert main(argv) == 0
        (chain,) = loaded
        assert 0 < len(chain) <= max_samples
        assert chain.log_posterior[0] == 0 and chain.log_posterior[-1] == n_records - 1
        assert 0 < len(built) <= max_samples

    @pytest.mark.parametrize("damage", ["ragged", "letter", "nan", "inf", "torn"])
    def test_damage_in_a_record_not_drawn_is_a_data_error(self, cli_workspace, damage):
        cfg, out, params, long_chain = _long_chain(cli_workspace, 3000)
        template = load_params(params)
        for draws in (5, MOMENT_BOUNDS_DRAWS):  # forecast's and validate's
            drawn = estimation.load_chain(long_chain, template, max_samples=draws)
            assert 1 not in drawn.log_posterior
        with open(long_chain) as fh:
            lines = fh.readlines()
        fields = lines[3].rstrip("\n").split(",")  # record 1, drawn by neither
        if damage == "ragged":
            fields = fields[:-1]
        elif damage == "torn":
            lines[-1] = lines[-1][:-7]
        else:
            fields[-1] = {"letter": "0.12x4", "nan": "nan", "inf": "-inf"}[damage]
        lines[3] = ",".join(fields) + "\n"
        with open(long_chain, "w") as fh:
            fh.writelines(lines)
        for command in ("forecast", "validate"):
            argv = [command, "-c", cfg, "-o", out, "--params", params, "--chain", long_chain]
            assert main(argv) == 2, command

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
