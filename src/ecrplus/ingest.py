"""CSV ingestion of population and death-count data into cohort panels.

Expected files (with header rows):

    population: year,age_group,gender,count
    deaths:     year,age_group,gender,cause,count
    factors:    cause,factor,applies_before_year   (optional)

Comparability factors rescale death counts of the named cause for all
years before the stated cutover (classification changes), rounding to the
nearest integer.  A cause-merge map folds minor causes into others,
typically into the idiosyncratic bucket.  Cause labels are opaque strings;
the idiosyncratic label always becomes cause 0.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from .domain import CohortPanel
from .errors import DataError

__all__ = ["IngestSpec", "ingest", "write_panel"]

_GENDERS = ("f", "m")


@dataclass(frozen=True)
class IngestSpec:
    """Where to find the raw data and how to bucket it."""

    population_path: str
    deaths_path: str
    factors_path: str | None = None
    age_group_labels: tuple = ()
    cause_merge: dict = field(default_factory=dict)
    year_range: tuple | None = None
    idiosyncratic_label: str = "idiosyncratic"


def _read_rows(path: str, required: list[str]) -> list[dict]:
    if not os.path.isfile(path):
        raise DataError(f"file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: missing header row")
        missing = [c for c in required if c not in reader.fieldnames]
        if missing:
            raise DataError(f"{path}: missing required columns {missing}")
        rows = []
        for i, row in enumerate(reader, start=2):
            row["_line"] = i
            rows.append(row)
    return rows


def _to_int(row: dict, key: str, path: str) -> int:
    try:
        return int(row[key])
    except (TypeError, ValueError):
        raise DataError(
            f"{path}:{row['_line']}: column {key!r} is not an integer: {row[key]!r}"
        ) from None


def ingest(spec: IngestSpec) -> CohortPanel:
    """Build a cohort panel, applying comparability factors and cause merges.

    Missing (year, age group, gender) cells are a hard error listing the
    gaps; deaths for missing cause cells are taken as zero.
    """
    pop_rows = _read_rows(spec.population_path, ["year", "age_group", "gender", "count"])
    death_rows = _read_rows(spec.deaths_path, ["year", "age_group", "gender", "cause", "count"])

    factors: dict[str, tuple[float, int]] = {}
    if spec.factors_path:
        for row in _read_rows(spec.factors_path, ["cause", "factor", "applies_before_year"]):
            factors[row["cause"]] = (
                float(row["factor"]),
                _to_int(row, "applies_before_year", spec.factors_path),
            )

    years = sorted({_to_int(r, "year", spec.population_path) for r in pop_rows})
    if spec.year_range:
        lo, hi = spec.year_range
        years = [y for y in years if lo <= y <= hi]
        if not years:
            raise DataError(f"no data years inside {spec.year_range}")

    if spec.age_group_labels:
        age_labels = list(spec.age_group_labels)
    else:
        age_labels = sorted({r["age_group"] for r in pop_rows})
    age_index = {lab: i for i, lab in enumerate(age_labels)}

    def merged(cause: str) -> str:
        return spec.cause_merge.get(cause, cause)

    cause_set = {merged(r["cause"]) for r in death_rows}
    cause_set.discard(spec.idiosyncratic_label)
    cause_labels = [spec.idiosyncratic_label] + sorted(cause_set)
    cause_index = {lab: i for i, lab in enumerate(cause_labels)}

    T, A, K1 = len(years), len(age_labels), len(cause_labels)
    year_index = {y: i for i, y in enumerate(years)}
    exposure = np.zeros((T, A, 2), dtype=np.int64)
    seen = np.zeros((T, A, 2), dtype=bool)
    for r in pop_rows:
        y = _to_int(r, "year", spec.population_path)
        if y not in year_index:
            continue
        if r["age_group"] not in age_index:
            if spec.age_group_labels:
                raise DataError(
                    f"{spec.population_path}:{r['_line']}: unknown age group {r['age_group']!r}"
                )
            continue
        g = r["gender"].strip().lower()
        if g not in _GENDERS:
            raise DataError(f"{spec.population_path}:{r['_line']}: unknown gender {r['gender']!r}")
        count = _to_int(r, "count", spec.population_path)
        if count <= 0:
            raise DataError(f"{spec.population_path}:{r['_line']}: non-positive population")
        ti, ai, gi = year_index[y], age_index[r["age_group"]], _GENDERS.index(g)
        exposure[ti, ai, gi] = count
        seen[ti, ai, gi] = True
    if not seen.all():
        gaps = [
            (years[t], age_labels[a], _GENDERS[g])
            for t, a, g in np.argwhere(~seen)[:20]
        ]
        raise DataError(f"population cells missing (first gaps shown): {gaps}")

    deaths = np.zeros((T, A, 2, K1), dtype=float)
    for r in death_rows:
        y = _to_int(r, "year", spec.deaths_path)
        if y not in year_index:
            continue
        if r["age_group"] not in age_index:
            if spec.age_group_labels:
                raise DataError(
                    f"{spec.deaths_path}:{r['_line']}: unknown age group {r['age_group']!r}"
                )
            continue
        g = r["gender"].strip().lower()
        if g not in _GENDERS:
            raise DataError(f"{spec.deaths_path}:{r['_line']}: unknown gender {r['gender']!r}")
        count = _to_int(r, "count", spec.deaths_path)
        if count < 0:
            raise DataError(f"{spec.deaths_path}:{r['_line']}: negative death count")
        raw_cause = r["cause"]
        scaled = float(count)
        if raw_cause in factors:
            factor, before = factors[raw_cause]
            if y < before:
                scaled = count * factor
        ti, ai, gi = year_index[y], age_index[r["age_group"]], _GENDERS.index(g)
        deaths[ti, ai, gi, cause_index[merged(raw_cause)]] += scaled

    return CohortPanel(
        years=np.array(years),
        # nearest integer, half away from zero (counts are non-negative)
        deaths=np.floor(deaths + 0.5).astype(np.int64),
        exposure=exposure,
        cause_labels=tuple(cause_labels),
    )


def write_panel(panel: CohortPanel, population_path: str, deaths_path: str):
    """Serialise a panel back to the ingestion CSV layout (round-trips)."""
    with open(population_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["year", "age_group", "gender", "count"])
        for ti, year in enumerate(panel.years):
            for a in range(panel.n_age_groups):
                for gi, g in enumerate(_GENDERS):
                    w.writerow([year, f"a{a}", g, panel.exposure[ti, a, gi]])
    with open(deaths_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["year", "age_group", "gender", "cause", "count"])
        for ti, year in enumerate(panel.years):
            for a in range(panel.n_age_groups):
                for gi, g in enumerate(_GENDERS):
                    for k, label in enumerate(panel.cause_labels):
                        w.writerow([year, f"a{a}", g, label, panel.deaths[ti, a, gi, k]])
