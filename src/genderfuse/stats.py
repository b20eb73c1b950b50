"""Gender-difference statistics over construct-labeled tweets.

For every year and each of five tests (four HBM constructs plus TPB
attitude-positive) a 2x2 contingency table splits that year's tweets by
predicted author gender and construct membership.  Odds ratios above 1 mean
the male tweet rate for the construct exceeds the female rate.  Chi-square
tests (df=1, no continuity correction by default) with a Bonferroni-adjusted
strict threshold mark significance.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import HBM_CONSTRUCTS, TPB_ATTITUDES, TweetTable
from .errors import StatsError
from .ioutil import atomic_open, write_json

CONSTRUCTS = ("susceptibility", "severity", "benefits", "barriers", "tpb_positive")


@dataclass
class AnalysisConfig:
    alpha: float = 0.05
    comparisons: int = 25              # 5 tests per year over 5 years
    haldane: bool = True               # +0.5 on all cells when any cell is 0 (OR only)
    yates: bool = False
    denominator: str = "all"           # "all" | "labeled"

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise StatsError(f"alpha must be in (0,1), got {self.alpha}")
        if self.comparisons < 1:
            raise StatsError(f"comparisons must be >= 1, got {self.comparisons}")
        if self.denominator not in ("all", "labeled"):
            raise StatsError(
                f"denominator must be 'all' or 'labeled', got {self.denominator!r}")

    @property
    def threshold(self) -> float:
        return self.alpha / self.comparisons


@dataclass
class ConstructTable:
    """One 2x2 table: a = male in-construct, b = male not, c/d female."""

    construct: str
    year: int
    a: int
    b: int
    c: int
    d: int
    odds_ratio: float | None = None
    chi2: float | None = None
    p_value: float | None = None
    significant: bool | None = None

    def __post_init__(self):
        if self.construct not in CONSTRUCTS:
            raise StatsError(f"unknown construct {self.construct!r}")
        for cell in (self.a, self.b, self.c, self.d):
            if cell < 0:
                raise StatsError(f"{self.construct}/{self.year}: negative cell {cell}")

    @property
    def cells(self) -> tuple:
        return self.a, self.b, self.c, self.d


# A tweet's label code is hbm mask * _TPB_CODES + tpb code + 1.
_HBM_MASKS = 1 << len(HBM_CONSTRUCTS)
_TPB_CODES = len(TPB_ATTITUDES) + 1
_LABEL_CODES = _HBM_MASKS * _TPB_CODES


def _label_columns(config: AnalysisConfig) -> tuple:
    """``(hit, counted)``: 0/1 matrices indexed by (label code, construct).

    A tweet with label code k is in construct j when ``hit[k, j]`` is 1 and
    counts in that construct's table when ``counted[k, j]`` is 1.
    """
    code = np.arange(_LABEL_CODES)
    mask, tpb = code // _TPB_CODES, code % _TPB_CODES - 1
    hit = [mask >> HBM_CONSTRUCTS.index(c) & 1 for c in CONSTRUCTS[:-1]]
    hit.append(tpb == TPB_ATTITUDES.index("positive"))
    if config.denominator == "all":
        counted = [np.ones_like(code)] * len(CONSTRUCTS)
    else:
        counted = [mask != 0] * (len(CONSTRUCTS) - 1) + [tpb != -1]
    return (np.stack(hit, axis=1).astype(np.int64),
            np.stack(counted, axis=1).astype(np.int64))


def build_tables(stream: TweetTable, preds, config: AnalysisConfig | None = None) -> list:
    """Five contingency tables per year present in the tweet stream.

    Gender comes from the voted prediction of the authoring user; a tweet
    carrying several HBM labels counts in each of those constructs.  With
    ``denominator="labeled"`` the not-in-construct cells only count tweets
    that carry at least one label of the same family.
    """
    config = config or AnalysisConfig()
    gender_of = {p.user_id: p.voted_gender for p in preds}
    unresolved = sorted(u for u in stream.authors if u not in gender_of)
    if unresolved:
        raise StatsError(
            f"{len(unresolved)} tweet author(s) have no gender prediction, "
            f"e.g. {unresolved[:5]}")
    if not len(stream):
        raise StatsError("the tweet stream has no tweets")

    is_male = np.array([gender_of[u] == "male" for u in stream.authors], dtype=np.int64)
    years, year_index = np.unique(stream.year, return_inverse=True)
    label = stream.hbm.astype(np.int64) * _TPB_CODES + stream.tpb + 1
    slot = (year_index * 2 + is_male[stream.author]) * _LABEL_CODES + label
    counts = np.bincount(slot, minlength=len(years) * 2 * _LABEL_CODES)
    counts = counts.reshape(len(years), 2, _LABEL_CODES)    # (year, male, label)
    hit, counted = _label_columns(config)
    hits = (counts @ (hit * counted)).tolist()              # (year, male, construct)
    misses = (counts @ ((1 - hit) * counted)).tolist()
    return [ConstructTable(construct, year, hits[y][1][j], misses[y][1][j],
                           hits[y][0][j], misses[y][0][j])
            for y, year in enumerate(years.tolist())
            for j, construct in enumerate(CONSTRUCTS)]


def odds_ratio(table: ConstructTable, config: AnalysisConfig | None = None) -> float:
    """(a*d)/(b*c), Haldane-corrected (+0.5 everywhere) when a cell is zero."""
    config = config or AnalysisConfig()
    a, b, c, d = (float(x) for x in table.cells)
    if config.haldane and min(a, b, c, d) == 0.0:
        a, b, c, d = a + 0.5, b + 0.5, c + 0.5, d + 0.5
    if b * c == 0.0 or a * d == 0.0:
        raise StatsError(
            f"{table.construct}/{table.year}: zero cell without correction "
            "(enable the Haldane policy)")
    return (a * d) / (b * c)


def chi2_tail(x: float) -> float:
    """Upper tail of the chi-square distribution with one degree of freedom."""
    if x < 0:
        raise StatsError(f"chi-square statistic must be >= 0, got {x}")
    return math.erfc(math.sqrt(x / 2.0))


def chi2_test(table: ConstructTable,
              config: AnalysisConfig | None = None) -> tuple[float, float]:
    """Pearson statistic over the four cells and its df=1 p-value."""
    config = config or AnalysisConfig()
    a, b, c, d = (float(x) for x in table.cells)
    row_m, row_f = a + b, c + d
    col_in, col_out = a + c, b + d
    n = row_m + row_f
    if min(row_m, row_f, col_in, col_out) == 0.0:
        raise StatsError(
            f"{table.construct}/{table.year}: zero margin, test undefined")
    stat = 0.0
    for obs, rm, cm in ((a, row_m, col_in), (b, row_m, col_out),
                        (c, row_f, col_in), (d, row_f, col_out)):
        expected = rm * cm / n
        dev = abs(obs - expected)
        if config.yates:
            dev = max(dev - 0.5, 0.0)
        stat += dev * dev / expected
    return stat, chi2_tail(stat)


def apply_bonferroni(tables, config: AnalysisConfig | None = None) -> list:
    """Set each table's significance flag: p strictly below alpha/comparisons."""
    config = config or AnalysisConfig()
    for t in tables:
        if t.p_value is None:
            raise StatsError(
                f"{t.construct}/{t.year}: p-value missing, run the test first")
        t.significant = t.p_value < config.threshold
    return tables


def analyze(tweets, preds, config: AnalysisConfig | None = None) -> list:
    """Tables with odds ratio, chi-square, p-value, and significance filled in."""
    config = config or AnalysisConfig()
    tables = build_tables(tweets, preds, config)
    for t in tables:
        t.odds_ratio = odds_ratio(t, config)
        t.chi2, t.p_value = chi2_test(t, config)
    return apply_bonferroni(tables, config)


# ---------------------------------------------------------------------------
# figure data emission
# ---------------------------------------------------------------------------

FIGURE2_HEADER = ("construct", "year", "odds_ratio", "chi2", "p_value",
                  "significant")


def emit_figure2(tables, path) -> None:
    """Plot-ready CSV (constructs in fixed order, years ascending) + JSON twin.

    The JSON mirror sits next to the CSV with a ``.json`` suffix and carries
    the same rows with unrounded numbers.
    """
    for t in tables:
        if t.odds_ratio is None or t.p_value is None or t.significant is None:
            raise StatsError(
                f"{t.construct}/{t.year}: statistics missing, run analyze first")
    ordered = sorted(tables, key=lambda t: (CONSTRUCTS.index(t.construct), t.year))
    path = Path(path)
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(FIGURE2_HEADER)
        for t in ordered:
            writer.writerow([t.construct, t.year, f"{t.odds_ratio:.4f}",
                             f"{t.chi2:.4f}", f"{t.p_value:.6g}",
                             "true" if t.significant else "false"])
    write_json(path.with_suffix(".json"),
               [{"construct": t.construct, "year": t.year,
                 "odds_ratio": t.odds_ratio, "chi2": t.chi2,
                 "p_value": t.p_value, "significant": t.significant}
                for t in ordered])
