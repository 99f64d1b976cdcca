"""Result tables, ``results.csv`` and ``summary.csv``, and the errors the
command line maps to exit codes.  ``run`` and ``summarize`` compute the
summary statistics with the one ``_group_statistics``, in Python floats
with the bits of numpy's: this module imports no numpy, so ``adaterm
summarize`` loads none.
"""

from __future__ import annotations

import csv
import math
from array import array
from functools import reduce
from operator import add
from typing import NamedTuple, get_type_hints

from .files import write_csv


class ConfigError(Exception):
    """Config file unreadable, schema-invalid, or referencing unknown names."""


class VerificationError(Exception):
    """A verification experiment observed an invariant violation."""


class WorkerError(Exception):
    """A cell's worker process ended without sending back its result."""


class NonFiniteGradientError(FloatingPointError):
    """Raised when a gradient contains NaN or infinity.

    EMA state poisoned by a non-finite value is unrecoverable, so the step
    is rejected instead of absorbed.
    """


class ResultRow(NamedTuple):
    """One row of ``results.csv``; the fields are its columns."""

    experiment: str
    optimizer: str
    seed: int
    metric: str
    step: int
    value: float


class SummaryRow(NamedTuple):
    """One row of ``summary.csv``; the fields are its columns."""

    experiment: str
    optimizer: str
    metric: str
    step: int
    count: int
    mean: float
    std: float
    median: float


def _column_kinds(row_type):
    """The ``files.write_csv`` kinds of a row type's columns: its annotations."""
    return tuple(get_type_hints(row_type).values())


def write_results_csv(rows, path):
    write_csv(path, ResultRow._fields, rows, _column_kinds(ResultRow))


def read_results_csv(path):
    """The rows of a ``results.csv``, whose columns may come in any order
    beside other columns.  Blank lines are skipped."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            # The last column of a name wins, as with csv.DictReader.
            index = {name: i for i, name in enumerate(next(reader, []))}
            missing = [c for c in ResultRow._fields if c not in index]
            if missing:
                raise ConfigError(f"Not a results file: {path} has no column(s) {missing}")
            e, o, s, m, t, v = (index[c] for c in ResultRow._fields)
            rows = []
            make, append = ResultRow._make, rows.append
            for rec in filter(None, reader):
                try:
                    append(make((rec[e], rec[o], int(rec[s]), rec[m], int(rec[t]),
                                 float(rec[v]))))
                except (IndexError, ValueError):
                    got = ", ".join(repr(rec[i]) if i < len(rec) else "None" for i in (s, t, v))
                    raise ConfigError(
                        f"{path}, line {reader.line_num}: seed and step must be integers "
                        f"and value a number, got {got}"
                    ) from None
            return rows
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"Cannot read results {path}: {exc}") from exc


def _grouped(rows, groups):
    """``rows``, passed on as each one's value is appended, as a C double,
    to its (experiment, optimizer, metric, step) group in ``groups``."""
    for r in rows:
        key = (r.experiment, r.optimizer, r.metric, r.step)
        if (vals := groups.get(key)) is None:
            vals = groups[key] = array("d")
        vals.append(r.value)
        yield r


def _pairwise_sum(a):
    """numpy's pairwise sum of the list ``a``, addition for addition: a
    plain loop below 8 values, 8 running sums up to 128, else two halves
    split at a multiple of 8."""
    if (n := len(a)) < 8:
        return reduce(add, a, 0.0)
    if n <= 128:
        r = [reduce(add, a[j + 8:n - n % 8:8], a[j]) for j in range(8)]
        return reduce(add, a[n - n % 8:],
                      ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(a[:half]) + _pairwise_sum(a[half:])


def _sum(a):
    """``np.add.reduce`` of the list ``a`` as a float64 array: 0.0 plus its
    pairwise sum."""
    return 0.0 + _pairwise_sum(a)


def _group_statistics(groups):
    """``summarize_rows`` of the rows whose values ``_grouped`` put in ``groups``."""
    if not groups:
        raise ConfigError("No result rows to summarize")
    out = []
    for key in sorted(groups):
        vals = groups[key].tolist()
        n, half, odd = len(vals), len(vals) // 2, len(vals) % 2
        mean = _sum(vals) / n
        std = math.sqrt(_sum([(x - mean) * (x - mean) for x in vals]) / n)
        # np.median is NaN if any value is; sorted() does not order NaN.
        if any(map(math.isnan, vals)):
            mid = math.nan
        else:  # the mean of the middle value(s); its 0.0 + makes a zero median +0.0
            mid = _sum(sorted(vals)[half - 1 + odd:half + 1]) / (2 - odd)
        out.append(SummaryRow(*key, n, mean, std, mid))
    return out


def summarize_rows(rows):
    """count/mean/std/median per (experiment, optimizer, metric, step).

    Standard deviation is the population estimator.  Each statistic makes
    the float operations of ``np.mean``, ``np.std`` or ``np.median`` in
    their order, so it has their bits.  Returns ``SummaryRow``s sorted by
    group key.
    """
    groups = {}
    for _ in _grouped(rows, groups):
        pass
    return _group_statistics(groups)


def write_summary_csv(summary, path):
    write_csv(path, SummaryRow._fields, summary, _column_kinds(SummaryRow))
