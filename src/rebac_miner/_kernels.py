"""Split scoring for the multi-way tree learner.

A candidate's gain comes from its 3x3 table of (cell, label) counts over
the row subset.  Columns and labels are (T, F) bitplanes
(:class:`~rebac_miner.tvl.LabeledDataset`), so each count is one
``int.bit_count()`` of an AND: six per candidate, the U-cell counts
following from the label totals.  Entropies are summed in truth-value code
order (F, U, T), left to right.
"""

from math import log2

from rebac_miner.tvl import TruthValue, value_rows


class RowSet(int):
    """A row mask (bit k = row k) whose ``len`` is its number of rows."""

    __slots__ = ()

    def __len__(self) -> int:
        return self.bit_count()


def _entropy(counts, total: int) -> float:
    """Base-2 entropy of the count vector with the given sum; 0 when empty."""
    h = 0.0
    for count in counts:
        if count:
            p = count / total
            h += p * log2(p)
    return -h


def split_gains(cells, labels, rows: RowSet, cands) -> list[float]:
    """Per-candidate information gain over the given row subset.

    ``cells`` holds one (T, F) plane pair per column, ``labels`` the label
    planes, ``rows`` the row subset and ``cands`` the candidate column
    indices.

    A column that is all T, all F or all U on ``rows`` gains 0.0 without a
    table: its one non-empty cell holds every row, so the remainder is
    1.0 times the parent entropy, computed from the same counts, and the
    difference is exactly 0.0.
    """
    n = len(rows)
    if not n:
        return [0.0] * len(cands)
    by_label = tuple(value_rows(labels, value, rows) for value in TruthValue)
    totals = [part.bit_count() for part in by_label]
    h_parent = _entropy(totals, n)
    gains = []
    for c in cands:
        t, f = cells[c]
        if rows & t == rows or rows & f == rows or not rows & (t | f):
            gains.append(0.0)
            continue
        on_t = [(t & part).bit_count() for part in by_label]
        on_f = [(f & part).bit_count() for part in by_label]
        on_u = [all_ - t_ - f_ for all_, t_, f_ in zip(totals, on_t, on_f)]
        remainder = 0.0
        for counts in (on_f, on_u, on_t):
            total = sum(counts)
            remainder += (total / n) * _entropy(counts, total)
        gains.append(h_parent - remainder)
    return gains
