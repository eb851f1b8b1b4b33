"""Split scoring for the multi-way tree learner.

A candidate's gain comes from its 3x3 table of (cell, label) counts over
the row subset.  Columns and labels are (T, F) bitplanes
(:class:`~rebac_miner.tvl.LabeledDataset`), so each count is one
``int.bit_count()`` of an AND: a candidate's rows are ANDed with its T and
F planes, and those two results with the T and F label planes; the U
counts follow by subtraction, and so do the F cell's when the candidate
has no U cell on the rows.  Entropies are summed in truth-value code
order (F, U, T), left to right.
"""

from math import log2


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
    difference is exactly 0.0.  Any other gain depends only on the six
    (label, cell) counts of the T and F cells, so it is computed once per
    distinct six within a call.
    """
    n = len(rows)
    if not n:
        return [0.0] * len(cands)
    label_t, label_f = labels
    n_t = (rows & label_t).bit_count()
    n_f = (rows & label_f).bit_count()
    n_u = n - n_t - n_f
    h_parent = _entropy((n_f, n_u, n_t), n)
    by_counts: dict[tuple[int, ...], float] = {}
    gains = []
    for c in cands:
        t, f = cells[c]
        on_t = rows & t
        on_f = rows & f
        if on_t == rows or on_f == rows or not (on_t or on_f):
            gains.append(0.0)
            continue
        t_n, f_n = on_t.bit_count(), on_f.bit_count()
        # With no U cell on these rows, the F cell is the rows not in T.
        no_u_cell = t_n + f_n == n
        t_t = (on_t & label_t).bit_count()
        f_t = n_t - t_t if no_u_cell else (on_f & label_t).bit_count()
        if n_u:
            t_f = (on_t & label_f).bit_count()
            f_f = n_f - t_f if no_u_cell else (on_f & label_f).bit_count()
        else:  # a cell's rows not labelled T are labelled F
            t_f, f_f = t_n - t_t, f_n - f_t
        key = (t_n, t_t, t_f, f_n, f_t, f_f)
        gain = by_counts.get(key)
        if gain is None:
            t_u, f_u = t_n - t_t - t_f, f_n - f_t - f_f
            u_n = n - t_n - f_n
            u_counts = (n_f - t_f - f_f, n_u - t_u - f_u, n_t - t_t - f_t)
            # From 0.0, in cell order F, U, T: the sum a loop over the
            # 3x3 table makes, to the last bit (signed zeros included).
            remainder = (
                0.0
                + (f_n / n) * _entropy((f_f, f_u, f_t), f_n)
                + (u_n / n) * _entropy(u_counts, u_n)
                + (t_n / n) * _entropy((t_f, t_u, t_t), t_n)
            )
            gain = by_counts[key] = h_parent - remainder
        gains.append(gain)
    return gains
