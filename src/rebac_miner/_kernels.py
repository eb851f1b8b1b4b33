"""Split scoring for the multi-way tree learner.

Cells and labels are uint8 truth-value codes (F=0, U=1, T=2).  A
candidate's gain comes from its 3x3 table of (cell, label) counts over the
row subset.  Candidates are scored in column chunks: one ``np.bincount``
per chunk over ``cell*3 + label`` codes, offset by 9 per candidate, then
the entropies of every candidate in the chunk at once.
"""

import numpy as np

# Cells (rows x candidate columns) counted per bincount.  Bounds each
# chunk's intp code matrix to 2 MB whatever the input size.
CHUNK_CELLS = 1 << 18


def _entropies(counts, totals):
    """Base-2 entropy of each count vector along the last axis, given its
    sum; all-zero vectors have entropy 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        p = counts / totals[..., None]
        terms = np.where(counts > 0, p * np.log2(p), 0.0)
    return -terms.sum(axis=-1)


def split_gains(cells, labels, rows, cands) -> np.ndarray:
    """Per-candidate information gain over the given row subset.

    ``cells`` is an (n_rows, n_features) matrix of truth-value codes,
    ``labels`` the per-row label codes, ``rows`` and ``cands`` index arrays.
    """
    rows = np.asarray(rows, dtype=np.intp)
    cands = np.asarray(cands, dtype=np.intp)
    gains = np.zeros(len(cands), dtype=np.float64)
    n = len(rows)
    if n == 0 or len(cands) == 0:
        return gains
    lab = labels[rows].astype(np.uint8, copy=False)
    h_parent = _entropies(np.bincount(lab, minlength=3), np.array(n))
    # cell*3 + label for every selected row, still one byte per cell.
    local = cells[rows].astype(np.uint8, copy=False)
    local *= 3
    local += lab[:, None]
    width = max(1, CHUNK_CELLS // n)
    for start in range(0, len(cands), width):
        chunk = cands[start : start + width]
        codes = local[:, chunk] + 9 * np.arange(len(chunk), dtype=np.intp)
        counts = np.bincount(codes.ravel(), minlength=9 * len(chunk)).reshape(-1, 3, 3)
        totals = counts.sum(axis=2)
        remainder = ((totals / n) * _entropies(counts, totals)).sum(axis=1)
        gains[start : start + len(chunk)] = h_parent - remainder
    return gains
