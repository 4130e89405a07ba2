"""Coincidence-counting kernel: the one hot inner loop of the HBT simulation.

``coincidence_histogram`` counts the ordered pairs of two sorted time-tag
streams by separation b - a, in 2*m_max + 1 bins of width w centred on m*w
for m = -m_max..m_max. The bin rule is a comparison in float64: the edge k of
a row is ``a + (k - 0.5)*w``, evaluated exactly as written, and pair (a, b)
is in bin m iff

    a + (m - 0.5)*w <= b < a + (m + 0.5)*w.

At time tags around 1e9 a separation within a few ulps of an edge can fall
on the other side of ``floor((b - a)/w + 0.5)``; the comparison rule is the
one that the per-edge count below can evaluate exactly, so both branches
use it.

Each row a_i owns the window [lo_i, hi_i) of b between its outer edges,
found with two ``searchsorted`` calls (the sliding-window pair counter used
for TCSPC time tags; Wahl et al., Opt. Express 11, 3583 (2003)). Rows with
an empty window add the same count to every edge, so they are dropped. Rows
are taken a block at a time, and each block picks its branch from its own
input: its exact pair total against (2*m_max + 2) x its rows, the number of
edge searches the per-edge count would make.

* few pairs: expand the pairs in chunks of ``_CHUNK_PAIRS`` and bincount
  them, O(N log N + pairs);
* many pairs: count the b below every interior edge with one
  ``searchsorted`` per edge and take differences, O(M N log N).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["coincidence_histogram", "MAX_BINS"]

# Largest histogram (2*m_max + 1 bins) accepted; 8 MB of int64 counts.
MAX_BINS = 1_000_001

# Rows of times_a handled at once, and pairs expanded at once. Both keep the
# memory of a call small: with whole-stream window arrays the peak RSS of one
# hbt_wide benchmark op rose from 86 MB (earlier per-edge kernel) to 94 MB,
# where blocks leave it at 78 MB, the simulation's own peak; with 1M-pair
# chunks a stream of 8e6 pairs traced 87 MB instead of 7.5 MB.
_BLOCK_ROWS = 1 << 16
_CHUNK_PAIRS = 1 << 16


def _edge(a, k, w):
    """Edge k of the rows at times a: the lower edge of bin k."""
    return a + (k - 0.5) * w


def coincidence_histogram(times_a, times_b, bin_width: float,
                          m_max: int) -> np.ndarray:
    """Histogram of pair separations t_b - t_a within +-(m_max+0.5)*bin_width.

    Both time arrays must be sorted ascending. Counts every ordered pair
    (full correlation, not start-stop). Pass ``times_a is times_b`` data for
    an autocorrelation and subtract the self-pairs from the center bin at
    the call site.
    """
    w = float(bin_width)
    if not (math.isfinite(w) and w > 0):
        raise ValueError(f"bin_width must be positive and finite, got {bin_width}")
    m_max = int(m_max)
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    if 2 * m_max + 1 > MAX_BINS:
        raise ValueError(f"2*m_max + 1 = {2 * m_max + 1} bins exceeds the "
                         f"limit of {MAX_BINS}")
    a = np.ascontiguousarray(times_a, dtype=np.float64)
    b = np.ascontiguousarray(times_b, dtype=np.float64)

    hist = np.zeros(2 * m_max + 1, dtype=np.int64)
    for r in range(0, a.size, _BLOCK_ROWS):
        ta = a[r:r + _BLOCK_ROWS]
        lo = np.searchsorted(b, _edge(ta, -m_max, w), side="left")
        hi = np.searchsorted(b, _edge(ta, m_max + 1, w), side="left")
        active = lo < hi
        if not active.all():
            ta, lo, hi = ta[active], lo[active], hi[active]
        n_pairs = int((hi - lo).sum())
        if n_pairs == 0:
            continue
        if n_pairs <= (2 * m_max + 2) * ta.size:
            _add_pairs(hist, ta, b, lo, hi, w, m_max)
        else:
            _add_edges(hist, ta, b, lo, hi, w, m_max)
    return hist


def _add_pairs(hist, a, b, lo, hi, w, m_max):
    """Bin the pairs of rows a, expanded _CHUNK_PAIRS at a time."""
    ends = np.cumsum(hi - lo)  # pairs in rows 0..i
    shift = ends - hi          # pair p of row i pairs with b[p - shift[i]]
    n_pairs = int(ends[-1])
    for s in range(0, n_pairs, _CHUNK_PAIRS):
        e = min(s + _CHUNK_PAIRS, n_pairs)
        r0, r1 = np.searchsorted(ends, [s, e - 1], side="right")
        rows = slice(r0, r1 + 1)  # a chunk may split a row
        counts = np.minimum(ends[rows], e) - np.maximum(shift[rows] + lo[rows], s)
        ta = np.repeat(a[rows], counts)
        tb = b[np.arange(s, e) - np.repeat(shift[rows], counts)]
        m = np.floor((tb - ta) / w + 0.5)
        np.clip(m, -m_max, m_max, out=m)
        m = _settle(ta, tb, m.astype(np.int64), w)
        hist += np.bincount(m + m_max, minlength=hist.size)


def _settle(ta, tb, m, w):
    """Move each first-guess bin m until _edge(ta, m) <= tb < _edge(ta, m + 1).

    The window guarantees such an m within -m_max..m_max, and the edges grow
    with m, so every step heads towards it. Only mismatching pairs are
    revisited.
    """
    idx = np.arange(m.size)
    while idx.size:
        t_a, t_b, k = ta[idx], tb[idx], m[idx]
        step = (t_b >= _edge(t_a, k + 1, w)).astype(np.int64) \
            - (t_b < _edge(t_a, k, w))
        m[idx] = k + step
        idx = idx[step != 0]
    return m


def _add_edges(hist, a, b, lo, hi, w, m_max):
    """Count the b below every edge, summed over the rows a, and difference."""
    below = np.empty(2 * m_max + 2, dtype=np.int64)
    below[0] = lo.sum()
    below[-1] = hi.sum()
    for k in range(1, 2 * m_max + 1):
        below[k] = np.searchsorted(b, _edge(a, k - m_max, w), side="left").sum()
    hist += np.diff(below)
