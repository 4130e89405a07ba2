"""Coincidence kernel against two oracles.

``brute_force`` is the O(N^2) bin definition, floor((b - a)/w + 0.5), for
small inputs away from float64 bin edges. ``per_edge_reference`` is the
earlier per-bin-edge kernel, O(M N log N): it fixes the float64 comparison
rule of the bins, so the kernel must agree with it bit for bit on every
input, including separations a few ulps from an edge at large time tags.
"""

import math
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from g4vlines import _kernels
from g4vlines._kernels import MAX_BINS, coincidence_histogram


def brute_force(a, b, bin_width, m_max, exclude_self=False):
    """O(N^2) oracle, straight from the bin definition."""
    hist = np.zeros(2 * m_max + 1, dtype=np.int64)
    for i, ta in enumerate(a):
        for j, tb in enumerate(b):
            if exclude_self and i == j:
                continue
            m = math.floor((tb - ta) / bin_width + 0.5)
            if -m_max <= m <= m_max:
                hist[m + m_max] += 1
    return hist


def per_edge_reference(a, b, bin_width, m_max):
    """Pairs below every bin edge a + (m - 0.5)*w, one searchsorted per edge."""
    below = np.empty(2 * m_max + 2, dtype=np.int64)
    for k, m in enumerate(range(-m_max, m_max + 2)):
        below[k] = np.searchsorted(b, a + (m - 0.5) * bin_width, side="left").sum()
    return np.diff(below)


def poisson_stream(rng, n, rate, start=0.0):
    return start + np.cumsum(rng.exponential(1.0 / rate, n))


@pytest.fixture
def branches(monkeypatch):
    """Names of the kernel branches that ran, in call order."""
    ran = []
    for name in ("_add_pairs", "_add_edges"):
        branch = getattr(_kernels, name)

        def spy(*args, _branch=branch, _name=name):
            ran.append(_name)
            return _branch(*args)

        monkeypatch.setattr(_kernels, name, spy)
    return ran


@pytest.fixture
def edge_counts(monkeypatch):
    """(path, number of keys) of every count through a cell table, in call
    order.

    "bucket" is an edge's count through the block's cell table, "search"
    the table's binary search of the keys still advancing after the last
    pass.
    """
    ran = []
    for owner, name, path in ((_kernels._CellTable, "below", "bucket"),
                              (_kernels._CellTable, "_search", "search")):
        count = getattr(owner, name)

        def spy(table, keys, *work, _count=count, _path=path):
            ran.append((_path, keys.size))
            return _count(table, keys, *work)

        monkeypatch.setattr(owner, name, spy)
    return ran


@pytest.fixture
def table_calls(monkeypatch):
    """("table", partners) of every ``_CellTable`` constructed and
    ("below", keys) of every edge counted through a table, in order."""
    ran = []
    init = _kernels._CellTable.__init__
    below = _kernels._CellTable.below

    def init_spy(table, bs, *args):
        ran.append(("table", bs.size))
        init(table, bs, *args)

    def below_spy(table, keys, work):
        ran.append(("below", keys.size))
        return below(table, keys, work)

    monkeypatch.setattr(_kernels._CellTable, "__init__", init_spy)
    monkeypatch.setattr(_kernels._CellTable, "below", below_spy)
    return ran


def assert_cell_tables_used(edge_counts):
    """Every block counted through its cell table: each binary search is of
    the few keys left after the passes, fewer than a block's keys."""
    assert any(path == "bucket" for path, _ in edge_counts)
    keys = max(n for path, n in edge_counts if path == "bucket")
    assert all(n < keys for path, n in edge_counts if path == "search")


def assert_matches_reference(a, b, bin_width, m_max):
    got = coincidence_histogram(a, b, bin_width, m_max)
    expected = per_edge_reference(a, b, bin_width, m_max)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)
    return got


class TestAgainstBruteForce:
    def test_cross_random(self):
        rng = np.random.default_rng(0)
        a = np.sort(rng.uniform(0.0, 5000.0, 300))
        b = np.sort(rng.uniform(0.0, 5000.0, 250))
        expected = brute_force(a, b, 7.0, 12)
        got = coincidence_histogram(a, b, 7.0, 12)
        assert np.array_equal(got, expected)

    def test_auto_random(self):
        rng = np.random.default_rng(1)
        t = np.sort(rng.uniform(0.0, 2000.0, 400))
        expected = brute_force(t, t, 3.0, 20, exclude_self=True)
        got = coincidence_histogram(t, t, 3.0, 20)
        got[20] -= t.size  # self pairs
        assert np.array_equal(got, expected)

    def test_exact_edge_values(self):
        # 2.5 sits on the lower edge of bin 3 (inclusive); 3.5 is outside
        a = np.array([0.0])
        b = np.array([2.5, 3.4999, 3.5])
        hist = coincidence_histogram(a, b, 1.0, 3)
        assert hist.sum() == 2
        assert hist[3 + 3] == 2

    def test_hand_case(self):
        a = np.array([0.0, 1.0, 3.0])
        expected = brute_force(a, a, 1.0, 3, exclude_self=True)
        got = coincidence_histogram(a, a, 1.0, 3)
        got[3] -= 3
        assert np.array_equal(got, expected)
        # pair separations: +-1, +-2, +-3
        assert expected[3] == 0
        assert expected[3 + 1] == expected[3 - 1] == 1
        assert expected[3 + 2] == expected[3 - 2] == 1
        assert expected[3 + 3] == expected[3 - 3] == 1

    def test_empty_inputs(self):
        out = coincidence_histogram(np.array([]), np.array([1.0]), 1.0, 5)
        assert np.array_equal(out, np.zeros(11, dtype=np.int64))


class TestImplementationAgreement:
    def test_large_random_streams(self):
        rng = np.random.default_rng(7)
        a = np.sort(rng.uniform(0.0, 1e6, 30_000))
        b = np.sort(rng.uniform(0.0, 1e6, 30_000))
        hist = assert_matches_reference(a, b, 5.0, 60)
        assert hist.sum() > 100_000

    # test-size versions of the benchmark's HBT streams: 501 bins of 0.2 ns
    # with ~0.2 pairs per photon, and 21 bins of 1e4 ns with ~100
    @pytest.mark.parametrize("bin_width, m_max, rate_per_ns, branch", [
        (0.2, 250, 2e-3, "_add_pairs"),
        (1e4, 10, 5e-4, "_add_edges"),
    ], ids=["fine", "wide"])
    def test_hbt_streams_both_branches(self, branches, bin_width, m_max,
                                       rate_per_ns, branch):
        rng = np.random.default_rng(11)
        a = poisson_stream(rng, 20_000, rate_per_ns, start=1e9)
        b = poisson_stream(rng, 20_000, rate_per_ns, start=1e9)
        assert_matches_reference(a, b, bin_width, m_max)
        assert_matches_reference(a, a, bin_width, m_max)  # autocorrelation
        assert branches == [branch, branch]

    @pytest.mark.parametrize("span, branch", [
        (20_000, "_add_pairs"), (200, "_add_edges")], ids=["pairs", "edges"])
    def test_duplicate_timestamps(self, branches, span, branch):
        # integer time tags with many repeats; with bins of 2 every odd
        # separation lies exactly on a bin edge
        rng = np.random.default_rng(5)
        t = np.sort(rng.integers(0, span, 3000)).astype(float)
        u = np.sort(rng.integers(0, span, 2000)).astype(float)
        assert_matches_reference(t, u, 2.0, 8)
        assert_matches_reference(t, t, 2.0, 8)
        assert branches == [branch, branch]

    @pytest.mark.parametrize("span_ns, m_max, branch", [
        (1e5, 250, "_add_pairs"), (100.0, 10, "_add_edges")],
        ids=["pairs", "edges"])
    def test_separations_ulps_from_bin_edges(self, branches, span_ns, m_max,
                                             branch):
        # every a has a partner b within 3 ulps of one of its own float64
        # edges a + (k - 0.5)*w, at time tags around 1e9 ns
        w = 0.2
        rng = np.random.default_rng(13)
        a = np.sort(1e9 + rng.uniform(0.0, span_ns, 2000))
        k = rng.integers(-m_max, m_max + 2, a.size)
        nudge = rng.integers(-3, 4, a.size)
        b = a + (k - 0.5) * w
        for step in range(1, 4):
            b = np.where(nudge >= step, np.nextafter(b, np.inf), b)
            b = np.where(nudge <= -step, np.nextafter(b, -np.inf), b)
        # the partner's bin under the comparison rule; floor() misplaces some
        rule_bin = np.where(nudge >= 0, k, k - 1)
        assert np.any(np.floor((b - a) / w + 0.5) != rule_bin)
        assert_matches_reference(a, np.sort(b), w, m_max)
        assert branches == [branch]

    def test_blocks_chunks_and_bursts(self, branches, monkeypatch):
        # small blocks and chunks: sparse blocks take the pair branch, the
        # burst's blocks the per-edge branch, and a burst row's ~60 pairs
        # span two chunks
        monkeypatch.setattr(_kernels, "_BLOCK_ROWS", 500)
        monkeypatch.setattr(_kernels, "_CHUNK_PAIRS", 50)
        rng = np.random.default_rng(19)
        burst = np.sort(rng.uniform(5e5, 5e5 + 2000.0, 3000))
        a = np.sort(np.concatenate([rng.uniform(0.0, 1e6, 3000), burst]))
        b = np.sort(np.concatenate([rng.uniform(0.0, 1e6, 3000), burst[::2]]))
        assert_matches_reference(a, b, 1.0, 40)
        assert_matches_reference(b, a, 1.0, 400)
        assert {"_add_pairs", "_add_edges"} <= set(branches)

    def test_peak_memory_bounded(self, branches):
        # ~8e6 pairs in 1001 bins: the pairs are expanded a chunk at a time,
        # so the traced peak stays far below one array of all pairs (64 MB)
        rng = np.random.default_rng(17)
        a = poisson_stream(rng, 200_000, 0.2)
        b = poisson_stream(rng, 200_000, 0.2)
        tracemalloc.start()
        try:
            hist = coincidence_histogram(a, b, 0.2, 500)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert set(branches) == {"_add_pairs"}
        assert hist.sum() > 5_000_000
        assert peak < 16e6, f"kernel peak {peak / 1e6:.1f} MB"

    def test_peak_memory_bounded_edges(self, edge_counts):
        # an hbt_wide-size stream (5e5 + 5e5 photons, ~100 partners each):
        # the cell table covers one block's partners, 16 B each, so the
        # traced peak (5.0 MB) stays below a table over all of b (8 MB)
        rng = np.random.default_rng(23)
        a = poisson_stream(rng, 500_000, 5e-4, start=1e9)
        b = poisson_stream(rng, 500_000, 5e-4, start=1e9)
        tracemalloc.start()
        try:
            hist = coincidence_histogram(a, b, 1e4, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert_cell_tables_used(edge_counts)
        assert hist.sum() > 50_000_000
        assert peak < 6e6, f"kernel peak {peak / 1e6:.1f} MB"

    def test_peak_memory_bounded_sparse(self, table_calls, branches):
        # an hbt_fine-size stream (5e4 + 5e4 photons, ~0.2 partners per
        # row): one sparse block, windows advanced a chunk of rows at a
        # time and its pairs binned, no table
        rng = np.random.default_rng(43)
        a = poisson_stream(rng, 50_000, 2e-3, start=1e6)
        b = poisson_stream(rng, 50_000, 2e-3, start=1e6)
        tracemalloc.start()
        try:
            hist = coincidence_histogram(a, b, 0.2, 250)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table_calls == [] and branches == ["_add_pairs"]
        assert hist.sum() > 5_000
        assert peak < 1.4e6, f"kernel peak {peak / 1e6:.2f} MB"

    def test_one_table_per_dense_block(self, table_calls, branches):
        # an hbt_wide-size stream, ~5 partners per bin width: each block
        # builds one table and counts all 2*m_max + 2 edges of all its rows
        # through it, the two outer ones first
        rng = np.random.default_rng(41)
        a = poisson_stream(rng, 300_000, 5e-4, start=1e9)
        b = poisson_stream(rng, 300_000, 5e-4, start=1e9)
        assert_matches_reference(a, b, 1e4, 10)
        rows = [min(_kernels._BLOCK_ROWS, a.size - r)
                for r in range(0, a.size, _kernels._BLOCK_ROWS)]
        assert len(rows) > 1
        assert [name for name, _ in table_calls] \
            == (["table"] + ["below"] * (2 * 10 + 2)) * len(rows)
        assert [n for name, n in table_calls if name == "below"] \
            == [n for n in rows for _ in range(2 * 10 + 2)]
        assert branches == ["_add_edges"] * len(rows)

    def test_no_table_for_sparse_blocks(self, table_calls, branches):
        # a criterion-7/hbt_fine-size stream, ~4e-4 partners per bin width:
        # windows by binary search, pairs binned, no table (the "fine"
        # stream above checks such histograms against the reference)
        rng = np.random.default_rng(43)
        a = poisson_stream(rng, 50_000, 2e-3, start=1e6)
        b = poisson_stream(rng, 50_000, 2e-3, start=1e6)
        assert coincidence_histogram(a, b, 0.2, 250).sum() > 0
        assert table_calls == []
        assert set(branches) == {"_add_pairs"}

    def test_sparse_block_of_dense_rows_builds_for_edges(self, table_calls,
                                                         branches):
        # two bursts far apart: the block's partners average fewer than one
        # per bin width, but each row has many, so the edge branch runs and
        # builds its table after the windows, for the interior edges alone
        rng = np.random.default_rng(47)
        bursts = [np.sort(rng.uniform(t, t + 50.0, 400)) for t in (0.0, 1e6)]
        a = np.concatenate([burst[::4] for burst in bursts])
        b = np.concatenate(bursts)
        w, m_max = 1.0, 20
        bs = b[(b >= a[0] - (m_max + 0.5) * w) & (b < a[-1] + (m_max + 0.5) * w)]
        assert bs.size * w < bs[-1] - bs[0]
        assert_matches_reference(a, b, w, m_max)
        assert table_calls == [("table", bs.size)] + [("below", a.size)] * (2 * m_max)
        assert branches == ["_add_edges"]

    def test_dense_block_with_few_pairs(self, table_calls, branches):
        # a burst of partners between two groups of rows that it does not
        # reach, and one partner near the second group: the block averages
        # about 20 partners per bin width, but its outer counts give fewer
        # pairs than its 12 edges x 20 rows, so its windows are searched and
        # its pairs binned
        rng = np.random.default_rng(89)
        a = np.concatenate([np.sort(rng.uniform(0.0, 10.0, 10)),
                            np.sort(rng.uniform(90.0, 100.0, 10))])
        b = np.concatenate([np.sort(rng.uniform(45.0, 55.0, 200)), [101.0]])
        w, m_max = 1.0, 5
        bs = b[(b >= a[0] - (m_max + 0.5) * w) & (b < a[-1] + (m_max + 0.5) * w)]
        assert bs.size * w > bs[-1] - bs[0]
        hist = assert_matches_reference(a, b, w, m_max)
        assert 0 < hist.sum() <= (2 * m_max + 2) * a.size
        assert table_calls == [("table", bs.size)] + [("below", a.size)] * 2
        assert branches == ["_add_pairs"]

    def test_dense_block_of_few_rows_with_partners(self, table_calls, branches):
        # a dense block whose pairs are fewer than its 12 edges x 100 rows
        # but more than 12 x its 10 rows with a partner: after its windows
        # it counts those rows' interior edges through the table it built
        rng = np.random.default_rng(97)
        a = np.concatenate([np.sort(rng.uniform(0.0, 45.0, 90)),
                            np.sort(rng.uniform(100.0, 110.0, 10))])
        b = np.sort(rng.uniform(100.0, 110.0, 50))
        w, m_max = 1.0, 5
        assert b.size * w > b[-1] - b[0]
        hist = assert_matches_reference(a, b, w, m_max)
        assert (2 * m_max + 2) * 10 < hist.sum() <= (2 * m_max + 2) * a.size
        assert table_calls == ([("table", b.size)] + [("below", a.size)] * 2
                               + [("below", 10)] * (2 * m_max))
        assert branches == ["_add_edges"]

    def test_validation(self):
        one = np.array([0.0])
        for bad in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="bin_width"):
                coincidence_histogram(one, one, bad, 5)
        with pytest.raises(ValueError, match="m_max"):
            coincidence_histogram(one, one, 1.0, -1)
        with pytest.raises(ValueError, match="limit"):
            coincidence_histogram(one, one, 1.0, MAX_BINS // 2 + 1)


class TestBucketedEdgeCount:
    """The per-edge branch's cell table, exact for every block, and its one
    binary search."""

    def test_zero_span_searches(self, edge_counts):
        # all partners of the block at one time tag: the largest float is
        # the cell scale, and every edge is counted through the table
        a = np.linspace(-3.0, 3.0, 40)
        b = np.full(500, 0.25)
        assert_matches_reference(a, b, 1.0, 4)
        assert edge_counts == [("bucket", a.size)] * (2 * 4 + 2)

    def test_cell_scale_overflow_searches(self, edge_counts):
        # partners 2 ulps of 0 apart: 2 cells per partner over that span
        # overflow the quotient to inf, so the scale is the largest float
        b = np.repeat([0.0, 5e-324, 1e-323], 300)
        a = np.linspace(-2.0, 2.0, 30)
        assert_matches_reference(a, b, 1.0, 3)
        assert edge_counts == [("bucket", a.size)] * (2 * 3 + 2)

    def test_overflowing_products_clip(self, edge_counts):
        # a finite but huge scale: (key - bs[0]) * inv overflows to +-inf
        # for keys far off the partners, and the clip keeps cells monotone
        b = np.sort(np.random.default_rng(29).uniform(0.0, 1e-305, 300))
        a = np.linspace(-2.0, 2.0, 30)
        inv = _kernels._CELLS_PER_PARTNER * b.size / (b[-1] - b[0])
        with np.errstate(over="ignore"):
            assert math.isfinite(inv) and np.isinf((a + 3.5 - b[0]) * inv).any()
        assert_matches_reference(a, b, 1.0, 3)
        assert_cell_tables_used(edge_counts)

    def test_crowded_cell_falls_back_after_passes(self, edge_counts):
        # a burst of 200 identical time tags fills one cell: the keys just
        # above it advance past the pass limit and finish by binary search
        rng = np.random.default_rng(31)
        b = np.sort(np.concatenate([rng.uniform(0.0, 1000.0, 400),
                                    np.full(200, 500.0)]))
        a = np.sort(rng.uniform(0.0, 1000.0, 300))
        assert_matches_reference(a, b, 1.0, 40)
        assert_matches_reference(b, b, 1.0, 40)
        assert_cell_tables_used(edge_counts)
        assert any(path == "search" for path, _ in edge_counts)

    def test_negative_tags_and_keys_outside_partners(self, edge_counts):
        # negative time tags; the first rows' low edges lie below bs[0] and
        # the last rows' high edges above bs[-1]
        rng = np.random.default_rng(37)
        a = np.sort(rng.uniform(-2.4e4, -6e3, 2000))
        b = np.sort(rng.uniform(-2e4, -1e4, 3000))
        w, m_max = 400.0, 12
        keys = a + (np.arange(-m_max + 1, m_max + 1)[:, None] - 0.5) * w
        assert keys.min() < b[0] and keys.max() > b[-1]
        assert_matches_reference(a, b, w, m_max)
        assert_matches_reference(b, a, w, m_max)
        assert_cell_tables_used(edge_counts)


# time tags near each offset; at 0 a few ulps are subnormal, at +-1.5e308
# two tags of opposite sign are further apart than the largest float
_OFFSETS = [0.0, -7.0, 1e9, 1e15, -1e15, 1e307, -1e307, 1.5e308]


@st.composite
def degenerate_streams(draw):
    """(a, b, bin_width, m_max): sorted streams whose partners span zero
    time, a few ulps or integer steps, with duplicate and negative tags."""
    offset = draw(st.sampled_from(_OFFSETS))
    ulp = np.spacing(abs(offset))
    w = draw(st.sampled_from([1e-3, 0.5, 1.0, 2.0])) * max(1.0, ulp)
    m_max = draw(st.integers(0, 5))

    def stream(kind, n):
        steps = np.array(draw(st.lists(st.integers(-3, 3), min_size=n,
                                       max_size=n)), dtype=float)
        if kind == "zero":
            t = np.full(n, offset)
        elif kind == "ulps":
            t = offset + steps * ulp
        elif kind == "steps":
            t = offset + steps * (w / 2.0)
        else:  # both signs: at 1.5e308 their span overflows to inf
            t = np.copysign(offset, steps) + steps * ulp
        return np.sort(t)

    kinds = st.sampled_from(["zero", "ulps", "steps", "signs"])
    b = stream(draw(kinds), draw(st.integers(1, 40)))
    a = b if draw(st.booleans()) else stream(draw(kinds), draw(st.integers(1, 12)))
    return a, b, w, m_max


def test_degenerate_spans_match_reference():
    # zero, subnormal, few-ulp and overflowing partner spans, through both
    # branches: every block's cell table counts exactly
    ran = set()

    @settings(max_examples=300, deadline=None)
    @given(streams=degenerate_streams())
    @example(streams=(np.zeros(3), np.zeros(40), 1.0, 2))        # edges
    @example(streams=(np.zeros(3), np.array([0.0, 5e-324]), 1.0, 2))  # pairs
    @example(streams=(np.array([-1.5e308, 1.5e308]),                   # inf span
                      np.array([-1.5e308] + [1.5e308] * 40), 1e293, 1))
    def check(streams):
        with mock.patch.object(_kernels, "_add_pairs", wraps=_kernels._add_pairs) as pairs, \
                mock.patch.object(_kernels, "_add_edges", wraps=_kernels._add_edges) as edges:
            assert_matches_reference(*streams)
        ran.update(name for name, spy in (("pairs", pairs), ("edges", edges))
                   if spy.called)

    check()
    assert ran == {"pairs", "edges"}


@pytest.fixture
def thread_starts(monkeypatch):
    """Every thread started, in order."""
    started = []
    start = threading.Thread.start

    def spy(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    return started


@pytest.fixture(scope="module")
def wide_stream():
    """An hbt_wide-size stream (5e5 + 5e5 photons, ~5 partners per bin
    width of 1e4 ns, 21 bins) and its reference histogram."""
    rng = np.random.default_rng(71)
    a = poisson_stream(rng, 500_000, 5e-4, start=1e9)
    b = poisson_stream(rng, 500_000, 5e-4, start=1e9)
    return a, b, per_edge_reference(a, b, 1e4, 10)


class TestThreadedEdges:
    """A dense block's interior edges dealt out to ``_WORKERS`` threads: any
    worker count gives the reference histogram, bit for bit."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_hbt_wide_stream(self, monkeypatch, wide_stream, edge_counts,
                             thread_starts, workers):
        # 3 workers on at most 2 cores, and a short switch interval, so
        # that the threads interleave often
        monkeypatch.setattr(_kernels, "_WORKERS", workers)
        a, b, expected = wide_stream
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            got = coincidence_histogram(a, b, 1e4, 10)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got, expected)
        blocks = -(-a.size // _kernels._BLOCK_ROWS)
        assert len(thread_starts) == (workers - 1) * blocks
        assert not any(thread.is_alive() for thread in thread_starts)
        # each of a block's 22 edges, 2 outer and 20 interior, is one count
        # of all its rows' keys, whichever thread ran it
        keys = [n for path, n in edge_counts if path == "bucket"]
        assert len(keys) == 22 * blocks
        assert all(keys.count(n) % 22 == 0 for n in keys)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_degenerate_spans(self, monkeypatch, thread_starts, workers):
        # the degenerate streams below, every dense block threaded; m_max = 0
        # leaves no interior edge to deal out
        monkeypatch.setattr(_kernels, "_WORKERS", workers)
        monkeypatch.setattr(_kernels, "_THREAD_MIN_ROWS", 1)

        @settings(max_examples=100, deadline=None)
        @given(streams=degenerate_streams())
        @example(streams=(np.zeros(3), np.zeros(40), 1.0, 0))
        @example(streams=(np.zeros(3), np.zeros(40), 1.0, 2))
        @example(streams=(np.array([-1.5e308, 1.5e308]),
                          np.array([-1.5e308] + [1.5e308] * 40), 1e293, 1))
        def check(streams):
            assert_matches_reference(*streams)

        check()
        assert (len(thread_starts) > 0) == (workers > 1)

    @pytest.mark.parametrize("thread", ["helper", "caller"])
    def test_exception_joins_every_thread(self, monkeypatch, thread):
        # a count that fails in one thread: the caller raises it once every
        # helper has been joined
        # (the caller counts the outer edges before any helper starts, so
        # only the counts dealt out to the threads fail)
        monkeypatch.setattr(_kernels, "_WORKERS", 2)
        caller = threading.current_thread()
        below = _kernels._CellTable.below
        run = _kernels._run
        dealt = []

        def failing(table, keys, work):
            if dealt and (threading.current_thread() is caller) == (thread == "caller"):
                raise RuntimeError(f"{thread} failed")
            return below(table, keys, work)

        def run_spy(job, workers):
            dealt.append(workers)
            return run(job, workers)

        monkeypatch.setattr(_kernels._CellTable, "below", failing)
        monkeypatch.setattr(_kernels, "_run", run_spy)
        rng = np.random.default_rng(73)
        a = poisson_stream(rng, 20_000, 5e-4, start=1e9)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"^{thread} failed$"):
            coincidence_histogram(a, a, 1e4, 10)
        assert dealt == [2]
        assert threading.active_count() == before

    @pytest.mark.parametrize("rows, rate_per_ns, bin_width, m_max, branch", [
        (50_000, 2e-3, 0.2, 250, "_add_pairs"),  # hbt_fine / criterion 7
        (5_000, 5e-4, 1e4, 10, "_add_edges"),    # a small dense block
    ], ids=["fine", "small"])
    def test_no_thread_for_sparse_or_small_blocks(
            self, monkeypatch, branches, thread_starts, rows, rate_per_ns,
            bin_width, m_max, branch):
        monkeypatch.setattr(_kernels, "_WORKERS", 2)
        rng = np.random.default_rng(79)
        a = poisson_stream(rng, rows, rate_per_ns, start=1e9)
        b = poisson_stream(rng, rows, rate_per_ns, start=1e9)
        assert coincidence_histogram(a, b, bin_width, m_max).sum() > 0
        assert set(branches) == {branch}
        assert thread_starts == []

    def test_no_thread_for_sparse_block_of_dense_rows(
            self, monkeypatch, table_calls, branches, thread_starts):
        # two bursts far apart: a sparse block of many rows, each with many
        # partners, counts its edges on the calling thread alone
        monkeypatch.setattr(_kernels, "_WORKERS", 2)
        rng = np.random.default_rng(83)
        bursts = [np.sort(rng.uniform(t, t + 2000.0, 40_000)) for t in (0.0, 1e7)]
        a = np.concatenate([burst[::2] for burst in bursts])
        b = np.concatenate(bursts)
        assert a.size >= _kernels._THREAD_MIN_ROWS
        assert_matches_reference(a, b, 1.0, 20)
        assert [name for name, _ in table_calls] == ["table"] + ["below"] * 40
        assert branches == ["_add_edges"]
        assert thread_starts == []


class TestCounter:
    """``_Counter``: two streams added in pieces, each up to an end at or
    below every later tag, give ``coincidence_histogram`` of the whole
    streams, bit for bit."""

    @staticmethod
    def pieces(rng, a, b, n_pieces):
        """(a piece, b piece, end) up to random ends, the last with no end:
        some pieces empty, some tags on an end (they belong to the next)."""
        ends = np.sort(rng.choice(np.concatenate([a, b]), n_pieces - 1))
        ends[1] = ends[2] = ends[3]  # two empty pieces
        lo = -np.inf
        for end in list(ends) + [np.inf]:
            yield (a[(a >= lo) & (a < end)], b[(b >= lo) & (b < end)],
                   float(end))
            lo = end

    @pytest.mark.parametrize("block_rows", [7, 64, 1 << 16])
    @pytest.mark.parametrize("bin_width, m_max", [
        (0.5, 3),       # sparse: the pair branch
        (20.0, 40),     # windows over many pieces
        (1e3, 10)])     # dense: the per-edge branch
    @pytest.mark.parametrize("space", [False, True])
    def test_pieces_equal_whole(self, monkeypatch, block_rows, bin_width,
                                m_max, space):
        monkeypatch.setattr(_kernels, "_BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(block_rows + m_max)
        a = np.sort(np.round(rng.uniform(0.0, 2e4, 3000), 1))
        b = np.sort(np.concatenate([a[::3], np.round(rng.uniform(0.0, 2e4, 2000), 1)]))
        counter = _kernels._Counter(bin_width, m_max)
        for piece_a, piece_b, end in self.pieces(rng, a, b, 40):
            if space:  # written where the counter takes it without a copy
                into_a, into_b = counter.space(piece_a.size, piece_b.size)
                into_a[:], into_b[:] = piece_a, piece_b
                piece_a, piece_b = into_a, into_b
            else:  # the caller's arrays, overwritten once added
                piece_a, piece_b = piece_a.copy(), piece_b.copy()
            counter.add(piece_a, piece_b, end)
            if not space:
                piece_a.fill(-1.0)
                piece_b.fill(-1.0)
        assert counter.rows.size == counter.partners.size == 0
        expected = per_edge_reference(a, b, bin_width, m_max)
        assert expected.sum() > 0
        assert np.array_equal(counter.hist, expected)
        assert np.array_equal(coincidence_histogram(a, b, bin_width, m_max),
                              expected)

    def test_rows_counted_in_whole_blocks(self, monkeypatch, branches):
        # rows are counted once their upper outer edge is at or below the
        # end, a whole block at a time: by the end 25.5 rows 0..23 are
        # ready, 2 blocks of 10 rows; the rest with no end
        monkeypatch.setattr(_kernels, "_BLOCK_ROWS", 10)
        a = np.arange(40.0)
        counter = _kernels._Counter(1.0, 2)
        counter.add(a[:30], a[:30], 25.5)
        assert counter.rows.tolist() == a[20:30].tolist()
        assert counter.partners[0] == 18.0  # the first at or above 17.5,
        # the lower outer edge of row 20
        assert counter.hist.sum() == 20 * 5 - 3  # rows 0..19, 5 bins each
        counter.add(a[30:], a[30:])
        assert len(branches) == 4
        assert np.array_equal(counter.hist,
                              coincidence_histogram(a, a, 1.0, 2))


class TestCellTablePositions:
    """``_CellTable.below`` sums the keys' positions in bs,
    ``np.searchsorted(bs, keys, side="left")``."""

    @staticmethod
    def assert_below(bs, keys):
        buffers = _kernels._Buffers()
        table = _kernels._CellTable(bs, keys.size + 100, buffers)
        work = _kernels._work(buffers, 0, keys.size)
        expected = np.searchsorted(bs, keys, side="left")
        assert table.below(keys, work) == expected.sum()
        return table, work, expected

    def test_keys_outside_and_inside(self):
        rng = np.random.default_rng(53)
        bs = np.sort(rng.uniform(1e9, 1e9 + 1e6, 5000))
        keys = rng.uniform(bs[0] - 1e5, bs[-1] + 1e5, 20_000)
        keys[:4] = [bs[0], bs[-1], np.nextafter(bs[0], -np.inf),
                    np.nextafter(bs[-1], np.inf)]
        assert (keys < bs[0]).any() and (keys > bs[-1]).any()
        self.assert_below(bs, keys)
        self.assert_below(bs, np.sort(keys))

    def test_duplicate_tags(self):
        rng = np.random.default_rng(59)
        bs = np.sort(rng.integers(0, 300, 2000)).astype(float)
        keys = np.concatenate([bs, bs + 0.5, bs - 0.5, [-1.0, 300.0]])
        self.assert_below(bs, keys)

    def test_crowded_cell_finishes_by_binary_search(self, edge_counts):
        # 200 identical tags fill one cell: a key just above them lies more
        # than _ADVANCE_PASSES partners past its cell's start
        rng = np.random.default_rng(61)
        bs = np.sort(np.concatenate([rng.uniform(0.0, 1000.0, 400),
                                     np.full(200, 500.0)]))
        keys = np.concatenate([[np.nextafter(500.0, np.inf), 500.0],
                               rng.uniform(-10.0, 1010.0, 500)])
        table, work, expected = self.assert_below(bs, keys)
        advance = expected - table.start[table.cells(keys, work)]
        assert advance.max() > _kernels._ADVANCE_PASSES
        assert ("search", np.count_nonzero(advance > _kernels._ADVANCE_PASSES - 1)) \
            in edge_counts

    def test_negative_tags(self):
        rng = np.random.default_rng(67)
        bs = np.sort(rng.uniform(-2e4, -1e4, 3000))
        keys = rng.uniform(-2.5e4, -5e3, 4000)
        self.assert_below(bs, keys)

    def test_table_is_read_only(self):
        # the threads of a block share its table: a write into it raises
        # instead of racing, and the caller's partners stay writeable
        bs = np.arange(10.0)
        table, _, _ = self.assert_below(bs, bs + 0.5)
        for array in (table.bs, table.start, table.bs_inf):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        assert bs.flags.writeable


class TestAdvance:
    """``_advance(bs, lo, keys)`` is ``np.searchsorted(bs, keys, side="left")``
    for any lo at or below those positions, written over keys."""

    @staticmethod
    def assert_advance(bs, keys, lo):
        expected = np.searchsorted(bs, keys, side="left")
        assert np.all(lo <= expected)
        buffer = keys.copy()
        got = _kernels._advance(bs, lo, buffer)
        assert got.dtype == np.intp and np.shares_memory(got, buffer)
        assert np.array_equal(got, expected)
        return expected - lo

    @staticmethod
    def lows(rng, bs, keys):
        """Every lo from 0 up to each key's position: at it, a few below
        it and anywhere below it."""
        pos = np.searchsorted(bs, keys, side="left")
        return [pos, np.maximum(pos - rng.integers(0, 5, keys.size), 0),
                rng.integers(0, pos + 1)]

    def test_random_sorted_partners(self):
        rng = np.random.default_rng(101)
        for n_bs, n_keys in ((1, 7), (50, 300), (5000, 20_000)):
            bs = np.sort(rng.uniform(1e9, 1e9 + 1e4, n_bs))
            keys = np.sort(rng.uniform(bs[0] - 100.0, bs[-1] + 100.0, n_keys))
            assert (keys < bs[0]).any() and (keys > bs[-1]).any()
            for lo in self.lows(rng, bs, keys):
                self.assert_advance(bs, keys, lo)
                self.assert_advance(bs, keys[::-1].copy(), lo[::-1].copy())

    def test_duplicate_tags(self):
        rng = np.random.default_rng(103)
        bs = np.sort(rng.integers(0, 40, 400)).astype(float)
        keys = np.concatenate([bs, bs + 0.5, bs - 0.5, [-1.0, 40.0, 39.0]])
        for lo in self.lows(rng, bs, keys):
            self.assert_advance(bs, keys, lo)

    def test_infinite_keys_and_partners(self):
        rng = np.random.default_rng(107)
        bs = np.array([-np.inf, -np.inf, -1.0, 0.0, 0.0, 2.0, np.inf, np.inf])
        keys = np.array([-np.inf, -1.0, 0.0, 1.0, 2.0, 3.0, np.inf, -2.0])
        for lo in self.lows(rng, bs, keys):
            self.assert_advance(bs, keys, lo)
        finite = np.array([0.0, 1.0, 2.0])
        keys = np.array([-np.inf, np.inf, np.inf, 1.5])
        for lo in self.lows(rng, finite, keys):
            self.assert_advance(finite, keys, lo)

    def test_keys_past_last_partner(self):
        # lo == bs.size: every comparison is with bs[-1], below the key,
        # so those rows pass every pass and the binary search keeps them
        # at bs.size; rows that reach bs.size from below do the same
        bs = np.array([1.0, 2.0, 3.0])
        keys = np.array([3.5, 4.0, 1e300, np.inf, 3.5, 2.5])
        lo = np.array([3, 3, 3, 3, 0, 1])
        steps = self.assert_advance(bs, keys, lo)
        assert steps.tolist() == [0, 0, 0, 0, 3, 1]

    def test_windows_longer_than_passes(self, monkeypatch):
        # rows advancing more than _ADVANCE_PASSES partners finish by
        # binary search, of those rows' keys alone
        rng = np.random.default_rng(109)
        bs = np.sort(rng.uniform(0.0, 100.0, 2000))
        keys = np.sort(rng.uniform(0.0, 100.0, 3000))
        expected = np.searchsorted(bs, keys, side="left")
        lo = np.maximum(expected - rng.integers(0, 8, keys.size), 0)
        steps = expected - lo
        assert steps.max() > _kernels._ADVANCE_PASSES
        searched = []
        search = np.searchsorted

        def spy(bs, keys, side):
            searched.append(np.size(keys))
            return search(bs, keys, side=side)

        monkeypatch.setattr(np, "searchsorted", spy)
        got = _kernels._advance(bs, lo, keys)
        monkeypatch.undo()
        assert np.array_equal(got, expected)
        assert sum(searched) == np.count_nonzero(steps >= _kernels._ADVANCE_PASSES)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_rows_around_chunk_size(self, offset):
        rng = np.random.default_rng(113)
        n = _kernels._CHUNK + offset
        bs = np.sort(rng.uniform(0.0, 1e4, n // 2))
        keys = np.sort(rng.uniform(-10.0, 1e4 + 10.0, n))
        for lo in self.lows(rng, bs, keys):
            self.assert_advance(bs, keys, lo)

    @pytest.mark.parametrize("rows", [8191, 8192, 8193])
    def test_block_rows_around_chunk_size(self, branches, rows):
        # sparse blocks of rows just under, at and over one chunk: with
        # ~0.2 partners per window, and with ~10, beyond the passes
        rng = np.random.default_rng(rows)
        a = poisson_stream(rng, rows, 2e-3, start=1e6)
        b = poisson_stream(rng, rows, 2e-3, start=1e6)
        assert_matches_reference(a, b, 0.2, 250)
        b = poisson_stream(rng, 60 * rows, 0.1, start=1e6)
        assert_matches_reference(a, b, 0.2, 250)
        assert branches == ["_add_pairs"] * 2
