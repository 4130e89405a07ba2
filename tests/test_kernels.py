"""Coincidence kernel against two oracles.

``brute_force`` is the O(N^2) bin definition, floor((b - a)/w + 0.5), for
small inputs away from float64 bin edges. ``per_edge_reference`` is the
earlier per-bin-edge kernel, O(M N log N): it fixes the float64 comparison
rule of the bins, so the kernel must agree with it bit for bit on every
input, including separations a few ulps from an edge at large time tags.
"""

import math
import tracemalloc

import numpy as np
import pytest

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
    """(path, number of keys) of every per-edge count, in call order.

    "bucket" is a count through the block's cell table, "search" a binary
    search: of a whole block's keys where the block has no table, or of the
    keys still advancing after the last pass.
    """
    ran = []
    for owner, name, path in ((_kernels._CellTable, "below", "bucket"),
                              (_kernels, "_search_below", "search")):
        count = getattr(owner, name)

        def spy(*args, _count=count, _path=path):
            ran.append((_path, args[-1].size))
            return _count(*args)

        monkeypatch.setattr(owner, name, spy)
    return ran


@pytest.fixture
def table_calls(monkeypatch):
    """("build", partners) of every ``_CellTable.build`` call and
    ("positions", keys) of every window search through a table, in order."""
    ran = []
    build = _kernels._CellTable.build
    positions = _kernels._CellTable.positions

    def build_spy(bs, n_keys):
        ran.append(("build", bs.size))
        return build(bs, n_keys)

    def positions_spy(table, keys):
        ran.append(("positions", keys.size))
        return positions(table, keys)

    monkeypatch.setattr(_kernels._CellTable, "build", staticmethod(build_spy))
    monkeypatch.setattr(_kernels._CellTable, "positions", positions_spy)
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

    def test_one_table_per_dense_block(self, table_calls, branches):
        # an hbt_wide-size stream, ~5 partners per bin width: each block
        # builds one table, finds both window ends of its rows through it
        # and counts its edges with it
        rng = np.random.default_rng(41)
        a = poisson_stream(rng, 300_000, 5e-4, start=1e9)
        b = poisson_stream(rng, 300_000, 5e-4, start=1e9)
        assert_matches_reference(a, b, 1e4, 10)
        rows = [min(_kernels._BLOCK_ROWS, a.size - r)
                for r in range(0, a.size, _kernels._BLOCK_ROWS)]
        assert len(rows) > 1
        assert [name for name, _ in table_calls] \
            == ["build", "positions", "positions"] * len(rows)
        assert [n for name, n in table_calls if name == "positions"] \
            == [n for n in rows for _ in range(2)]
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
        # builds its table after the windows
        rng = np.random.default_rng(47)
        bursts = [np.sort(rng.uniform(t, t + 50.0, 400)) for t in (0.0, 1e6)]
        a = np.concatenate([burst[::4] for burst in bursts])
        b = np.concatenate(bursts)
        w, m_max = 1.0, 20
        bs = b[(b >= a[0] - (m_max + 0.5) * w) & (b < a[-1] + (m_max + 0.5) * w)]
        assert bs.size * w < bs[-1] - bs[0]
        assert_matches_reference(a, b, w, m_max)
        assert table_calls == [("build", bs.size)]
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
    """The per-edge branch's cell table and its two binary-search fallbacks."""

    def test_zero_span_searches(self, edge_counts):
        # all partners of the block at one time tag: no cell scale
        a = np.linspace(-3.0, 3.0, 40)
        b = np.full(500, 0.25)
        assert_matches_reference(a, b, 1.0, 4)
        assert edge_counts and all(path == "search" for path, _ in edge_counts)
        assert {n for _, n in edge_counts} == {a.size}

    def test_cell_scale_overflow_searches(self, edge_counts):
        # partners 2 ulps of 0 apart: 2 cells per partner over that span
        # overflow the scale to inf
        b = np.repeat([0.0, 5e-324, 1e-323], 300)
        a = np.linspace(-2.0, 2.0, 30)
        assert_matches_reference(a, b, 1.0, 3)
        assert edge_counts and all(path == "search" for path, _ in edge_counts)

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


class TestCellTablePositions:
    """``_CellTable.positions`` is ``np.searchsorted(bs, keys, side="left")``."""

    @staticmethod
    def assert_positions(bs, keys):
        table = _kernels._CellTable.build(bs, keys.size + 100)
        got = table.positions(keys)
        expected = np.searchsorted(bs, keys, side="left")
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        return table, expected

    def test_keys_outside_and_inside(self):
        rng = np.random.default_rng(53)
        bs = np.sort(rng.uniform(1e9, 1e9 + 1e6, 5000))
        keys = rng.uniform(bs[0] - 1e5, bs[-1] + 1e5, 20_000)
        keys[:4] = [bs[0], bs[-1], np.nextafter(bs[0], -np.inf),
                    np.nextafter(bs[-1], np.inf)]
        assert (keys < bs[0]).any() and (keys > bs[-1]).any()
        self.assert_positions(bs, keys)
        self.assert_positions(bs, np.sort(keys))

    def test_duplicate_tags(self):
        rng = np.random.default_rng(59)
        bs = np.sort(rng.integers(0, 300, 2000)).astype(float)
        keys = np.concatenate([bs, bs + 0.5, bs - 0.5, [-1.0, 300.0]])
        self.assert_positions(bs, keys)

    def test_crowded_cell_finishes_by_binary_search(self):
        # 200 identical tags fill one cell: a key just above them lies more
        # than _ADVANCE_PASSES partners past its cell's start
        rng = np.random.default_rng(61)
        bs = np.sort(np.concatenate([rng.uniform(0.0, 1000.0, 400),
                                     np.full(200, 500.0)]))
        keys = np.concatenate([[np.nextafter(500.0, np.inf), 500.0],
                               rng.uniform(-10.0, 1010.0, 500)])
        table, expected = self.assert_positions(bs, keys)
        advance = expected - table.start[table.cells(keys)]
        assert advance.max() > _kernels._ADVANCE_PASSES

    def test_negative_tags(self):
        rng = np.random.default_rng(67)
        bs = np.sort(rng.uniform(-2e4, -1e4, 3000))
        keys = rng.uniform(-2.5e4, -5e3, 4000)
        self.assert_positions(bs, keys)
