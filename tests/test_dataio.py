"""Record validation and file-format round trips."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import g4vlines as g
from g4vlines import dataio
from g4vlines.dataio import DataFormatError
from g4vlines.fitting import data_digest


class TestRecords:
    def test_spectrum_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            g.Spectrum([0.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match=">= 0"):
            g.Spectrum([0.0, 1.0], [1.0, -2.0])
        with pytest.raises(ValueError, match="length"):
            g.Spectrum([0.0, 1.0], [1.0])
        with pytest.raises(ValueError, match="empty"):
            g.Spectrum([], [])
        with pytest.raises(ValueError, match="finite"):
            g.Spectrum([0.0, np.nan], [1.0, 2.0])

    @pytest.mark.parametrize("detunings, counts, message", [
        ([0.0, np.nan], [1.0, 2.0], "detunings contains non-finite values"),
        ([0.0, np.inf], [1.0, 2.0], "detunings contains non-finite values"),
        ([0.0, 1.0], [np.nan, 2.0], "counts contains non-finite values"),
        ([0.0, 1.0], [1.0, -np.inf], "counts contains non-finite values"),
        ([0.0, 1.0, 1.0], [1.0, 2.0, 3.0], "detunings must be strictly increasing"),
        ([0.0, 2.0, 1.0], [1.0, 2.0, 3.0], "detunings must be strictly increasing"),
        ([1e308, -1e308], [1.0, 2.0], "detunings must be strictly increasing"),
        ([0.0, -0.0], [1.0, 2.0], "detunings must be strictly increasing"),
        ([0.0, 1.0], [1.0, -2.0], "counts must be >= 0, got -2\\.0"),
        ([0.0, 1.0], [-5e-324, 0.0], "counts must be >= 0, got -5e-324"),
        ([[0.0, 1.0]], [1.0, 2.0], "detunings must be one-dimensional"),
    ])
    def test_spectrum_messages(self, detunings, counts, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            g.Spectrum(detunings, counts)

    def test_spectrum_accepts_edges(self):
        # a difference that overflows is still positive; -0.0 counts are >= 0
        spec = g.Spectrum([-1e308, 1e308], [-0.0, 0.0])
        assert len(spec) == 2
        assert len(g.Spectrum([1.0], [0.0])) == 1

    def test_decay_trace_uniform_bins(self):
        g.DecayTrace([0.5, 1.5, 2.5], [3, 2, 1])
        with pytest.raises(ValueError, match="uniform"):
            g.DecayTrace([0.5, 1.5, 2.6], [3, 2, 1])
        with pytest.raises(ValueError,
                           match="^bin_centers and counts differ in length$"):
            g.DecayTrace([0.5, 1.5], [3, 2, 1])

    def test_overflowing_spacing_rejected(self):
        # both ended in an overflow RuntimeWarning (an error in this suite)
        with pytest.raises(ValueError, match="^bin spacing must be finite$"):
            g.DecayTrace([-1.7e308, 1.7e308], [1.0, 1.0])
        with pytest.raises(ValueError, match="^tau_bins must be symmetric about zero$"):
            g.CorrelationHistogram([1.7e308, 0.0, 1.7e308], [1.0] * 3, [1] * 3, 1.0)

    def test_correlation_symmetric_bins(self):
        g.CorrelationHistogram([-1.0, 0.0, 1.0], [1.0, 0.1, 1.0],
                               np.array([10, 1, 10]), 10.0)
        with pytest.raises(ValueError, match="symmetric"):
            g.CorrelationHistogram([-1.0, 0.0, 2.0], [1.0, 0.1, 1.0],
                                   np.array([10, 1, 10]), 10.0)
        with pytest.raises(ValueError, match="normalization"):
            g.CorrelationHistogram([-1.0, 0.0, 1.0], [1.0, 0.1, 1.0],
                                   np.array([10, 1, 10]), 0.0)
        with pytest.raises(ValueError, match="^tau_bins, g2 and coincidence_counts "
                                             "differ in length$"):
            g.CorrelationHistogram([-1.0, 0.0, 1.0], [1.0, 0.1, 1.0],
                                   np.array([10, 1]), 10.0)
        with pytest.raises(ValueError, match="^g2 must be >= 0, got -0\\.1$"):
            g.CorrelationHistogram([-1.0, 0.0, 1.0], [1.0, -0.1, 1.0],
                                   np.array([10, 1, 10]), 10.0)


    @pytest.mark.parametrize("counts, normalization, message", [
        ([10, 1, 10], np.nan, "normalization must be positive and finite, got nan"),
        ([10, 1, 10], np.inf, "normalization must be positive and finite, got inf"),
        ([10, 1, 10], "1", "normalization must be positive and finite, got '1'"),
        ([10, 1, 10], True, "normalization must be positive and finite, got True"),
        ([10, 3.5, 10], 10.0, "coincidence_counts must be integers below 2\\*\\*63"),
        ([10, np.nan, 10], 10.0, "coincidence_counts must be integers below 2\\*\\*63"),
        ([10, 2.0 ** 63, 10], 10.0, "coincidence_counts must be integers below 2\\*\\*63"),
        ([10, -2, 10], 10.0, "coincidence_counts must be >= 0, got -2"),
        ([[10, 1, 10]], 10.0, "coincidence_counts must be one-dimensional"),
        (["10", "1", "10"], 10.0, "coincidence_counts must be numbers, got dtype <U2"),
        ([1, [2, 3], 1], 10.0,
         "coincidence_counts must be numbers, got \\[1, \\[2, 3\\], 1\\]"),
    ])
    def test_correlation_messages(self, counts, normalization, message):
        # each of these was kept (3.5 too), or ended in a TypeError or, for
        # the ragged list, in numpy's unnamed ValueError
        with pytest.raises(ValueError, match=f"^{message}$"):
            g.CorrelationHistogram([-1.0, 0.0, 1.0], [1.0, 0.1, 1.0], counts,
                                   normalization)

    def test_correlation_counts_as_int64(self):
        hist = g.CorrelationHistogram([-1.0, 0.0, 1.0], [1.0, 0.1, 1.0],
                                      [10.0, 1.0, 2.0 ** 62], 10)
        assert hist.coincidence_counts.dtype == np.int64
        assert hist.coincidence_counts.tolist() == [10, 1, 2 ** 62]


# any float, including the fractional, negative and past-int64 counts
FLOATS = st.one_of(st.floats(), st.sampled_from([0.5, -2.0, 3.0, 2.0 ** 63, 1e300]))


@st.composite
def columns(draw, n_columns):
    """n_columns columns of one length: any floats, integers, a grid
    symmetric about zero (tau_bins) or a 2-D array; or no column of numbers
    (a dict, an object, an int beyond the float range or a one-element
    list)."""
    n = draw(st.integers(1, 5))
    out = []
    for _ in range(n_columns):
        kind = draw(st.sampled_from(["floats", "integers", "grid", "2-D", "other"]))
        if kind == "other":
            column = draw(st.sampled_from([{}, object(), 10 ** 400, [1.0]]))
        elif kind == "integers":
            column = np.array(draw(st.lists(st.integers(-3, 2 ** 62),
                                            min_size=n, max_size=n)))
        elif kind == "grid":
            column = draw(st.floats(allow_nan=False, allow_infinity=False)) \
                * np.linspace(-1.0, 1.0, n)
        else:
            column = np.array(draw(st.lists(FLOATS, min_size=n, max_size=n)))
            if kind == "2-D":
                column = column.reshape(1, n)
        out.append(column)
    return out


NORMALIZATIONS = st.one_of(FLOATS, st.integers(-2, 5), st.just("1"),
                           st.sampled_from([{}, object(), 10 ** 400, [1.0]]))


def assert_finite_record(record):
    """Every array of record is one-dimensional and finite, and so is a
    correlation's normalization; its counts are int64 and >= 0."""
    arrays = [v for v in vars(record).values() if isinstance(v, np.ndarray)]
    assert arrays and all(a.ndim == 1 and np.isfinite(a).all() for a in arrays)
    if isinstance(record, g.CorrelationHistogram):
        assert record.coincidence_counts.dtype == np.int64
        assert (record.coincidence_counts >= 0).all()
        assert 0 < float(record.normalization) < np.inf


def finite_or_value_error(build):
    """build() with warnings as errors: a finite record, or a ValueError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            record = build()
        except ValueError:
            return
    assert_finite_record(record)


class TestFuzzRecords:
    @given(kind=st.sampled_from(["Spectrum", "DecayTrace"]), cols=columns(2))
    @example(kind="DecayTrace", cols=[np.array([-1.7e308, 1.7e308]), np.ones(2)])
    @example(kind="Spectrum", cols=[{}, [1.0]])
    @example(kind="DecayTrace", cols=[[1.0], 10 ** 400])
    @settings(max_examples=300, deadline=None)
    def test_spectrum_and_decay_trace(self, kind, cols):
        finite_or_value_error(lambda: getattr(g, kind)(*cols))

    @given(cols=columns(3), normalization=NORMALIZATIONS)
    @example(cols=[np.array([-1.0, 0.0, 1.0]), np.ones(3), np.array([1, 3.5, 1])],
             normalization=1.0)
    @example(cols=[np.array([1.7e308, 0.0, 1.7e308]), np.ones(3), np.ones(3)],
             normalization=1.0)
    @example(cols=[np.array([-1.0, 0.0, 1.0]), np.ones(3), np.ones(3)],
             normalization=10 ** 400)
    @example(cols=[np.array([-1.0, 0.0, 1.0]), {}, np.ones(3)], normalization=1.0)
    @settings(max_examples=300, deadline=None)
    def test_correlation_histogram(self, cols, normalization):
        finite_or_value_error(lambda: g.CorrelationHistogram(*cols, normalization))

    def test_load_correlation(self, tmp_path):
        # the same columns and normalizations, written as a file
        path = tmp_path / "g2.csv"

        @given(cols=columns(3), normalization=NORMALIZATIONS)
        @example(cols=[np.array([-1.0, 0.0, 1.0]), np.ones(3),
                       np.array([1, 3.5, 1])], normalization=1.0)
        @example(cols=[np.array([-1.0, 0.0, 1.0]), np.ones(3), np.ones(3)],
                 normalization=np.nan)
        @settings(max_examples=300, deadline=None)
        def check(cols, normalization):
            rows = zip(*(np.ravel(c).tolist() for c in cols))
            path.write_text(f"# normalization={normalization}\n"
                            f"{dataio.CORRELATION_HEADER}\n"
                            + "".join(",".join(map(repr, row)) + "\n" for row in rows))
            finite_or_value_error(lambda: dataio.load_correlation(path))

        check()


class TestSpectrumFiles:
    def test_round_trip_lossless(self, tmp_path):
        rng = np.random.default_rng(1)
        detunings = np.sort(rng.uniform(-200.0, 200.0, 40))
        detunings += np.arange(40) * 1e-9  # ensure strict monotonicity
        counts = rng.uniform(0.0, 1e6, 40)
        counts[0] = 1.0 / 3.0
        counts[1] = 1e-17
        spec = g.Spectrum(detunings, counts,
                          {"temperature_k": 6.2, "scan_index": 3,
                           "emitter": "PbV", "power_nw": 1.0})
        path = tmp_path / "s.csv"
        dataio.save_spectrum(spec, path)
        back = dataio.load_spectrum(path)
        assert np.array_equal(back.detunings, spec.detunings)
        assert np.array_equal(back.counts, spec.counts)
        assert back.meta["temperature_k"] == 6.2
        assert back.meta["scan_index"] == 3
        assert back.meta["emitter"] == "PbV"

    def test_blank_lines_and_uncast_meta(self, tmp_path):
        # blank lines are skipped; a meta value its type cannot parse is
        # kept as the string
        path = tmp_path / "s.csv"
        path.write_text("# temperature_k=warm\n\ndetuning_mhz,counts\n\n"
                        "0.0,1\n1.0,2\n\n")
        back = dataio.load_spectrum(path)
        assert back.meta == {"temperature_k": "warm"}
        assert back.detunings.tolist() == [0.0, 1.0]

    def test_non_monotonic_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("detuning_mhz,counts\n0.0,1\n2.0,1\n1.0,1\n")
        with pytest.raises(DataFormatError, match="non-monotonic"):
            dataio.load_spectrum(path)

    def test_header_only_is_empty_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("detuning_mhz,counts\n")
        with pytest.raises(DataFormatError, match="no data rows"):
            dataio.load_spectrum(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("detuning_mhz,counts\n0.0,1\nnot_a_number,2\n")
        with pytest.raises(DataFormatError, match="bad.csv:3"):
            dataio.load_spectrum(path)
        path.write_text("detuning_mhz,counts\n0.0,1\n1.0,2,3\n")
        with pytest.raises(DataFormatError, match="bad.csv:3: expected 2 "
                                                  "comma-separated values, got 3$"):
            dataio.load_spectrum(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frequency,counts\n0.0,1\n")
        with pytest.raises(DataFormatError, match="expected header"):
            dataio.load_spectrum(path)
        path.write_text("# temperature_k=6.2\n\n")
        with pytest.raises(DataFormatError, match="missing header line"):
            dataio.load_spectrum(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            dataio.load_spectrum(tmp_path / "nope.csv")

    def test_fail_fast_on_invalid_values(self, tmp_path):
        # anything a later fit would choke on is rejected at load time
        path = tmp_path / "bad.csv"
        path.write_text("detuning_mhz,counts\n0.0,1\n1.0,-3\n")
        with pytest.raises(DataFormatError, match=">= 0"):
            dataio.load_spectrum(path)

    @pytest.mark.parametrize("load, header", [
        (dataio.load_spectrum, dataio.SPECTRUM_HEADER),
        (dataio.load_decay_trace, dataio.DECAY_HEADER),
        (dataio.load_correlation, dataio.CORRELATION_HEADER),
        (dataio.load_alpha_points, dataio.ALPHA_HEADER),
        (dataio.load_temperature_series, dataio.TEMPSERIES_HEADER),
    ], ids=["spectrum", "decay", "correlation", "alpha", "tempseries"])
    @pytest.mark.parametrize("token", ["nan", "-inf", "Infinity", "1e400"])
    def test_non_finite_value_reports_line(self, tmp_path, load, header, token):
        path = tmp_path / "bad.csv"
        values = ["1.0"] * (header.count(",") + 1)
        path.write_text("\n".join(["# normalization=1.0", header, ",".join(values),
                                   ",".join([token, *values[1:]])]) + "\n")
        with pytest.raises(DataFormatError,
                           match=f"bad.csv:4: value '{token}' is not finite"):
            load(path)


class TestDecayFiles:
    def test_round_trip(self, tmp_path):
        trace = g.simulate_trpl(4.4, 10_000, bin_width=0.5, t_max=50.0, seed=2)
        path = tmp_path / "t.csv"
        dataio.save_decay_trace(trace, path)
        back = dataio.load_decay_trace(path)
        assert np.array_equal(back.bin_centers, trace.bin_centers)
        assert np.array_equal(back.counts, trace.counts)
        assert back.meta["bin_width_ns"] == 0.5

    def test_non_uniform_bins_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_ns,counts\n0.5,5\n1.5,4\n2.6,3\n")
        with pytest.raises(DataFormatError, match="uniform"):
            dataio.load_decay_trace(path)


class TestCorrelationFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        stream = np.sort(rng.uniform(0, 1e7, 5000))
        hist = g.correlate_stream(stream, bin_width=10.0, tau_max=200.0)
        path = tmp_path / "g2.csv"
        dataio.save_correlation(hist, path)
        back = dataio.load_correlation(path)
        assert np.array_equal(back.tau_bins, hist.tau_bins)
        assert np.array_equal(back.g2, hist.g2)
        assert np.array_equal(back.coincidence_counts, hist.coincidence_counts)
        assert back.normalization == hist.normalization

    @pytest.mark.parametrize("normalization, count, message", [
        ("nan", "1", "normalization must be positive and finite, got nan"),
        ("inf", "1", "normalization must be positive and finite, got inf"),
        ("1e400", "1", "normalization must be positive and finite, got inf"),
        ("ten", "1", "normalization must be positive and finite, got 'ten'"),
        ("10.0", "-2", "coincidence_counts must be >= 0, got -2"),
        ("10.0", "1e300", "coincidence_counts must be integers below 2\\*\\*63"),
    ])
    def test_bad_values_rejected(self, tmp_path, normalization, count, message):
        # nan, inf and -2 used to load; 'ten' ended in a TypeError
        path = tmp_path / "g2.csv"
        path.write_text(f"# normalization={normalization}\n"
                        f"{dataio.CORRELATION_HEADER}\n-1.0,1.0,10\n"
                        f"0.0,0.1,{count}\n1.0,1.0,10\n")
        with pytest.raises(DataFormatError, match=f"^{path}: {message}$"):
            dataio.load_correlation(path)

    def test_fractional_count_named_with_line(self, tmp_path):
        # 3.5 used to load as 3, truncated by the int64 cast
        path = tmp_path / "g2.csv"
        path.write_text(f"# normalization=10.0\n{dataio.CORRELATION_HEADER}\n"
                        "-1.0,1.0,10\n0.0,0.1,3.5\n1.0,1.0,10\n")
        with pytest.raises(DataFormatError,
                           match=f"^{path}:4: coincidence count 3.5 is not an integer$"):
            dataio.load_correlation(path)

    def test_missing_normalization_rejected(self, tmp_path):
        path = tmp_path / "g2.csv"
        path.write_text(f"{dataio.CORRELATION_HEADER}\n-1.0,1.0,10\n"
                        "0.0,0.1,1\n1.0,1.0,10\n")
        with pytest.raises(DataFormatError, match="missing '# normalization=' line"):
            dataio.load_correlation(path)


class TestFitReports:
    def _report(self):
        spec = g.Spectrum(np.linspace(-100, 100, 41),
                          g.lorentzian(np.linspace(-100, 100, 41),
                                       0.0, 40.0, 500.0, 20.0))
        return g.fit_lorentzian(spec)

    def test_round_trip(self, tmp_path):
        report = self._report()
        path = tmp_path / "r.json"
        dataio.emit_fit_report(report, path)
        back = dataio.load_fit_report(path)
        assert back.to_dict() == report.to_dict()

    def test_schema_fields(self, tmp_path):
        report = self._report()
        path = tmp_path / "r.json"
        dataio.emit_fit_report(report, path)
        payload = json.loads(path.read_text())
        for key in ("model", "params", "std_errors", "reduced_chi2",
                    "converged", "warnings", "toolkit_version", "input_digest"):
            assert key in payload
        assert set(payload["params"]) == {"center", "fwhm", "amplitude", "offset"}
        assert payload["toolkit_version"] == g.__version__
        # full float precision survives the JSON round trip
        assert payload["params"]["fwhm"] == report.params["fwhm"]

    def _payload(self, tmp_path):
        path = tmp_path / "r.json"
        dataio.emit_fit_report(self._report(), path)
        return path, json.loads(path.read_text())

    @pytest.mark.parametrize("key, value, message", [
        ("converged", "yes", 'expected true or false, got "yes"'),
        ("reduced_chi2", "x", 'expected a number, got "x"'),
        ("n_iterations", 2.5, "expected an integer, got 2.5"),
        ("params", {"center": True}, "expected a number, got true at 'center'"),
        ("params", {"center": float("nan")}, "center must be finite, got nan"),
        ("units", {"center": 1}, "expected a string, got 1 at 'center'"),
        ("std_errors", [], "expected a JSON object, got list"),
        ("warnings", ["a", 2], 'expected an array of strings, got ["a", 2]'),
        ("input_digest", None, "expected a string, got null"),
        ("toolkit_version", 1, "expected a string, got 1"),
        ("bogus", 1, "unknown key"),
    ], ids=["converged", "reduced_chi2", "n_iterations", "params-bool",
            "params-nan", "units", "std_errors", "warnings", "input_digest",
            "toolkit_version", "unknown"])
    def test_strict_values_rejected(self, tmp_path, key, value, message):
        path, payload = self._payload(tmp_path)
        payload[key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError) as exc:
            dataio.load_fit_report(path)
        assert str(exc.value).startswith(f"{path}: config error at '{key}': ")
        assert message in str(exc.value)

    def test_missing_params_rejected(self, tmp_path):
        path, payload = self._payload(tmp_path)
        del payload["params"]
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError,
                           match="config error at 'params': missing required"):
            dataio.load_fit_report(path)

    def test_root_not_object_rejected(self, tmp_path):
        path, payload = self._payload(tmp_path)
        path.write_text(json.dumps([payload]))
        with pytest.raises(DataFormatError) as exc:
            dataio.load_fit_report(path)
        assert str(exc.value) == (f"{path}: config error at '<root>': "
                                  "expected a JSON object, got list")

    def test_optional_fields(self, tmp_path):
        # std_errors may be null; a report without warnings, derived,
        # input_digest or toolkit_version takes the FitReport defaults
        path, payload = self._payload(tmp_path)
        for key in ("warnings", "derived", "input_digest", "toolkit_version"):
            del payload[key]
        payload["std_errors"] = None
        path.write_text(json.dumps(payload))
        first, second = dataio.load_fit_report(path), dataio.load_fit_report(path)
        assert first.std_errors is None
        assert (first.warnings, first.derived, first.input_digest) == ([], {}, "")
        assert first.warnings is not second.warnings

    def test_digest_stable_and_sensitive(self):
        x = np.linspace(-50, 50, 20)
        y = np.arange(20.0)
        assert data_digest(x, y) == data_digest(x.copy(), y.copy())
        assert data_digest(x, y) != data_digest(x, y + 1.0)


class TestEmitterFiles:
    def test_pbv_preset_file(self, tmp_path):
        path = tmp_path / "pbv.json"
        dataio.save_emitter_file(g.REGISTRY.get("PbV"), path)
        p = dataio.load_emitter_file(path)
        assert (p.f_gs, p.f_es, p.gamma0, p.gamma_others) == (3870.0, 6920.0, 36.2, 2.7)

    def test_inconsistent_pair_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "f_gs": 100.0, "f_es": 300.0,
                                    "lifetime": 4.4, "gamma0": 50.0}))
        with pytest.raises(DataFormatError, match="disagree"):
            dataio.load_emitter_file(path)

    def test_invariant_violation_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "f_gs": -1.0, "f_es": 300.0,
                                    "gamma0": 30.0}))
        with pytest.raises(DataFormatError, match="f_gs"):
            dataio.load_emitter_file(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "gamma0": 30.0}))
        with pytest.raises(DataFormatError, match="missing"):
            dataio.load_emitter_file(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("f_gs: 100")
        with pytest.raises(DataFormatError, match="JSON"):
            dataio.load_emitter_file(path)

    def test_dict_round_trip(self, tmp_path):
        # every preset, its None fields written as null, loads back unchanged
        for name in g.REGISTRY.names():
            p = g.REGISTRY.get(name)
            assert dataio._emitter(p.to_dict()) == p
            dataio.save_emitter_file(p, tmp_path / "p.json")
            assert dataio.load_emitter_file(tmp_path / "p.json") == p

    def test_loader_rejects_unknown_and_missing(self):
        with pytest.raises(ValueError, match="unknown"):
            dataio._emitter({"name": "x", "f_gs": 1.0, "f_es": 2.0,
                             "gamma0": 30.0, "bogus": 1})
        with pytest.raises(ValueError, match="missing"):
            dataio._emitter({"name": "x", "gamma0": 30.0})


class TestAuxLoaders:
    def test_alpha_points(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("splitting_ghz,delta_mhz\n200.0,44.7\n3870.0,435300.0\n")
        pts = dataio.load_alpha_points(path)
        assert pts.shape == (2, 2)
        assert pts[0, 1] == 44.7

    def test_temperature_series(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("temperature_k,linewidth_mhz\n6.0,38.9\n10.0,38.9\n")
        pts = dataio.load_temperature_series(path)
        assert pts.shape == (2, 2)
