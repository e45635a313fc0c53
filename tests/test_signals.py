"""Inner products, energy traces, Parseval consistency, taxonomy labels."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperstab import signals
from hyperstab.errors import GridMismatch, TimeOutOfRange
from hyperstab.signals import (
    Signal,
    TaxonomyLabel,
    classify_taxonomy,
    energy_balance_residual,
    energy_trace,
    frequency_energy,
    inner_product,
    input_integral,
    power_balance_residual,
    read_trace_csv,
    read_trace_signals,
    signals_from_trace,
    write_trace_csv,
)

DT = 1e-3


def const(value, T=1.0, dt=DT):
    n = int(round(T / dt)) + 1
    return Signal(dt, np.full(n, float(value)))


def sampled(fn, T, dt=DT):
    t = dt * np.arange(int(round(T / dt)) + 1)
    return Signal(dt, fn(t))


class TestSignal:
    @pytest.mark.parametrize("dt, values, message", [
        (0.0, [1.0, 2.0], "dt must be positive"),
        (1e-3, [1.0], "at least two samples"),
        (1e-3, [1.0, math.nan], "finite"),
        (math.nan, [1.0, 2.0], "dt must be positive and finite"),
        (math.inf, [1.0, 2.0], "dt must be positive and finite"),
    ])
    def test_rejected(self, dt, values, message):
        with pytest.raises(ValueError, match=message):
            Signal(dt, values)


class TestInnerProduct:
    def test_past_the_shorter_record(self):
        with pytest.raises(TimeOutOfRange, match="common duration"):
            inner_product(const(1.0, T=2.0), const(1.0, T=1.0), 1.5)

    def test_unit_square(self):
        u = const(1.0)
        assert inner_product(u, u, 1.0) == pytest.approx(1.0)

    def test_sign(self):
        assert inner_product(const(1.0), const(-1.0), 1.0) == pytest.approx(-1.0)

    def test_decaying_exponential_closed_form(self):
        u = sampled(lambda t: np.exp(-t), 10.0)
        expected = (1.0 - math.exp(-20.0)) / 2.0
        assert inner_product(u, u, 10.0) == pytest.approx(expected, abs=1e-6)

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatch):
            inner_product(const(1.0, dt=1e-3), const(1.0, dt=2e-3), 0.5)

    def test_time_out_of_range(self):
        # a time past the record, and the times with no grid position
        u = const(1.0)
        zero = Signal(u.dt, np.zeros(len(u)))
        for t in (2.0, math.nan, math.inf, -math.inf):
            with pytest.raises(TimeOutOfRange):
                inner_product(u, u, t)
            with pytest.raises(TimeOutOfRange):
                u.truncate(t)
            with pytest.raises(TimeOutOfRange):
                energy_balance_residual(u, u, zero, zero, t)

    def test_truncate_needs_two_samples(self):
        with pytest.raises(TimeOutOfRange):
            const(1.0).truncate(0.0)

    def test_truncation_consistency(self):
        u = sampled(lambda t: np.sin(3 * t), 2.0)
        y = sampled(lambda t: np.cos(t), 2.0)
        t = 1.25
        direct = inner_product(u, y, t)
        truncated = inner_product(u.truncate(t), y.truncate(t))
        assert truncated == pytest.approx(direct, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=-3, max_value=3),
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=0, max_value=999),
    )
    def test_bilinearity(self, alpha, n, seed):
        rng = np.random.default_rng(seed)
        u1 = Signal(DT, rng.standard_normal(n + 2))
        u2 = Signal(DT, rng.standard_normal(n + 2))
        y = Signal(DT, rng.standard_normal(n + 2))
        lhs = inner_product(Signal(DT, alpha * u1.values + u2.values), y)
        rhs = alpha * inner_product(u1, y) + inner_product(u2, y)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=999))
    def test_cauchy_schwarz(self, seed):
        rng = np.random.default_rng(seed)
        u = Signal(DT, rng.standard_normal(64))
        y = Signal(DT, rng.standard_normal(64))
        uu = energy_trace(u, u).E
        yy = energy_trace(y, y).E
        uy = energy_trace(u, y).E
        assert np.all(uy**2 <= uu * yy + 1e-12)


class TestEnergyTrace:
    def test_linear_growth(self):
        trace = energy_trace(const(1.0, T=2.0), const(1.0, T=2.0))
        assert trace.E[0] == 0.0
        assert trace.final == pytest.approx(2.0)
        assert trace.E[1000] == pytest.approx(1.0)

    def test_sin_cos_over_period(self):
        u = sampled(np.sin, 2 * math.pi)
        y = sampled(np.cos, 2 * math.pi)
        assert energy_trace(u, y).final == pytest.approx(0.0, abs=1e-6)

    def test_zero(self):
        z = const(0.0)
        assert np.all(energy_trace(z, z).E == 0.0)

    def test_final_matches_inner_product(self):
        u = sampled(lambda t: np.exp(-t) * np.sin(5 * t), 3.0)
        assert energy_trace(u, u).final == pytest.approx(inner_product(u, u))

    @pytest.mark.parametrize("n", [999, 1000, 1001, 1002, 2001])
    def test_blocks_equal_one_cumsum(self, monkeypatch, n):
        # increments formed in blocks of 1,000 and summed by one cumsum give
        # the bits of one cumsum of the trapezoid increments, and the same
        # taxonomy verdict, on either side of the edges of one and two blocks
        rng = np.random.default_rng(5)
        u = Signal(DT, rng.standard_normal(n))
        y = Signal(DT, 2.0 * u.values + 0.1 * rng.standard_normal(n))

        def one_cumsum(p):
            return np.concatenate(([0.0], np.cumsum((p[1:] + p[:-1]) * (0.5 * DT))))

        verdict = classify_taxonomy(u, y)
        assert TaxonomyLabel.STRONGLY_STRICTLY_PASSIVE in verdict.labels
        monkeypatch.setattr(signals, "BLOCK", 1000)
        assert np.array_equal(energy_trace(u, y).E, one_cumsum(u.values * y.values))
        assert np.array_equal(input_integral(u).values, one_cumsum(u.values))
        assert np.array_equal(input_integral(u, absolute=True).values,
                              one_cumsum(np.abs(u.values)))
        assert classify_taxonomy(u, y) == verdict


class TestFrequencyEnergy:
    def test_rect_pulse(self):
        u = const(1.0, T=1.0)
        assert frequency_energy(u, u) == pytest.approx(1.0, abs=1e-6)

    def test_decaying_exponential(self):
        u = sampled(lambda t: np.exp(-t), 10.0)
        assert frequency_energy(u, u) == pytest.approx(0.5, abs=1e-6)

    def test_full_period_sine(self):
        u = sampled(np.sin, 2 * math.pi)
        assert frequency_energy(u, u) == pytest.approx(math.pi, abs=1e-4)

    def test_matches_time_domain_exactly(self):
        rng = np.random.default_rng(7)
        u = Signal(DT, rng.standard_normal(4096))
        y = Signal(DT, rng.standard_normal(4096))
        te = inner_product(u, y)
        fe = frequency_energy(u, y)
        assert fe == pytest.approx(te, rel=1e-12, abs=1e-12)

    def test_matches_time_domain_around_powers_of_two(self):
        # the FFT length is the least power of two >= n: n = 2^k fills it,
        # 2^k - 1 leaves one zero and 2^k + 1 doubles it
        rng = np.random.default_rng(11)
        for k in (1, 2, 3, 10, 12):
            for n in (2**k - 1, 2**k, 2**k + 1):
                if n < 2:
                    continue
                u = Signal(DT, rng.standard_normal(n))
                y = Signal(DT, rng.standard_normal(n))
                te = inner_product(u, y)
                assert frequency_energy(u, y) == pytest.approx(te, rel=1e-12, abs=1e-12)


class TestBalanceResiduals:
    def test_consistent_triple(self):
        u = const(1.0)
        S = sampled(lambda t: t / 2, 1.0)
        D = sampled(lambda t: t / 2, 1.0)
        r = power_balance_residual(u, u, S, D)
        assert np.max(np.abs(r.values)) < 1e-9
        assert energy_balance_residual(u, u, S, D, 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_missing_storage_shows_up(self):
        u = const(1.0)
        zero = const(0.0)
        r = power_balance_residual(u, u, zero, zero)
        assert np.allclose(r.values, 1.0)
        assert energy_balance_residual(u, u, zero, zero, 1.0) == pytest.approx(1.0)

    def test_pure_dissipation(self):
        u = sampled(lambda t: np.exp(-t), 5.0)
        S = const(0.0, T=5.0)
        D = sampled(lambda t: (1 - np.exp(-2 * t)) / 2, 5.0)
        r = power_balance_residual(u, u, S, D)
        # central-difference error (dt^2/6)|D'''| peaks at 4*dt^2/6 = 6.7e-7
        assert np.max(np.abs(r.values[1:-1])) < 1e-6
        assert energy_balance_residual(u, u, S, D, 5.0) == pytest.approx(0.0, abs=1e-6)

    def test_past_the_shorter_storage(self):
        # S and D cover half of u's record: within it the residual is
        # defined, past it the time is out of range, not an index error
        u = Signal(DT, np.ones(100))
        S = Signal(DT, DT * np.arange(50))
        D = Signal(DT, np.zeros(50))
        assert energy_balance_residual(u, u, S, D, 0.049) == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(TimeOutOfRange, match="common duration"):
            energy_balance_residual(u, u, S, D, 0.08)


class TestTaxonomy:
    def test_unit_record(self):
        u = const(1.0)
        verdict = classify_taxonomy(u, u)
        assert TaxonomyLabel.WEAKLY_STRICTLY_PASSIVE in verdict.labels
        assert TaxonomyLabel.STRONGLY_STRICTLY_PASSIVE in verdict.labels
        assert TaxonomyLabel.POPOV_SATISFIED in verdict.labels
        assert verdict.gamma0_sq == 0.0
        assert verdict.beta_s == pytest.approx(1.0)

    def test_sign_flip(self):
        verdict = classify_taxonomy(const(1.0), const(-1.0))
        assert TaxonomyLabel.WEAKLY_PASSIVE not in verdict.labels
        assert TaxonomyLabel.POPOV_SATISFIED in verdict.labels
        assert verdict.gamma0_sq == pytest.approx(1.0)

    def test_conservative_and_passive(self):
        u = const(1.0, T=2.0)
        S = const(5.0, T=2.0)
        D = sampled(lambda t: t, 2.0)  # dD/dt = u*y = 1
        verdict = classify_taxonomy(u, u, S=S, D=D)
        assert TaxonomyLabel.CONSERVATIVE in verdict.labels
        assert TaxonomyLabel.PASSIVE in verdict.labels
        assert TaxonomyLabel.STRICTLY_PASSIVE in verdict.labels
        assert verdict.beta == pytest.approx(0.0)

    def test_regenerative(self):
        u = const(1.0, T=2.0)
        D = sampled(lambda t: 3.0 * np.exp(-t), 2.0)
        verdict = classify_taxonomy(u, u, D=D)
        assert TaxonomyLabel.REGENERATIVE in verdict.labels
        assert TaxonomyLabel.PASSIVE not in verdict.labels

    def test_inclusion_chain(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            vals = rng.standard_normal(120) + 2.5  # keep u(0) well off zero
            u = Signal(DT, vals)
            labels = classify_taxonomy(u, u).labels
            if TaxonomyLabel.STRONGLY_STRICTLY_PASSIVE in labels:
                assert TaxonomyLabel.WEAKLY_STRICTLY_PASSIVE in labels
            if TaxonomyLabel.WEAKLY_STRICTLY_PASSIVE in labels:
                assert TaxonomyLabel.WEAKLY_PASSIVE in labels
            if TaxonomyLabel.WEAKLY_PASSIVE in labels:
                assert TaxonomyLabel.POPOV_SATISFIED in labels


class TestInputIntegral:
    def test_constant(self):
        u = const(1.0, T=2.0)
        delta = input_integral(u)
        assert delta.values[-1] == pytest.approx(2.0)
        assert np.allclose(delta.values, u.times())

    def test_sign_split(self):
        u = const(-1.0, T=2.0)
        assert input_integral(u).values[-1] == pytest.approx(-2.0)
        assert input_integral(u, absolute=True).values[-1] == pytest.approx(2.0)

    def test_decaying_exponential(self):
        u = sampled(lambda t: np.exp(-t), 5.0)
        delta = input_integral(u)
        expected = 1.0 - np.exp(-u.times())
        assert np.max(np.abs(delta.values - expected)) < 1e-7


class TestTraceRoundTrip:
    def test_csv_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        t = DT * np.arange(100)
        u = rng.standard_normal(100)
        y = rng.standard_normal(100)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, {"t": t, "u": u, "y": y})
        back = read_trace_csv(path)
        assert np.array_equal(back["u"], u)
        assert np.array_equal(back["y"], y)
        signals = signals_from_trace(back)
        assert signals["u"].dt == pytest.approx(DT)

    def test_csv_golden_bytes(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(path, {
            "y": np.array([2.0 / 3.0, -1.5]), "t": np.array([0.0, 0.1]),
            "u": np.array([-0.0, 1e-300]), "E": np.array([1e300, 12345678901234567.0]),
        })
        assert path.read_bytes() == (
            b"t,u,y,E\r\n"
            b"0,-0,0.66666666666666663,1.0000000000000001e+300\r\n"
            b"0.10000000000000001,1e-300,-1.5,12345678901234568\r\n"
        )

    def test_read_in_pieces(self, tmp_path, monkeypatch):
        # rows are read CSV_BLOCK_ROWS at a time; a ragged row in a later block
        # is refused even where only other columns are kept
        monkeypatch.setattr(signals, "CSV_BLOCK_ROWS", 7)
        rng = np.random.default_rng(4)
        t = DT * np.arange(300)
        u, v = rng.standard_normal(300), rng.standard_normal(300)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, {"t": t, "u": u, "v": v})
        back = read_trace_csv(path)
        assert np.array_equal(back["u"], u) and np.array_equal(back["v"], v)
        kept = read_trace_signals(path, ("u",))
        assert kept.keys() == {"u"} and np.array_equal(kept["u"].values, u)
        with pytest.raises(GridMismatch, match="needs columns S"):
            read_trace_signals(path, ("u", "S"))
        text = path.read_text()
        for row in ("0.3,1\n", "0.3,1,1,1\n"):
            path.write_text(text + row)
            with pytest.raises(GridMismatch):
                read_trace_signals(path, ("u",))

    @pytest.mark.parametrize("header, repeated", [
        ("t,u,y,u", "u"), ("t,u,y,t", "t"), ("t,u,u,y", "u"), ("t,u,y,v,v", "v"),
    ])
    def test_column_named_twice_rejected(self, tmp_path, header, repeated):
        # neither the first nor the last column of a repeated name is read,
        # nor is the file when the repeated column is not one of those kept
        path = tmp_path / "trace.csv"
        cells = ",".join(["1"] * header.count(","))
        path.write_text(header + "".join(f"\n{t},{cells}" for t in (0, 0.1, 0.2)))
        for read in (read_trace_csv, lambda p: read_trace_signals(p, ("u", "y"))):
            with pytest.raises(GridMismatch, match=f"column '{repeated}' twice"):
                read(path)

    @pytest.mark.parametrize("bad, message", [
        ("0.1,1", "trace row at line 102 has 2 cells, the header names 3"),
        ("0.1,x,1", "malformed trace row at line 102: '0.1,x,1'"),
    ])
    def test_bad_row_named_by_its_file_line(self, tmp_path, monkeypatch, bad, message):
        # the bad row is in block 15 of 7 rows, 3 rows into it: the error names
        # its line in the file (the header is line 1), not its place in the block
        monkeypatch.setattr(signals, "CSV_BLOCK_ROWS", 7)
        n = 200
        path = tmp_path / "trace.csv"
        write_trace_csv(path, {"t": DT * np.arange(n), "u": np.ones(n), "y": np.ones(n)})
        lines = path.read_text().splitlines(keepends=True)
        lines[101] = bad + "\n"
        path.write_text("".join(lines))
        for read in (read_trace_csv, lambda p: read_trace_signals(p, ("u",))):
            with pytest.raises(GridMismatch, match=message):
                read(path)

    @pytest.mark.parametrize("n_rows", [7, 14, 15])
    def test_block_edges_and_trailing_blank_lines(self, tmp_path, monkeypatch, n_rows):
        # the last block ends exactly at the end of the file (7, 14 rows), or
        # holds one row (15); trailing blank lines may fill a block of their own
        monkeypatch.setattr(signals, "CSV_BLOCK_ROWS", 7)
        t = DT * np.arange(n_rows)
        u = np.cos(t)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, {"t": t, "u": u})
        text = path.read_text()
        for tail in ("", "\n", "\n" * 7, "\n" * 9):
            path.write_text(text + tail)
            assert np.array_equal(read_trace_signals(path, ("u",))["u"].values, u)
            assert np.array_equal(read_trace_csv(path)["t"], t)

    def test_columns_of_unequal_length_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        with pytest.raises(ValueError, match="all of one length"):
            write_trace_csv(path, {"t": DT * np.arange(3), "u": np.ones(2)})
        with pytest.raises(ValueError, match="at least one column"):
            write_trace_csv(path, {})

    def test_non_uniform_grid_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,u,y\n0,1,1\n0.1,1,1\n0.3,1,1\n")
        with pytest.raises(GridMismatch):
            signals_from_trace(read_trace_csv(path))

    @pytest.mark.parametrize("times, message", [
        ("nan nan nan", "positive and finite"),
        ("0 inf 1", "positive and finite"),
        ("0 1 inf", "not uniformly spaced"),
        ("0 1 nan", "not uniformly spaced"),
        ("0 inf inf", "positive and finite"),
        ("0 1 1 inf inf", "not uniformly spaced"),
        ("0 -1 -2", "positive and finite"),
        ("-1e308 1e308 2e308", "positive and finite"),
    ])
    def test_non_finite_time_column_rejected(self, tmp_path, times, message):
        # NaN and inf times fail the step tests without a warning
        path = tmp_path / "trace.csv"
        path.write_text("t,u\n" + "".join(f"{t},1\n" for t in times.split()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridMismatch, match=message):
                read_trace_signals(path, ("u",))
