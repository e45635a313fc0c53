"""Uniformly sampled truncated signals, energies and the passivity taxonomy.

A :class:`Signal` is a finite record on ``[0, T]`` sampled every ``dt`` -
the truncation of a longer function, which is what makes finite-time
frequency-domain energy well defined. All integrals use the composite
trapezoidal rule (error ``O(dt^2)``), and the frequency-domain energy is
evaluated so that the discrete Parseval identity reproduces the trapezoidal
time-domain energy exactly: the endpoint samples carry half weight in the
truncated-record quadrature, and splitting that weight as ``sqrt(1/2)`` per
factor keeps both routes aligned to machine precision.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, TimeOutOfRange

PARSEVAL_TOL = 1e-6
_DT_REL_TOL = 1e-9


def _cumtrapz(values: np.ndarray, dt: float) -> np.ndarray:
    """Running trapezoidal integral with a leading zero."""
    out = np.empty(values.size)
    out[0] = 0.0
    np.cumsum((values[1:] + values[:-1]) * (0.5 * dt), out=out[1:])
    return out


@dataclass(frozen=True)
class Signal:
    """Real-valued samples at t = 0, dt, 2*dt, ..."""

    dt: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("a signal needs at least two samples")
        if not np.all(np.isfinite(vals)):
            raise ValueError("signal samples must be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size

    @property
    def duration(self) -> float:
        return self.dt * (self.values.size - 1)

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.values.size)

    def index_of(self, t: float) -> int:
        """Grid index of time t (snapped to the nearest sample)."""
        k = int(round(t / self.dt))
        if t < -1e-12 or k > self.values.size - 1:
            if abs(t - self.duration) <= 1e-9 * max(1.0, self.duration):
                return self.values.size - 1
            raise TimeOutOfRange(f"t={t} outside [0, {self.duration}]")
        return max(k, 0)

    def truncate(self, t: float) -> "Signal":
        """The record up to time t - the finite-time truncation."""
        k = self.index_of(t)
        if k < 1:
            raise TimeOutOfRange("truncation needs at least two samples")
        return Signal(self.dt, self.values[: k + 1])


def _check_grids(*signals: Signal) -> None:
    dt0 = signals[0].dt
    for s in signals[1:]:
        if abs(s.dt - dt0) > _DT_REL_TOL * dt0:
            raise GridMismatch(f"sample steps differ: {dt0} vs {s.dt}")


def _common_length(*signals: Signal) -> int:
    return min(s.values.size for s in signals)


def inner_product(u: Signal, y: Signal, t: float | None = None) -> float:
    """<u, y>_t, the time integral of u*y over [0, t] (full record by default)."""
    _check_grids(u, y)
    n = _common_length(u, y)
    if t is None:
        k = n - 1
    else:
        k = u.index_of(t)
        if k > n - 1:
            raise TimeOutOfRange(f"t={t} beyond the common duration")
    prod = u.values[: k + 1] * y.values[: k + 1]
    return float(np.trapezoid(prod, dx=u.dt))


@dataclass(frozen=True)
class EnergyTrace:
    """Cumulative <u, y>_t on the sample grid; E(0) = 0."""

    times: np.ndarray
    E: np.ndarray

    @property
    def final(self) -> float:
        return float(self.E[-1])

    @property
    def gamma0_sq(self) -> float:
        """The record's Popov constant: the least gamma0^2 with E >= -gamma0^2."""
        return max(0.0, -float(np.min(self.E)))

    def at(self, t: float) -> float:
        k = int(round(t / (self.times[1] - self.times[0])))
        return float(self.E[min(max(k, 0), self.E.size - 1)])


def energy_trace(u: Signal, y: Signal) -> EnergyTrace:
    _check_grids(u, y)
    n = _common_length(u, y)
    prod = u.values[:n] * y.values[:n]
    return EnergyTrace(times=u.dt * np.arange(n), E=_cumtrapz(prod, u.dt))


def frequency_energy(u: Signal, y: Signal, padding: int = 4) -> float:
    """(2*pi)^-1 * integral of u_hat(jw) * conj(y_hat(jw)) over the sampled band.

    The transforms are taken by FFT of the zero-padded records. Endpoint
    samples are scaled by sqrt(1/2) so the discrete Parseval sum reproduces
    the trapezoidal time-domain inner product; the padding does not change
    the value but gives the spectra a usable frequency resolution.
    """
    _check_grids(u, y)
    n = _common_length(u, y)
    if padding < 1:
        raise ValueError("padding factor must be >= 1")
    m = 1 << max(int(math.ceil(math.log2(padding * n))), 1)
    w = np.ones(n)
    w[0] = w[-1] = math.sqrt(0.5)
    a = np.fft.rfft(u.values[:n] * w, m) * u.dt
    b = np.fft.rfft(y.values[:n] * w, m) * u.dt
    cross = a * np.conj(b)
    # m is even, so the last bin is the Nyquist one and counts once
    total = cross[0].real + 2.0 * np.sum(cross[1:-1].real) + cross[-1].real
    return float(total / (m * u.dt))


def power_balance_residual(u: Signal, y: Signal, S: Signal, D: Signal) -> Signal:
    """Pointwise residual u*y - dS/dt - dD/dt with central differences."""
    _check_grids(u, y, S, D)
    n = min(_common_length(u, y), _common_length(S, D))
    dS = np.gradient(S.values[:n], u.dt)
    dD = np.gradient(D.values[:n], u.dt)
    return Signal(u.dt, u.values[:n] * y.values[:n] - dS - dD)


def energy_balance_residual(
    u: Signal, y: Signal, S: Signal, D: Signal, t: float
) -> float:
    """<u,y>_t - [S(t) + D(t) - S(0) - D(0)]."""
    _check_grids(u, y, S, D)
    k = u.index_of(t)
    stored = (S.values[k] + D.values[k]) - (S.values[0] + D.values[0])
    return inner_product(u, y, t) - float(stored)


class TaxonomyLabel(str, enum.Enum):
    REGENERATIVE = "Regenerative"
    PASSIVE = "Passive"
    STRICTLY_PASSIVE = "StrictlyPassive"
    WEAKLY_PASSIVE = "WeaklyPassive"        # synonym: Positive
    WEAKLY_STRICTLY_PASSIVE = "WeaklyStrictlyPassive"
    STRONGLY_STRICTLY_PASSIVE = "StronglyStrictlyPassive"
    CONSERVATIVE = "Conservative"
    POPOV_SATISFIED = "PopovSatisfied"


@dataclass(frozen=True)
class TaxonomyVerdict:
    labels: frozenset[TaxonomyLabel]
    beta: float
    gamma0_sq: float
    beta_s: float | None = None

    def to_report(self, residual_max: float | None = None) -> dict:
        return {
            "labels": sorted(l.value for l in self.labels),
            "beta": self.beta,
            "gamma0_sq": self.gamma0_sq,
            "residual_max": residual_max,
        }


@dataclass(frozen=True)
class PopovAudit:
    satisfied: bool
    gamma0_sq: float
    finite_horizon_estimate: bool
    min_energy: float
    min_time: float


def popov_audit(v: Signal, y: Signal) -> PopovAudit:
    """Tightest finite-horizon constant gamma0^2 with <v,y>_t >= -gamma0^2.

    A finite record always yields a finite minimum, so ``satisfied`` is True
    with the estimate flagged as finite-horizon: a record can refute a claimed
    constant or estimate the sharpest one, never prove the unbounded-time
    statement.
    """
    trace = energy_trace(v, y)
    k = int(np.argmin(trace.E))
    return PopovAudit(
        satisfied=True,
        gamma0_sq=trace.gamma0_sq,
        finite_horizon_estimate=True,
        min_energy=float(trace.E[k]),
        min_time=float(trace.times[k]),
    )


def input_integral(u: Signal, absolute: bool = False) -> Signal:
    """Running integral of u (or of |u| when absolute=True)."""
    vals = np.abs(u.values) if absolute else u.values
    return Signal(u.dt, _cumtrapz(vals, u.dt))


def classify_taxonomy(
    u: Signal,
    y: Signal,
    S: Signal | None = None,
    D: Signal | None = None,
    tol: float = 1e-9,
) -> TaxonomyVerdict:
    """Assign every energy-taxonomy label whose defining inequality holds.

    Storage-based labels (Regenerative, Passive, StrictlyPassive,
    Conservative) are only assigned when the corresponding storage or
    dissipation trace is provided. Strict dissipation may fail on a handful of
    isolated samples - the grid-expressible stand-in for a zero-measure set.
    """
    _check_grids(u, y)
    trace = energy_trace(u, y)
    E, n = trace.E, trace.E.size
    labels: set[TaxonomyLabel] = set()

    labels.add(TaxonomyLabel.POPOV_SATISFIED)  # finite record: finite minimum

    if bool(np.all(E >= -tol)):
        labels.add(TaxonomyLabel.WEAKLY_PASSIVE)
    if bool(np.all(E[1:] > 0.0)):
        labels.add(TaxonomyLabel.WEAKLY_STRICTLY_PASSIVE)

    uu = _cumtrapz(u.values[:n] * u.values[:n], u.dt)
    beta_s: float | None = None
    live = uu > tol
    if np.any(live):
        ratios = E[live] / uu[live]
        beta_s = float(np.min(ratios))
        if beta_s > tol and bool(np.all(E[live] >= beta_s * uu[live] - tol)):
            labels.add(TaxonomyLabel.STRONGLY_STRICTLY_PASSIVE)

    beta = float(np.min(E))
    if S is not None:
        _check_grids(u, S)
        ns = min(n, S.values.size)
        beta = float(np.min(S.values[:ns]) - S.values[0])
        dS = np.gradient(S.values[:ns], u.dt)
        if bool(np.all(np.abs(dS) <= tol)):
            labels.add(TaxonomyLabel.CONSERVATIVE)
    if D is not None:
        _check_grids(u, D)
        nd = min(n, D.values.size)
        dD = np.gradient(D.values[:nd], u.dt)
        if bool(np.all(dD < 0.0)):
            labels.add(TaxonomyLabel.REGENERATIVE)
        if bool(np.all(dD >= -tol)):
            labels.add(TaxonomyLabel.PASSIVE)
        # zero-measure failure set -> at most ceil(10*dt/dt) = 10 grid points
        if int(np.count_nonzero(dD <= 0.0)) <= 10:
            labels.add(TaxonomyLabel.STRICTLY_PASSIVE)

    return TaxonomyVerdict(
        labels=frozenset(labels), beta=beta, gamma0_sq=trace.gamma0_sq, beta_s=beta_s
    )


# --- trace file round trip ---------------------------------------------------

TRACE_COLUMNS = ("t", "u", "y", "v", "S", "D", "E")
# rows formatted by one % operation when writing a trace CSV
CSV_BLOCK_ROWS = 4096


def write_trace_csv(path, columns: dict[str, np.ndarray]) -> None:
    """Write aligned trace columns; 17 significant digits for exact round trips.

    The bytes are those of ``np.savetxt`` with ``fmt="%.17g"``, ``","`` and
    ``"\\r\\n"``, but each block of CSV_BLOCK_ROWS rows is formatted by one
    ``%`` operation instead of one per row.
    """
    names = [c for c in TRACE_COLUMNS if c in columns]
    names += sorted(c for c in columns if c not in TRACE_COLUMNS)
    data = np.column_stack([columns[c] for c in names])
    row = ",".join(["%.17g"] * len(names)) + "\r\n"
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\r\n")
        for start in range(0, len(data), CSV_BLOCK_ROWS):
            block = data[start:start + CSV_BLOCK_ROWS]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def read_trace_csv(path) -> dict[str, np.ndarray]:
    """Read a trace CSV back into named float arrays, one per header name.

    A header-only file and a row whose cell count differs from the header's
    raise GridMismatch.
    """
    with open(path) as fh:
        header = fh.readline()
        if not header:
            raise GridMismatch("empty trace file")
        names = [name.strip() for name in header.split(",")]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on a header-only file
            try:
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as exc:
                raise GridMismatch(f"malformed trace row: {exc}") from None
    if data.shape[0] == 0 or data.shape[1] != len(names):
        raise GridMismatch(
            f"trace rows have {data.shape[1]} cells, the header names {len(names)}"
            if data.size else "trace file has no rows"
        )
    return dict(zip(names, data.T))


def signals_from_trace(columns: dict[str, np.ndarray]) -> dict[str, Signal]:
    """Turn trace columns into Signals using the t column's uniform step."""
    if "t" not in columns:
        raise GridMismatch("trace file has no t column")
    t = columns["t"]
    if t.size < 2:
        raise GridMismatch("trace needs at least two rows")
    steps = np.diff(t)
    dt = float(steps[0])
    if dt <= 0 or np.max(np.abs(steps - dt)) > 1e-9 * max(dt, 1.0):
        raise GridMismatch("trace time column is not uniformly spaced")
    return {
        name: Signal(dt, vals)
        for name, vals in columns.items()
        if name != "t"
    }
