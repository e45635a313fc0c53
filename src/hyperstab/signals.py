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
from itertools import islice

import numpy as np

from .errors import GridMismatch, TimeOutOfRange

PARSEVAL_TOL = 1e-6
# slack of the taxonomy's inequalities, and the least int u^2 that beta_s divides by
TAXONOMY_TOL = 1e-9
_DT_REL_TOL = 1e-9
# samples per block of a running integral's increments: its scratch stays this size
BLOCK = 65_536


def _cumtrapz(a: np.ndarray, b: np.ndarray | None, dt: float, start=None) -> np.ndarray:
    """Running trapezoidal integral of a*b (of a when b is None) from a leading
    0.0, or on from ``start`` in its place. The increments are formed BLOCK at
    a time in the array it returns, the only full-length array it makes, and
    summed there by one sequential cumsum from ``start`` or else from the
    first increment: 0.0 + -0.0 would turn a first increment of -0.0 into 0.0."""
    out = np.empty(a.size)
    out[0] = 0.0 if start is None else start
    for k in range(0, a.size - 1, BLOCK):
        p = a[k:k + BLOCK + 1] if b is None else a[k:k + BLOCK + 1] * b[k:k + BLOCK + 1]
        inc = out[k + 1:k + BLOCK + 1]
        np.add(p[1:], p[:-1], out=inc)
        inc *= 0.5 * dt
    first = 1 if start is None else 0
    np.cumsum(out[first:], out=out[first:])
    return out


@dataclass(frozen=True)
class Signal:
    """Real-valued samples at t = 0, dt, 2*dt, ..."""

    dt: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)  # a copy the caller cannot write
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        self._check()

    @classmethod
    def _adopt(cls, dt: float, values: np.ndarray) -> "Signal":
        """A Signal over ``values`` itself: for the package's own fresh float
        arrays, which nothing else writes. Checked and frozen, not copied."""
        signal = object.__new__(cls)
        values.flags.writeable = False
        object.__setattr__(signal, "dt", dt)
        object.__setattr__(signal, "values", values)
        signal._check()
        return signal

    def _check(self) -> None:
        vals = self.values
        if not 0.0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("a signal needs at least two samples")
        if not np.all(np.isfinite(vals)):
            raise ValueError("signal samples must be finite")

    def __len__(self) -> int:
        return self.values.size

    @property
    def duration(self) -> float:
        return self.dt * (self.values.size - 1)

    def times(self) -> np.ndarray:
        # k * dt for each k, as a float array scaled in place: no int64 copy
        t = np.arange(self.values.size, dtype=float)
        t *= self.dt
        return t

    def index_of(self, t: float) -> int:
        """Grid index of time t (snapped to the nearest sample)."""
        r = t / self.dt
        # a time with no finite grid position (nan, inf) lies past the end
        k = int(round(r)) if math.isfinite(r) else self.values.size
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


def _grid_length(*signals: Signal) -> int:
    """The sample count the signals share; GridMismatch if their steps differ."""
    dt0 = signals[0].dt
    for s in signals[1:]:
        if abs(s.dt - dt0) > _DT_REL_TOL * dt0:
            raise GridMismatch(f"sample steps differ: {dt0} vs {s.dt}")
    return min(s.values.size for s in signals)


def _common_index(t: float, *signals: Signal) -> int:
    """Grid index of time t within the record the signals share."""
    n = _grid_length(*signals)
    k = signals[0].index_of(t)
    if k > n - 1:
        raise TimeOutOfRange(f"t={t} beyond the common duration")
    return k


def inner_product(u: Signal, y: Signal, t: float | None = None) -> float:
    """<u, y>_t, the time integral of u*y over [0, t] (full record by default)."""
    k = _grid_length(u, y) - 1 if t is None else _common_index(t, u, y)
    prod = u.values[: k + 1] * y.values[: k + 1]
    return float(np.trapezoid(prod, dx=u.dt))


@dataclass(frozen=True)
class EnergyTrace:
    """Cumulative <u, y>_t at t = 0, dt, 2*dt, ...; E(0) = 0."""

    dt: float
    E: np.ndarray

    @property
    def final(self) -> float:
        return float(self.E[-1])

    @property
    def gamma0_sq(self) -> float:
        """The record's Popov constant: the least gamma0^2 with E >= -gamma0^2."""
        return max(0.0, -float(np.min(self.E)))


def energy_trace(u: Signal, y: Signal) -> EnergyTrace:
    n = _grid_length(u, y)
    return EnergyTrace(dt=u.dt, E=_cumtrapz(u.values[:n], y.values[:n], u.dt))


def frequency_energy(u: Signal, y: Signal) -> float:
    """(2*pi)^-1 * integral of u_hat(jw) * conj(y_hat(jw)) over the sampled band.

    The transforms are FFTs of length m, the least power of two >= n (at
    least 2), of the records padded with zeros: the discrete Parseval sum
    holds at any m >= n, so a longer FFT would not change the value. Endpoint
    samples are scaled by sqrt(1/2) so the sum reproduces the trapezoidal
    time-domain inner product.
    """
    n = _grid_length(u, y)
    m = 1 << max((n - 1).bit_length(), 1)

    def spectrum(s: Signal) -> np.ndarray:
        x = np.zeros(m)
        x[:n] = s.values[:n]
        x[0] *= math.sqrt(0.5)
        x[n - 1] *= math.sqrt(0.5)
        f = np.fft.rfft(x)
        f *= u.dt
        return f

    a = spectrum(u)
    b = spectrum(y)
    # Re(a conj(b)) summed over the bins; m is even, so the last bin is the
    # Nyquist one and counts once, as does bin 0
    edges = a[0].real * b[0].real + a[-1].real * b[-1].real
    total = 2.0 * (np.dot(a.real, b.real) + np.dot(a.imag, b.imag)) - edges
    return float(total / (m * u.dt))


def power_balance_residual(u: Signal, y: Signal, S: Signal, D: Signal) -> Signal:
    """Pointwise residual u*y - dS/dt - dD/dt with central differences."""
    n = _grid_length(u, y, S, D)
    dS = np.gradient(S.values[:n], u.dt)
    dD = np.gradient(D.values[:n], u.dt)
    return Signal(u.dt, u.values[:n] * y.values[:n] - dS - dD)


def energy_balance_residual(
    u: Signal, y: Signal, S: Signal, D: Signal, t: float
) -> float:
    """<u,y>_t - [S(t) + D(t) - S(0) - D(0)]."""
    k = _common_index(t, u, y, S, D)
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


def input_integral(u: Signal, absolute: bool = False) -> Signal:
    """Running integral of u (or of |u| when absolute=True)."""
    vals = np.abs(u.values) if absolute else u.values
    return Signal._adopt(u.dt, _cumtrapz(vals, None, u.dt))


def classify_taxonomy(
    u: Signal,
    y: Signal,
    S: Signal | None = None,
    D: Signal | None = None,
) -> TaxonomyVerdict:
    """Assign every energy-taxonomy label whose defining inequality holds.

    Storage-based labels (Regenerative, Passive, StrictlyPassive,
    Conservative) are only assigned when the corresponding storage or
    dissipation trace is provided. Strict dissipation may fail on a handful of
    isolated samples - the grid-expressible stand-in for a zero-measure set.
    beta_s, the least E / int u^2 where int u^2 > TAXONOMY_TOL, is the largest
    beta with E >= beta int u^2 there: StronglyStrictlyPassive asks beta_s > TAXONOMY_TOL.
    """
    trace = energy_trace(u, y)
    E, n = trace.E, trace.E.size
    labels: set[TaxonomyLabel] = set()

    labels.add(TaxonomyLabel.POPOV_SATISFIED)  # finite record: finite minimum

    beta = float(np.min(E))
    if beta >= -TAXONOMY_TOL:
        labels.add(TaxonomyLabel.WEAKLY_PASSIVE)
    if np.min(E[1:]) > 0.0:
        labels.add(TaxonomyLabel.WEAKLY_STRICTLY_PASSIVE)

    # int u^2 one block at a time, on from the block before: one cumsum's adds
    a, lows, end = u.values[:n], [], None
    for k in range(0, n, BLOCK):
        uu = _cumtrapz(np.square(a[max(k - 1, 0):k + BLOCK]), None, u.dt, end)[1 if k else 0:]
        end, live = uu[-1], uu > TAXONOMY_TOL
        if live.any():
            lows.append(np.min(E[k:k + BLOCK][live] / uu[live]))
    beta_s = float(np.min(lows)) if lows else None
    if lows and beta_s > TAXONOMY_TOL:
        labels.add(TaxonomyLabel.STRONGLY_STRICTLY_PASSIVE)

    if S is not None:
        ns = _grid_length(u, y, S)
        beta = float(np.min(S.values[:ns]) - S.values[0])
        dS = np.gradient(S.values[:ns], u.dt)
        if bool(np.all(np.abs(dS) <= TAXONOMY_TOL)):
            labels.add(TaxonomyLabel.CONSERVATIVE)
    if D is not None:
        nd = _grid_length(u, y, D)
        dD = np.gradient(D.values[:nd], u.dt)
        if bool(np.all(dD < 0.0)):
            labels.add(TaxonomyLabel.REGENERATIVE)
        if bool(np.all(dD >= -TAXONOMY_TOL)):
            labels.add(TaxonomyLabel.PASSIVE)
        # zero-measure failure set -> at most ceil(10*dt/dt) = 10 grid points
        if int(np.count_nonzero(dD <= 0.0)) <= 10:
            labels.add(TaxonomyLabel.STRICTLY_PASSIVE)

    return TaxonomyVerdict(
        labels=frozenset(labels), beta=beta, gamma0_sq=trace.gamma0_sq, beta_s=beta_s
    )


# --- trace file round trip ---------------------------------------------------

TRACE_COLUMNS = ("t", "u", "y", "v", "S", "D", "E")
# rows of a trace CSV formatted by one % operation, and parsed by one loadtxt call
CSV_BLOCK_ROWS = 4096


def write_trace_csv(path, columns: dict[str, np.ndarray]) -> None:
    """Write aligned trace columns; 17 significant digits for exact round trips.

    The bytes are those of ``np.savetxt`` with ``fmt="%.17g"``, ``","`` and
    ``"\\r\\n"``, but each block of CSV_BLOCK_ROWS rows is stacked and
    formatted by one ``%`` operation, so no full-length table is built.
    """
    names = [c for c in TRACE_COLUMNS if c in columns]
    names += sorted(c for c in columns if c not in TRACE_COLUMNS)
    cols = [columns[c] for c in names]
    n_rows = len(cols[0]) if cols else 0
    if not cols or any(len(c) != n_rows for c in cols):
        raise ValueError("a trace needs at least one column, all of one length")
    row = ",".join(["%.17g"] * len(names)) + "\r\n"
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\r\n")
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            block = np.column_stack([c[start:start + CSV_BLOCK_ROWS] for c in cols])
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def _bad_line(lines: list[str], block: int, n: int) -> str:
    """The first faulty line of block ``block`` (from 0), by its line in the file."""
    for i, line in enumerate(lines, 2 + block * CSV_BLOCK_ROWS):
        try:
            row = np.loadtxt([line], delimiter=",", ndmin=2)
        except ValueError:
            return f"malformed trace row at line {i}: {line.strip()[:80]!r}"
        if row.size and row.shape[1] != n:
            return f"trace row at line {i} has {row.shape[1]} cells, the header names {n}"
    return f"malformed trace rows up to line {i}"


def _read_columns(path, keep: tuple[str, ...] | None) -> dict[str, np.ndarray]:
    """The columns of a trace CSV named in ``keep`` (all when None). Every row is
    parsed and checked, CSV_BLOCK_ROWS rows at a time, but only the kept columns
    are held; a byte that is not UTF-8 reads as U+FFFD, which no cell parses."""
    with open(path, errors="replace") as fh:
        header = fh.readline()
        if not header:
            raise GridMismatch("empty trace file")
        names = [name.strip() for name in header.split(",")]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise GridMismatch(f"trace header names column {name!r} twice")
        kept = [i for i, name in enumerate(names) if keep is None or name in keep]
        parts: list[list[np.ndarray]] = [[] for _ in kept]
        any_rows = False
        blocks = iter(lambda: list(islice(fh, CSV_BLOCK_ROWS)), [])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on a block of blank lines
            for block, lines in enumerate(blocks):
                try:
                    rows = np.loadtxt(lines, delimiter=",", ndmin=2)
                except ValueError:
                    rows = None
                if rows is None or rows.size and rows.shape[1] != len(names):
                    raise GridMismatch(_bad_line(lines, block, len(names)))
                if rows.size:
                    any_rows = True
                    for part, i in zip(parts, kept):
                        part.append(rows[:, i].copy())
    if not any_rows:
        raise GridMismatch("trace file has no rows")
    columns = {}
    for part, i in zip(parts, kept):
        columns[names[i]] = np.concatenate(part)
        part.clear()  # each column's blocks go as soon as it is whole
    return columns


def read_trace_csv(path) -> dict[str, np.ndarray]:
    """Read a trace CSV back into named float arrays, one per header name.

    A header-only file, a header that names a column twice and a row whose
    cell count differs from the header's raise GridMismatch.
    """
    return _read_columns(path, None)


def _trace_step(columns: dict[str, np.ndarray]) -> float:
    """The uniform step of the t column of trace columns: positive and finite,
    with every step within 1e-9 of it. NaN fails both tests."""
    if "t" not in columns:
        raise GridMismatch("trace file has no t column")
    t = columns["t"]
    if t.size < 2:
        raise GridMismatch("trace needs at least two rows")
    with np.errstate(invalid="ignore", over="ignore"):  # NaN and inf fail the tests below
        steps = np.diff(t)
    dt = float(steps[0])
    if not 0.0 < dt < math.inf:
        raise GridMismatch("trace time step must be positive and finite")
    steps -= dt
    if not np.max(np.abs(steps, out=steps)) <= 1e-9 * max(dt, 1.0):
        raise GridMismatch("trace time column is not uniformly spaced")
    return dt


def signals_from_trace(columns: dict[str, np.ndarray]) -> dict[str, Signal]:
    """Turn trace columns into Signals using the t column's uniform step."""
    dt = _trace_step(columns)
    return {name: Signal(dt, vals) for name, vals in columns.items() if name != "t"}


def read_trace_signals(path, names: tuple[str, ...]) -> dict[str, Signal]:
    """Signals of the columns in ``names`` of a trace CSV on its t column's step,
    holding only those columns and t, each in the array it was read into. A
    malformed file, a missing name or a non-finite sample raises GridMismatch."""
    columns = _read_columns(path, ("t", *names))
    dt = _trace_step(columns)
    missing = [name for name in names if name not in columns]
    if missing:
        raise GridMismatch(f"trace file needs columns {', '.join(missing)}")
    try:
        return {name: Signal._adopt(dt, columns[name]) for name in names}
    except ValueError as exc:
        raise GridMismatch(f"malformed trace file: {exc}") from None
