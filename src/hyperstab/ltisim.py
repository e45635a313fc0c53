"""State-space realization, impulse response and forced simulation.

Realizations use the controllable canonical form. Time stepping is the exact
zero-order-hold discretization, built in one place, ``zoh_hold``: the loop,
its audit and ``simulate_forced`` all step with the plant block of its one
matrix exponential, so the only discretization error in a simulation comes
from holding the input constant over each step, never from the integrator
itself. The Dirac part of a relative-degree-zero impulse response
is carried symbolically as ``direct_delta_weight`` - a sampled spike would
corrupt every convolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.linalg import expm
from scipy.signal import fftconvolve

from .errors import DimensionMismatch, GridMismatch
from .ratfun import RationalFunction
from .signals import Signal


@dataclass(frozen=True)
class StateSpace:
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: float

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        n = A.shape[0]
        B = np.asarray(self.B, dtype=float).reshape(n, 1) if n else np.zeros((0, 1))
        C = np.asarray(self.C, dtype=float).reshape(1, n) if n else np.zeros((1, 0))
        if n == 0:
            A = np.zeros((0, 0))
        for name, arr in (("A", A), ("B", B), ("C", C)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "D", float(self.D))

    @property
    def order(self) -> int:
        return self.A.shape[0]

    def transfer_at(self, s: complex) -> complex:
        """C (sI - A)^-1 B + D, for reconstruction checks."""
        n = self.order
        if n == 0:
            return complex(self.D)
        resolvent = np.linalg.solve(s * np.eye(n) - self.A, self.B)
        return complex((self.C @ resolvent)[0, 0] + self.D)


@dataclass(frozen=True)
class ImpulseResponse:
    g: Signal
    direct_delta_weight: float


def realize(g: RationalFunction) -> StateSpace:
    """Controllable canonical realization of a proper rational function."""
    num = np.asarray(g.num.coeffs, dtype=float)
    den = np.asarray(g.den.coeffs, dtype=float)  # monic by construction
    n = den.size - 1
    padded = np.zeros(n + 1)
    padded[: num.size] = num
    D = float(padded[n])
    rem = padded[:n] - D * den[:n]
    if n == 0:
        return StateSpace(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), D)
    A = np.zeros((n, n))
    A[:-1, 1:] = np.eye(n - 1)
    A[-1, :] = -den[:n]
    B = np.zeros((n, 1))
    B[-1, 0] = 1.0
    return StateSpace(A, B, rem, D)


def van_loan(x: np.ndarray, y: np.ndarray, z: np.ndarray, dt: float):
    """Blocks E11, E12 and E22 of expm([[X, Y], [0, Z]] dt), which give
    integrals of matrix exponentials (Van Loan, "Computing integrals involving
    the matrix exponential", IEEE TAC 23(3), 1978). With X = F, Y = I, Z = 0:
    E11 = e^(F dt) and E12 = int_0^dt e^(F s) ds. With X = -F', Y = Q, Z = F:
    E22' E12 = int_0^dt e^(F's) Q e^(F s) ds.
    """
    k = len(x)
    block = np.zeros((2 * k, 2 * k))
    block[:k, :k], block[:k, k:], block[k:, k:] = x * dt, y * dt, z * dt
    e = expm(block)
    return e[:k, :k], e[:k, k:], e[k:, k:]


def zoh_hold(ss: StateSpace, dt: float):
    """The zero-order hold of w = [x; xi; u] over one step dt: the plant state
    x, the state xi of the lag xi' = u - xi, and the held input u. Returns
    F = [[A, 0, B], [0, -1, 1], [0, 0, 0]] with e^(F dt) and
    int_0^dt e^(F s) ds; the plant's exact (Ad, Bd) are the first n rows of
    e^(F dt), in the columns of x and of u."""
    n = ss.order
    f = np.zeros((n + 2, n + 2))
    f[:n, :n], f[:n, -1] = ss.A, ss.B[:, 0]
    f[n, n:] = -1.0, 1.0
    return (f, *van_loan(f, np.eye(n + 2), np.zeros_like(f), dt)[:2])


def power_record(step: np.ndarray, first: np.ndarray, count: int) -> np.ndarray:
    """Rows step^i first for i < count, by doubling: once the first m rows
    exist, the next m are one matrix product away, so the record costs
    O(log count) small matmuls instead of count sequential steps."""
    record = np.empty((count, first.size))
    record[0] = first
    power = step
    m = 1
    while m < count:
        take = min(m, count - m)
        record[m : m + take] = record[:take] @ power.T
        if 2 * m < count:
            power = power @ power
        m *= 2
    return record


def zero_states(step: np.ndarray, first: np.ndarray, u: np.ndarray, block: int):
    """The states x_(k+1) = step x_k + first u_k from x_0 = 0, for k < len(u),
    in consecutive blocks of at most ``block`` rows: yields (s, rows) with
    rows[i] = x_(s+i+1).

    Each block is the FFT convolution of its inputs with the first terms of
    ``power_record(step, first, ...)``, the same terms for every block, plus
    the state carried in from the block before, propagated by the powers of
    step: sectioned convolution (Stockham, "High-speed convolution and
    correlation", AFIPS 1966) in state-space form. The scratch is a few
    blocks; a record of one block is one plain FFT convolution.
    """
    size = min(len(u), block)
    nfft = next_fast_len(2 * size - 1, True)  # the first size terms do not wrap
    spec = rfft(power_record(step, first, size), nfft, axis=0)
    x = None
    for s in range(0, len(u), size):
        ub = u[s:s + size]
        # copied out of the FFT's buffer, which is twice as long
        rows = irfft(spec * rfft(ub, nfft)[:, None], nfft, axis=0)[: ub.size].copy()
        if x is not None:
            rows += power_record(step, step @ x, ub.size)
        x = rows[-1].copy()
        yield s, rows
        del rows  # before the next block's scratch is made


def impulse_response(g: RationalFunction, T: float, dt: float) -> ImpulseResponse:
    """Sampled C exp(A t) B on [0, T] plus the Dirac weight D."""
    if dt <= 0 or T < dt:
        raise ValueError("need dt > 0 and T >= dt")
    ss = realize(g)
    n_samp = int(round(T / dt)) + 1
    samples = power_record(expm(ss.A * dt), ss.B.ravel(), n_samp) @ ss.C.ravel()
    return ImpulseResponse(g=Signal(dt, samples), direct_delta_weight=ss.D)


def simulate_forced(ss: StateSpace, u: Signal, x0) -> Signal:
    """Exact ZOH propagation of the state, y_k = C x_k + D u_k."""
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.size != ss.order:
        raise DimensionMismatch(
            f"x0 has {x.size} entries, realization has order {ss.order}"
        )
    n_samp = len(u)
    y = np.empty(n_samp)
    if ss.order == 0:
        return Signal(u.dt, ss.D * u.values)
    phi = zoh_hold(ss, u.dt)[1]
    ad, bd = phi[:-2, :-2], phi[:-2, -1]
    c = ss.C.reshape(-1)
    for k in range(n_samp):
        y[k] = c @ x + ss.D * u.values[k]
        if k < n_samp - 1:
            x = ad @ x + bd * u.values[k]
    return Signal(u.dt, y)


def convolve(ir: ImpulseResponse, u: Signal) -> Signal:
    """Trapezoidal convolution of the sampled kernel with u, plus the Dirac part."""
    if abs(ir.g.dt - u.dt) > 1e-9 * u.dt:
        raise GridMismatch("impulse response and input use different steps")
    n = len(u)
    if len(ir.g) < n:
        raise GridMismatch("impulse response record shorter than the input")
    g = ir.g.values[:n]
    full = fftconvolve(g, u.values)[:n]
    y = u.dt * (full - 0.5 * (g * u.values[0] + g[0] * u.values))
    return Signal(u.dt, y + ir.direct_delta_weight * u.values)

