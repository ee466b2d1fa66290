"""Prothero-Robinson integrator and convergence-order estimation.

The test problem u' = lambda (u - phi(t)) + phi'(t), u(0) = phi(0) is affine
in u, so every RK stage system is linear and solvable exactly: one scalar
solve per stage for DIRKs, one s x s solve otherwise.  Regimes:

  classical   lambda fixed and mild; orders match the classical theory
  semi-stiff  z = lambda dt held constant while dt -> 0
  stiff       lambda fixed and large, |z| >> 1 across the grid
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class StageSolveError(RuntimeError):
    pass


@dataclass(frozen=True)
class PRProblem:
    """lambda plus the forcing function and its derivative oracle."""

    lam: complex
    phi_name: str
    _deriv: object = field(repr=False, default=None)

    def phi_deriv(self, k, ts):
        return self._deriv(k, np.asarray(ts, dtype=float))

    def phi(self, ts):
        return self.phi_deriv(0, ts)

    def dphi(self, ts):
        return self.phi_deriv(1, ts)


def _poly_deriv_factory(power):
    def deriv(k, ts):
        if k > power:
            return np.zeros_like(ts)
        coef = 1.0
        for i in range(k):
            coef *= power - i
        return coef * ts ** (power - k)

    return deriv


def _exp_deriv_factory(rate):
    def deriv(k, ts):
        return rate ** k * np.exp(rate * ts)

    return deriv


def pr_problem(phi_spec, lam=-1.0):
    """Named forcing functions: sin, cos, zero, poly:k, exp:a."""
    name = phi_spec.strip()
    if name == "sin":
        deriv = lambda k, ts: np.sin(ts + k * math.pi / 2.0)
    elif name == "cos":
        deriv = lambda k, ts: np.cos(ts + k * math.pi / 2.0)
    elif name == "zero":
        deriv = lambda k, ts: np.zeros_like(ts)
    elif name.startswith("poly:"):
        deriv = _poly_deriv_factory(int(name.split(":", 1)[1]))
    elif name.startswith("exp:"):
        deriv = _exp_deriv_factory(float(name.split(":", 1)[1]))
    elif name == "exp":
        deriv = _exp_deriv_factory(1.0)
    else:
        raise ValueError(f"unknown forcing function {phi_spec!r}")
    if isinstance(lam, complex) and lam.imag == 0:
        lam = lam.real
    if (lam.real if isinstance(lam, complex) else lam) > 0:
        raise ValueError("the test problem requires Re(lambda) <= 0")
    return PRProblem(lam, name, deriv)


def _afloat(t):
    return np.array([[float(x) for x in row] for row in t.A])


def _prepare(t):
    """(A, b, c, lower): the tableau as arrays, and whether A is lower
    triangular; taken once per integration, not per step."""
    A = _afloat(t)
    b = np.array([float(x) for x in t.b])
    c = np.array([float(x) for x in t.c])
    return A, b, c, not np.triu(A, 1).any()


def _step(prepared, prob, t_n, u_n, dt):
    A, b, c, lower = prepared
    lam = prob.lam
    is_complex = isinstance(lam, complex)
    dtype = complex if is_complex or isinstance(u_n, complex) else float
    s = len(b)
    ts = t_n + c * dt
    phis = prob.phi(ts).astype(dtype)
    dphis = prob.dphi(ts).astype(dtype)
    forcing = dphis - lam * phis
    rhs = u_n * np.ones(s, dtype=dtype) + dt * (A @ forcing)
    z = dt * lam
    g = np.empty(s, dtype=dtype)
    if lower:
        # sequential scalar stage solves
        for i in range(s):
            acc = rhs[i]
            for j in range(i):
                acc += z * A[i, j] * g[j]
            denom = 1.0 - z * A[i, i]
            if abs(denom) < 1e-14:
                raise StageSolveError(f"singular stage {i + 1}: 1 - z a_ii = 0")
            g[i] = acc / denom
    else:
        M = np.eye(s, dtype=dtype) - z * A
        if abs(np.linalg.det(M)) < 1e-14:
            raise StageSolveError("singular stage system I - z A")
        g = np.linalg.solve(M, rhs)
    f = lam * (g - phis) + dphis
    update = b @ f
    if dtype is float:
        update = float(np.real(update))
    return u_n + dt * update, g


def rk_step_with_stages(t, prob, t_n, u_n, dt):
    """One RK step; returns (u_next, stage_values)."""
    return _step(_prepare(t), prob, t_n, u_n, dt)


def rk_step(t, prob, t_n, u_n, dt):
    return rk_step_with_stages(t, prob, t_n, u_n, dt)[0]


def integrate(t, prob, T, dt):
    n = int(round(T / dt))
    if abs(n * dt - T) > 1e-9 * max(1.0, abs(T)):
        raise ValueError("T must be an integer multiple of dt")
    u = complex(prob.phi(np.array([0.0]))[0])
    if not isinstance(prob.lam, complex):
        u = u.real
    prepared = _prepare(t)
    for k in range(n):
        u = _step(prepared, prob, k * dt, u, dt)[0]
    return u


@dataclass(frozen=True)
class ConvergenceResult:
    scheme: str
    regime: str
    param: float
    steps: tuple
    errors: tuple
    fitted_order: float
    T: float
    floor_filtered: int = 0

    def csv_rows(self):
        rows = []
        for dt, err in zip(self.steps, self.errors):
            rows.append(
                f"{self.scheme},{self.regime},{self.param:.16e},"
                f"{dt:.16e},{err:.16e},{self.fitted_order:.16e}"
            )
        return rows


CSV_HEADER = "scheme,regime,param,dt,error,fitted_order"

ROUNDOFF_FLOOR = 1e-13

DEFAULT_DTS = tuple(2.0 ** -k for k in range(4, 11))


def estimate_order(t, phi_spec, regime, dts=DEFAULT_DTS, T=1.0, z=-10.0,
                   lam=-1.0e6, lam_classical=-1.0):
    """Integrate over a step grid and fit the error slope.

    classical: fixed lam_classical; semi-stiff: lam = z/dt per step size;
    stiff: fixed lam.  Points below the roundoff floor are excluded from
    the fit.
    """
    dts = tuple(sorted(dts, reverse=True))
    if len(dts) < 4:
        raise ValueError("need at least 4 step sizes")
    if regime == "classical":
        param = lam_classical
    elif regime == "semi-stiff":
        param = z
    elif regime == "stiff":
        param = lam
    else:
        raise ValueError(f"unknown regime {regime!r}")
    errors = []
    for dt in dts:
        if regime == "semi-stiff":
            prob = pr_problem(phi_spec, z / dt)
        elif regime == "stiff":
            prob = pr_problem(phi_spec, lam)
        else:
            prob = pr_problem(phi_spec, lam_classical)
        u_end = integrate(t, prob, T, dt)
        exact = complex(prob.phi(np.array([T]))[0])
        errors.append(abs(u_end - exact))
    floor = ROUNDOFF_FLOOR * abs(complex(pr_problem(phi_spec).phi(np.array([T]))[0]))
    floor = max(floor, ROUNDOFF_FLOOR * 1e-3)
    keep = [
        (dt, e)
        for dt, e in zip(dts, errors)
        if e > floor and math.isfinite(e)
    ]
    dropped = len(dts) - len(keep)
    if len(keep) < 2:
        raise ValueError("all points at the roundoff floor")
    logs_dt = np.log([dt for dt, _ in keep])
    logs_e = np.log([e for _, e in keep])
    slope = float(np.polyfit(logs_dt, logs_e, 1)[0])
    return ConvergenceResult(
        scheme=t.name,
        regime=regime,
        param=float(param),
        steps=tuple(dts),
        errors=tuple(errors),
        fitted_order=slope,
        T=T,
        floor_filtered=dropped,
    )


def local_error_probe(t, prob, t_n, dt, K):
    """One-step error from an exact start vs. the truncated residual series.

    measured = u_1 - phi(t_n + dt) starting from u_n = phi(t_n);
    predicted = z b^T (I - zA)^{-1} E_K with
    E_K = sum_{k<=K} dt^k/(k-1)! tau^(k) phi^(k)(t_n).
    """
    from .orders import tau as tau_vec

    u0 = complex(prob.phi(np.array([t_n]))[0])
    if not isinstance(prob.lam, complex):
        u0 = u0.real
    u1 = rk_step(t, prob, t_n, u0, dt)
    exact = complex(prob.phi(np.array([t_n + dt]))[0])
    if not isinstance(prob.lam, complex):
        exact = exact.real
    measured = u1 - exact

    A = _afloat(t)
    b = np.array([float(x) for x in t.b])
    lam = prob.lam
    z = lam * dt
    s = t.s
    E = np.zeros(s, dtype=complex)
    fac = 1.0
    for k in range(1, K + 1):
        if k > 1:
            fac *= k - 1
        tk = np.array([float(x) for x in tau_vec(t, k)])
        phik = complex(prob.phi_deriv(k, np.array([t_n]))[0])
        E += (dt ** k / fac) * tk * phik
    M = np.eye(s, dtype=complex) - z * A
    predicted = z * (b @ np.linalg.solve(M, E))
    if not isinstance(lam, complex):
        predicted = predicted.real
        measured = measured.real if isinstance(measured, complex) else measured
    return measured, predicted
