"""Nonlinear least-squares machinery.

The Levenberg-Marquardt solver damps with the Marquardt diagonal,
(J.T J + lambda diag(J.T J)) delta = -J.T r, accepts a step only on a strict
cost decrease (lambda x0.1 on accept, x10 on reject), and reports which
tolerance ended the run. Jacobians default to central differences; a problem
may supply its own analytic jacobian callable instead.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np


class TerminationReason(str, enum.Enum):
    GRADIENT = "gradient"
    STEP = "step"
    COST = "cost"
    MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True)
class LeastSquaresProblem:
    """Residual map r(x): R^n -> R^m with m >= n, where n is the length of
    the start vector and m that of the residual there.

    jacobian, when given, must return the (m, n) matrix of d r_j / d x_i.
    """

    residual: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None


class LmResult(NamedTuple):
    x: np.ndarray
    cost: float
    iterations: int
    reason: TerminationReason


INITIAL_LAMBDA = 1e-3
LAMBDA_UP = 10.0
LAMBDA_DOWN = 0.1
LAMBDA_GIVE_UP = 1e10
GRADIENT_TOL = 1e-10
STEP_TOL = 1e-12
COST_TOL = 1e-12


def _evaluate(
    problem: LeastSquaresProblem, x: np.ndarray, m: int | None = None
) -> np.ndarray:
    """The residual at x as a flat float array, of m values when m is given."""
    r = np.asarray(problem.residual(x), dtype=float).reshape(-1)
    if m is not None and r.shape[0] != m:
        raise ValueError(f"residual returned {r.shape[0]} values, expected {m}")
    return r


def numeric_jacobian(
    problem: LeastSquaresProblem, x: np.ndarray, base_step: float = 1e-6
) -> np.ndarray:
    """Central-difference Jacobian with per-parameter step max(h, h * |x_i|).

    The first probe sets the residual length m that the others must match.
    Raises ValueError if any probe evaluation is non-finite.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    m = None
    columns = []
    for i in range(x.shape[0]):
        h = max(base_step, base_step * abs(x[i]))
        forward = x.copy()
        forward[i] += h
        backward = x.copy()
        backward[i] -= h
        rf = _evaluate(problem, forward, m)
        m = rf.shape[0]
        rb = _evaluate(problem, backward, m)
        if not (np.all(np.isfinite(rf)) and np.all(np.isfinite(rb))):
            raise ValueError(f"non-finite residual while probing parameter {i}")
        columns.append((rf - rb) / (2.0 * h))
    return np.column_stack(columns)


def levenberg_marquardt(
    problem: LeastSquaresProblem,
    x0: np.ndarray,
    max_iterations: int = 100,
) -> LmResult:
    """Minimize 0.5 * ||r(x)||^2 from x0; final cost never exceeds the initial.

    Stops after max_iterations outer iterations at most; raises ValueError
    when it is below 1, or when r(x0) has fewer values (m) than x0 (n).
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    x = np.asarray(x0, dtype=float).reshape(-1).copy()
    r = _evaluate(problem, x)
    m, n = r.shape[0], x.shape[0]
    if n == 0:
        raise ValueError("problem dimensions must be positive")
    if m < n:
        raise ValueError(f"need at least as many residuals ({m}) as parameters ({n})")
    if not np.all(np.isfinite(r)):
        raise ValueError("residual at x0 is non-finite")
    cost = 0.5 * float(r @ r)
    lam = INITIAL_LAMBDA
    accepted = 0
    reason = TerminationReason.MAX_ITERATIONS

    jacobian = problem.jacobian or (lambda xx: numeric_jacobian(problem, xx))
    for _ in range(max_iterations):
        jac = np.asarray(jacobian(x), dtype=float)
        if jac.shape != (m, n):
            raise ValueError(f"jacobian shape {jac.shape} does not match problem")
        if not np.all(np.isfinite(jac)):
            raise ValueError("jacobian is non-finite")
        gradient = jac.T @ r
        if np.max(np.abs(gradient)) <= GRADIENT_TOL:
            reason = TerminationReason.GRADIENT
            break
        jtj = jac.T @ jac
        diag = np.diag(np.diag(jtj))

        stop = None
        while True:
            try:
                delta = np.linalg.solve(jtj + lam * diag, -gradient)
                if not np.all(np.isfinite(delta)):
                    raise np.linalg.LinAlgError("non-finite step")
            except np.linalg.LinAlgError:
                lam *= LAMBDA_UP
                if lam >= LAMBDA_GIVE_UP:
                    raise ValueError(
                        f"normal equations unsolvable at lambda={lam:.3g}"
                    ) from None
                continue
            if float(np.linalg.norm(delta)) < STEP_TOL:
                stop = TerminationReason.STEP
                break
            trial = x + delta
            r_trial = _evaluate(problem, trial, m)
            if np.all(np.isfinite(r_trial)):
                cost_trial = 0.5 * float(r_trial @ r_trial)
            else:
                cost_trial = math.inf
            if cost_trial < cost:
                decrease = cost - cost_trial
                x, r, cost = trial, r_trial, cost_trial
                lam *= LAMBDA_DOWN
                accepted += 1
                if decrease < COST_TOL:
                    stop = TerminationReason.COST
                break
            lam *= LAMBDA_UP

        if stop is not None:
            reason = stop
            break

    return LmResult(x=x, cost=cost, iterations=accepted, reason=reason)
