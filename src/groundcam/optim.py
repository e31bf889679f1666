"""Nonlinear least-squares machinery on numpy arrays.

levenberg_marquardt runs groundcam.lm's rule, solving each damped step with
numpy. Jacobians default to central differences; a problem may supply its
own analytic jacobian callable instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .lm import TerminationReason, minimize


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
    jacobian = problem.jacobian or (lambda xx: numeric_jacobian(problem, xx))

    def cost_of(r: np.ndarray) -> float | None:
        return 0.5 * float(r @ r) if np.all(np.isfinite(r)) else None

    def linearize(point):
        x, r = point
        jac = np.asarray(jacobian(x), dtype=float)
        if jac.shape != (m, n):
            raise ValueError(f"jacobian shape {jac.shape} does not match problem")
        if not np.all(np.isfinite(jac)):
            return None
        gradient = jac.T @ r
        jtj = jac.T @ jac
        diag = np.diag(np.diag(jtj))

        def solve(lam: float):
            try:
                delta = np.linalg.solve(jtj + lam * diag, -gradient)
            except np.linalg.LinAlgError:
                return None
            if not np.all(np.isfinite(delta)):
                return None
            return delta, float(np.linalg.norm(delta))

        return float(np.max(np.abs(gradient))), solve

    def trial(point, delta: np.ndarray):
        moved = point[0] + delta
        r = _evaluate(problem, moved, m)
        cost = cost_of(r)
        return (moved, r), math.inf if cost is None else cost

    (x, _), cost, accepted, reason = minimize(
        (x, r), cost_of(r), linearize, trial, max_iterations
    )
    return LmResult(x=x, cost=cost, iterations=accepted, reason=reason)
