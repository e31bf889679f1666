"""Exact least-squares fit of the per-class box-to-ground regression.

Only fit-regressor imports this module. Each class's u and v weight rows
minimize ||X w - t|| over its design X, one row (xmin, ymin, xmax, ymax, 1)
per sample. Every float is a dyadic rational, so each column of X and of
the targets, scaled by its own power of two, is a column of exact ints. The
normal equations X^T X w = X^T t are then formed and solved exactly, by
fraction-free elimination, and each weight is rounded to the nearest float
once. The weights are the least-squares solution correctly rounded: they
depend neither on the order of the samples nor on a BLAS or LAPACK build.
"""

from __future__ import annotations

import math
from operator import mul

from .regression import ClassModel, RegressionSample

MIN_SAMPLES_PER_CLASS = 5

# least_squares' rank test: the columns count as dependent when the
# smallest |R_ii| of A = QR falls below this share of the largest.
RANK_TOL = 1e-12


def _scaled(column) -> tuple[list[int], int]:
    """(ints, scale): the column's values times scale, each an exact int,
    for the smallest power of two scale that makes them so."""
    ratios = [x.as_integer_ratio() for x in column]
    scale = max(d for _, d in ratios)
    return [n * (scale // d) for n, d in ratios], scale


def _below(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Whether the fraction a = (numerator, denominator) is less than b."""
    return a[0] * b[1] < b[0] * a[1]


def _sqrt_g(square: tuple[int, int]) -> str:
    """The root of a fraction (numerator, denominator) as "%.3g" prints it,
    however far the root lies beyond the float range."""
    num, den = square
    if num == 0:
        return "0"
    # exp is the root's decimal exponent once 100 <= digits < 1000, where
    # digits = floor(root * 10**(2 - exp)); 0.15 approximates log10(2) / 2.
    exp = round((num.bit_length() - den.bit_length()) * 0.150515)
    while True:
        k = 2 * (2 - exp)
        n, d = (num * 10**k, den) if k >= 0 else (num, den * 10**-k)
        digits = math.isqrt(n // d)
        if digits < 100:
            exp -= 1
        elif digits >= 1000:
            exp += 1
        else:
            break
    # Round half to even, as float formatting does: compare the root with
    # digits + 1/2 through their squares.
    half = (2 * digits + 1) ** 2 * d
    if 4 * n > half or (4 * n == half and digits % 2):
        digits += 1
    if digits == 1000:
        digits, exp = 100, exp + 1
    if -4 <= exp < 3:
        return "%.3g" % float(f"{digits}e{exp - 2}")
    text = str(digits)
    mantissa = f"{text[0]}.{text[1:]}".rstrip("0").rstrip(".")
    return f"{mantissa}e{exp:+03d}"


def least_squares(columns, targets) -> list[tuple[float, ...]]:
    """The float nearest to each entry of the exact solution of
    min ||A x - b||, one tuple x per target column b, for the matrix A with
    the given columns; every column holds the same number of floats.

    Raises ValueError when the smallest |R_ii| of the QR factorization
    A = QR falls below RANK_TOL times the largest.
    """
    columns = [_scaled(c) for c in columns]
    targets = [_scaled(t) for t in targets]
    n = len(columns)
    ints = [c for c, _ in columns] + [t for t, _ in targets]
    # A^T A beside A^T b, in the scaled ints.
    rows = [[sum(map(mul, ci, cj)) for cj in ints] for ci in ints[:n]]
    # Fraction-free Gauss elimination in column order. Its k-th pivot is the
    # leading k+1 minor of A^T A, so with the one before it, prev, it gives
    # R_kk**2 = pivot / prev, since R^T R = A^T A; column k's scale squared
    # turns that into A's. A zero pivot leaves the rest of its row zero
    # (A^T A is positive semidefinite), so that column is skipped, as QR
    # goes on past it.
    squares = []
    prev = 1
    for k, (_, scale) in enumerate(columns):
        pivot_row = rows[k]
        pivot = pivot_row[k]
        squares.append((pivot, prev * scale * scale))
        if pivot == 0:
            continue
        for row in rows[k + 1:]:
            f = row[k]
            for j in range(k + 1, len(row)):
                row[j] = (row[j] * pivot - f * pivot_row[j]) // prev
        prev = pivot
    low = high = squares[0]
    for square in squares[1:]:
        if _below(square, low):
            low = square
        if _below(high, square):
            high = square
    # |R|min < tol |R|max, compared exactly: |R|min**2 < tol**2 |R|max**2;
    # a zero |R_ii| fails even when every column is zero.
    tol_num, tol_den = RANK_TOL.as_integer_ratio()
    if low[0] == 0 or low[0] * high[1] * tol_den**2 < tol_num**2 * high[0] * low[1]:
        raise ValueError(
            f"column dependence detected (|R_ii| ratio {_sqrt_g(low)}/{_sqrt_g(high)})"
        )
    # Back substitution in ints: y = det * z, det the last pivot, is the
    # integer vector of Cramer's rule for the scaled system, so every
    # division is exact. Entry j of x is z_j * scale_j / the target's scale.
    det = prev
    weights = []
    for c, (_, target_scale) in enumerate(targets, start=n):
        y = [0] * n
        for k in reversed(range(n)):
            row = rows[k]
            rest = sum(row[j] * y[j] for j in range(k + 1, n))
            y[k] = (det * row[c] - rest) // row[k]
        try:
            weights.append(tuple(
                # int / int rounds the exact quotient to the nearest float.
                y[j] * scale / (det * target_scale)
                for j, (_, scale) in enumerate(columns)
            ))
        except OverflowError:
            raise ValueError("a weight lies beyond the float range") from None
    return weights


def _fit_class(group: list[RegressionSample]) -> ClassModel:
    columns = [*zip(*(s.bbox for s in group)), [1.0] * len(group)]
    targets = zip(*(s.ground_pixel for s in group))
    probe = ClassModel(least_squares(columns, targets), 0.0)
    residuals = []
    for s in group:
        u, v = probe.ground_pixel(s.bbox)
        residuals += (u - s.ground_pixel.u, v - s.ground_pixel.v)
    # fsum rounds the exact sum once, so the RMSE does not depend on the
    # sample order. A sum of squares beyond the float range makes the RMSE
    # inf, which ClassModel refuses, rather than an OverflowError.
    try:
        mean_square = math.fsum(r * r for r in residuals) / len(residuals)
    except OverflowError:
        mean_square = math.inf
    return ClassModel(probe.weights, math.sqrt(mean_square))


def fit(samples: list[RegressionSample]) -> dict[str, ClassModel]:
    """Fit one independent 2x5 model per class present in the samples.

    Every class needs at least 5 samples. Adding samples of one class never
    changes another class's weights. Raises ValueError naming the class when
    its boxes do not span the feature space (every box identical, say), a
    weight lies beyond the float range or the RMSE is not finite.
    """
    by_class: dict[str, list[RegressionSample]] = {}
    for sample in samples:
        by_class.setdefault(sample.label, []).append(sample)
    if not by_class:
        raise ValueError("no training samples given")

    classes: dict[str, ClassModel] = {}
    for label in sorted(by_class):
        group = by_class[label]
        if len(group) < MIN_SAMPLES_PER_CLASS:
            raise ValueError(
                f"class {label!r} has {len(group)} samples, needs "
                f"{MIN_SAMPLES_PER_CLASS}"
            )
        try:
            classes[label] = _fit_class(group)
        except ValueError as exc:
            raise ValueError(f"class {label!r}: {exc}") from None
    return classes
