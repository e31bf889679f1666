"""Accuracy metrics over ground-truth / estimate pairs.

Pairs are expected in a camera-centered ground frame (the frame the shipped
reference data uses), so an entry's distance from the camera is simply the
norm of its ground-truth xy. Spreads are population standard deviations.

A note on the shipped reference data: its published aggregate mean-error
line is internally inconsistent with its own rows, so this module always
reports statistics recomputed from the rows; the row-level RMSE is the
trustworthy headline number.

Every sum in a report is one math.fsum, correctly rounded from exact
partial sums, so a report whose numbers are finite depends only on the set
of pairs, not on their order. The codecs of the pairs, truth, report and
scatter tables live here too.
"""

from __future__ import annotations

import io
import math
from bisect import bisect_right
from pathlib import Path
from typing import NamedTuple

from . import files


class EvalPair(NamedTuple):
    """One ground-truth position/heading with the estimate of one source."""

    gt_x: float
    gt_y: float
    gt_theta: float
    est_x: float
    est_y: float
    est_theta: float
    source: str = "ours"

    @property
    def gt_distance(self) -> float:
        return math.hypot(self.gt_x, self.gt_y)


# The keys of error_stats' blocks, each named <axis>_<unit>.
ERROR_BLOCKS = ("x_mm", "y_mm", "theta_deg")


def rmse(pairs: list[EvalPair]) -> float:
    """Root mean square xy position error in millimeters of a non-empty
    list; inf when an error is too large to square or the squares to sum."""
    try:
        total = math.fsum(
            [(p.est_x - p.gt_x) ** 2 + (p.est_y - p.gt_y) ** 2 for p in pairs]
        )
    except OverflowError:
        return math.inf
    return math.sqrt(total / len(pairs))


def _wrap_deg(a: float) -> float:
    wrapped = math.fmod(a + 180.0, 360.0)
    if wrapped <= 0.0:
        wrapped += 360.0
    return wrapped - 180.0


def _mean_std(values: list[float]) -> dict:
    """Mean and population std of a non-empty list, both inf where a sum
    overflows or holds inf and -inf, on which math.fsum raises."""
    n = len(values)
    try:
        mean = math.fsum(values) / n
        std = math.sqrt(math.fsum([(v - mean) * (v - mean) for v in values]) / n)
    except (OverflowError, ValueError):
        return {"mean": math.inf, "std": math.inf}
    return {"mean": mean, "std": std}


def error_stats(pairs: list[EvalPair]) -> dict:
    """Signed est-minus-truth mean and population std of a non-empty list:
    the x_mm, y_mm and theta_deg blocks of a report; angle errors wrapped to
    (-180, 180]."""
    ex = [p.est_x - p.gt_x for p in pairs]
    ey = [p.est_y - p.gt_y for p in pairs]
    et = [_wrap_deg(p.est_theta - p.gt_theta) for p in pairs]
    return {block: _mean_std(e) for block, e in zip(ERROR_BLOCKS, (ex, ey, et))}


def _summary(pairs: list[EvalPair]) -> dict:
    """The headline block shared by a report and each compared source."""
    return {"rmse_mm": rmse(pairs), "count": len(pairs), **error_stats(pairs)}


def bucket_by_distance(
    pairs: list[EvalPair], boundaries: list[float]
) -> list[list[EvalPair]]:
    """Split pairs into half-open distance bands [0,b1), [b1,b2), ..., [bk,inf)
    for positive, strictly increasing boundaries.

    Distance is the ground-truth xy norm. A pair exactly on a boundary lands
    in the upper band. Every pair lands in exactly one band, so the bands
    recombine to the input set.
    """
    buckets: list[list[EvalPair]] = [[] for _ in range(len(boundaries) + 1)]
    for p in pairs:
        buckets[bisect_right(boundaries, p.gt_distance)].append(p)
    return buckets


def build_report(pairs: list[EvalPair], boundaries: list[float]) -> dict:
    """The report document of a non-empty list of pairs, banded at boundaries
    as bucket_by_distance takes them: overall RMSE and error statistics plus
    the RMSE of each distance band (None for an empty band)."""
    split = bucket_by_distance(pairs, boundaries)
    return {
        **_summary(pairs),
        "bucket_boundaries_mm": boundaries,
        "buckets": [
            {
                "lo_mm": lo,
                "hi_mm": hi,
                "count": len(members),
                "rmse_mm": rmse(members) if members else None,
            }
            for lo, hi, members in zip([0.0] + boundaries, boundaries + [None], split)
        ],
    }


def first_nonfinite(doc, name: str = "") -> str | None:
    """The key path, such as "rmse_mm" or "buckets[1].rmse_mm", of the first
    number in doc, a report document, that is inf or nan, which JSON cannot
    hold; None when every number is finite."""
    if type(doc) is float:
        return None if math.isfinite(doc) else name
    if type(doc) is dict:
        entries = ((f"{name}.{key}" if name else key, v) for key, v in doc.items())
    elif type(doc) is list:
        entries = ((f"{name}[{i}]", v) for i, v in enumerate(doc))
    else:
        return None
    for key, value in entries:
        found = first_nonfinite(value, key)
        if found is not None:
            return found
    return None


def compare_sources(
    ours: list[EvalPair], reference: list[EvalPair]
) -> dict:
    """Side-by-side statistics of two non-empty sources over the same ground
    truths.

    Raises ValueError when the ground-truth multisets differ beyond 1e-9.
    """
    if len(ours) != len(reference):
        raise ValueError(
            f"sources cover {len(ours)} vs {len(reference)} ground truths"
        )

    def key(p: EvalPair) -> tuple[float, float, float]:
        return (p.gt_x, p.gt_y, p.gt_theta)

    for a, b in zip(sorted(ours, key=key), sorted(reference, key=key)):
        if max(
            abs(a.gt_x - b.gt_x), abs(a.gt_y - b.gt_y), abs(a.gt_theta - b.gt_theta)
        ) > 1e-9:
            raise ValueError(
                f"ground truths differ: ({a.gt_x}, {a.gt_y}, {a.gt_theta}) vs "
                f"({b.gt_x}, {b.gt_y}, {b.gt_theta})"
            )

    return {"ours": _summary(ours), "reference": _summary(reference)}


def _write_csv(path: Path, header: list[str], rows) -> None:
    """A CSV table: the header, then each row, as csv.writer writes them."""
    import csv

    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def read_table(path: Path, header: list[str]) -> tuple[list[str], int]:
    """The lines of a CSV file after its header row, each with its line end,
    and the number of the first of them; the header's names may carry
    surrounding spaces. A file that is not UTF-8 text raises ValueError
    naming it, and a header mismatch or a header csv cannot parse one naming
    it and the line."""
    import csv

    with files._malformed(str(path)), open(path, newline="", encoding="utf-8") as f:
        text = f.read()
    # Lines end where csv.reader ends them: at "\r\n", "\r" or "\n".
    lines = io.StringIO(text, newline="").readlines()
    reader = csv.reader(lines)
    try:
        names = next(reader, None)
    except csv.Error as exc:
        raise ValueError(f"{path} line {reader.line_num}: {exc}") from None
    if names is None or [name.strip() for name in names] != header:
        raise ValueError(f"{path} line 1: expected header {','.join(header)}, got {names}")
    return lines[reader.line_num:], reader.line_num + 1


def _csv_rows(path: Path, lines: list[str], first: int, width: int, parse) -> list:
    """parse(fields) for each non-blank row of lines, CSV lines of the file
    at path whose first is line number first. A row of the wrong width, a
    line csv cannot parse (an oversized field, say) or a ValueError from
    parse raises ValueError naming the file and the line."""
    import csv

    reader = csv.reader(lines)
    rows = []
    # A plain try, not _malformed: entering that context manager on every
    # row made the pairs table load about 70 % slower at 20k rows.
    try:
        for fields in reader:
            if len(fields) == width:
                rows.append(parse(fields))
            elif fields:
                raise ValueError(f"expected {width} fields")
    except (csv.Error, ValueError) as exc:
        raise ValueError(f"{path} line {first - 1 + reader.line_num}: {exc}") from None
    return rows


PAIRS_HEADER = ["gt_x", "gt_y", "gt_theta", "est_x", "est_y", "est_theta", "source"]


def save_pairs_csv(path: Path, pairs: list[EvalPair]) -> None:
    _write_csv(path, PAIRS_HEADER, pairs)


def _pair(fields: list[str]) -> tuple:
    source = fields[6].strip()
    if source not in ("ours", "reference"):
        raise ValueError(f"source must be ours or reference, got {source!r}")
    values = tuple(map(float, fields[:6]))
    if not all(map(math.isfinite, values)):
        raise ValueError("pair entries must be finite")
    return (*values, source)


def parse_pairs(path: Path, lines: list[str], first: int) -> list[tuple]:
    """The rows of lines, data lines of the pairs table at path whose first
    is line number first, read by column position, each as a plain tuple of
    EvalPair's fields, which marshal carries from a forked part; a malformed
    row, one with an entry that is not finite, or one whose source is
    neither ours nor reference raises ValueError naming the file and the
    line."""
    return _csv_rows(path, lines, first, len(PAIRS_HEADER), _pair)


def load_pairs_csv(path: Path) -> list[EvalPair]:
    """The pairs table at path, as parse_pairs reads its data lines."""
    return list(map(EvalPair._make, parse_pairs(path, *read_table(path, PAIRS_HEADER))))


TRUTH_HEADER = ["frame", "gt_x", "gt_y", "gt_theta"]


def save_truth_csv(path: Path, rows: list[tuple[str, float, float, float]]) -> None:
    _write_csv(path, TRUTH_HEADER, rows)


def load_truth_csv(path: Path) -> dict[str, tuple[float, float, float]]:
    """Read the truth table by frame; a malformed row raises ValueError
    naming the file and the line."""

    def row(fields: list[str]) -> tuple[str, tuple[float, float, float]]:
        frame_id, x, y, theta = fields
        return frame_id, (float(x), float(y), float(theta))

    lines, first = read_table(path, TRUTH_HEADER)
    return dict(_csv_rows(path, lines, first, len(TRUTH_HEADER), row))


def save_report(path: Path, report: dict) -> None:
    """The headline numbers of a build_report document as a metric,value table."""
    rows = [["rmse_mm", report["rmse_mm"]], ["count", report["count"]]]
    for block in ERROR_BLOCKS:
        axis, unit = block.split("_")
        rows.append([f"{axis}_mean_{unit}", report[block]["mean"]])
        rows.append([f"{axis}_std_{unit}", report[block]["std"]])
    for b in report["buckets"]:
        lo, hi = b["lo_mm"], b["hi_mm"]
        band = f"[{lo},{'inf' if hi is None else hi})"
        rows.append([f"rmse_mm{band}", b["rmse_mm"]])
        rows.append([f"count{band}", b["count"]])
    _write_csv(path, ["metric", "value"], rows)


def scatter_rows(rows: list[tuple]) -> tuple[str, str]:
    """The scatter.csv rows of rows, EvalPairs or parse_pairs rows, read by
    position: the ground-truth rows, then the estimate rows, as two texts.

    The rows are the bytes csv.writer writes for them: numbers by repr, CRLF
    line ends, and series names that need no quoting.
    """
    return (
        "".join([f"{r[0]!r},{r[1]!r},ground_truth\r\n" for r in rows]),
        "".join([f"{r[3]!r},{r[4]!r},{r[6]}\r\n" for r in rows]),
    )


def save_scatter_csv(path: Path, parts: list[tuple[str, str]]) -> None:
    """Plot-ready gt/estimate positions: columns x, y, series. parts are the
    scatter_rows of consecutive runs of the pairs, in order; every
    ground-truth row comes before every estimate row."""
    truths, estimates = zip(*parts)
    Path(path).write_text(
        "x,y,series\r\n" + "".join(truths) + "".join(estimates), newline=""
    )


def render_report_text(report: dict) -> str:
    """Fixed-decimal human summary of a build_report document, used by the
    evaluation command's stderr."""
    out = io.StringIO()
    out.write(f"pairs: {report['count']}\n")
    out.write(f"rmse: {report['rmse_mm']:.6f} mm\n")
    for block in ERROR_BLOCKS:
        axis, unit = block.split("_")
        stats = report[block]
        out.write(f"{axis} error: {stats['mean']:.6f} +- {stats['std']:.6f} {unit}\n")
    for b in report["buckets"]:
        hi = "inf" if b["hi_mm"] is None else _band_edge(b["hi_mm"])
        rmse_text = "n/a" if b["rmse_mm"] is None else f"{b['rmse_mm']:.6f}"
        out.write(
            f"bucket [{_band_edge(b['lo_mm'])}, {hi}) mm: count {b['count']}, "
            f"rmse {rmse_text} mm\n"
        )
    return out.getvalue()


def _band_edge(mm: float) -> str:
    """A band edge as given: a whole number of millimeters without decimals,
    any other value as report.csv writes it."""
    return f"{mm:.0f}" if mm.is_integer() else repr(mm)
