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
of pairs, not on their order. A report is therefore a map and a reduce:
error_terms computes each row's terms wherever its rows were parsed, and
banded_report and compare_terms sum the joined terms, with the same bits
however the rows were cut. The codecs of the pairs, truth, report and
scatter tables live here too.
"""

from __future__ import annotations

import io
import math
from bisect import bisect_right
from itertools import chain
from pathlib import Path

from . import files

# The sources a pairs table may name: the scored one, then the compared one.
SOURCES = ("ours", "reference")

# The keys of a report's error blocks, each named <axis>_<unit>.
ERROR_BLOCKS = ("x_mm", "y_mm", "theta_deg")


def _wrap_deg(a: float) -> float:
    wrapped = math.fmod(a + 180.0, 360.0)
    if wrapped <= 0.0:
        wrapped += 360.0
    return wrapped - 180.0


def _square(x: float, y: float) -> float:
    """x ** 2 + y ** 2, or inf where a square overflows, on which ** raises."""
    try:
        return x ** 2 + y ** 2
    except OverflowError:
        return math.inf


def _columns(rows: list[tuple], boundaries: list[float]) -> tuple:
    """The error terms of rows, parse_pairs rows read by position, as
    error_terms gives them for one source."""
    gt_x = [r[0] for r in rows]
    gt_y = [r[1] for r in rows]
    x = [r[3] - r[0] for r in rows]
    y = [r[4] - r[1] for r in rows]
    theta = [_wrap_deg(r[5] - r[2]) for r in rows]
    bands: list[list[float]] = [[] for _ in range(len(boundaries) + 1)]
    adds = [band.append for band in bands]
    for gx, gy, ex, ey in zip(gt_x, gt_y, x, y):
        adds[bisect_right(boundaries, math.hypot(gx, gy))](_square(ex, ey))
    return bands, x, y, theta, gt_x, gt_y, [r[2] for r in rows]


def error_terms(rows: list[tuple], boundaries: list[float]) -> dict[str, tuple]:
    """The map of a report: for each source the rows hold, the per-row terms
    its sums take, as plain lists marshal carries from a forked part.

    rows are parse_pairs rows, read by position. A source's
    terms are its rows' squared xy errors grouped by distance band, then
    its x, y and theta errors (est minus truth, theta wrapped to
    (-180, 180]) and its ground-truth x, y and theta, each a column in row
    order. The bands are half-open, [0,b1), [b1,b2), ..., [bk,inf), for
    positive, strictly increasing boundaries, by the ground truth's
    distance from the camera, its xy norm; a row exactly on a boundary
    lands in the upper band. A square too large for a float is inf.
    """
    runs = {source: [r for r in rows if r[6] == source] for source in SOURCES}
    return {source: _columns(run, boundaries) for source, run in runs.items() if run}


def join_terms(parts: list[dict[str, tuple]]) -> dict[str, tuple]:
    """The error_terms of consecutive runs of rows joined into those of all
    of them, column by column in order."""
    joined: dict[str, tuple] = {}
    for source in SOURCES:
        runs = [part[source] for part in parts if source in part]
        if runs:
            bands, *columns = zip(*runs)
            joined[source] = (
                [list(chain.from_iterable(band)) for band in zip(*bands)],
                *(list(chain.from_iterable(column)) for column in columns),
            )
    return joined


def _root_mean(squares, count: int) -> float:
    """The root mean of count squares, an iterable of non-negative floats;
    inf when their sum overflows."""
    try:
        total = math.fsum(squares)
    except OverflowError:
        return math.inf
    return math.sqrt(total / count)


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


def _summary(terms: tuple) -> dict:
    """The headline block of a report and of each compared source: xy RMSE,
    row count, and the signed mean and population std of each error."""
    bands, *errors = terms[:4]
    return {
        "rmse_mm": _root_mean(chain.from_iterable(bands), len(errors[0])),
        "count": len(errors[0]),
        **{block: _mean_std(e) for block, e in zip(ERROR_BLOCKS, errors)},
    }


def banded_report(terms: tuple, boundaries: list[float]) -> dict:
    """The reduce of a report: the report document of one non-empty
    source's error_terms, banded at the boundaries they were mapped with:
    overall RMSE and error statistics plus the RMSE of each distance band
    (None for an empty band)."""
    return {
        **_summary(terms),
        "bucket_boundaries_mm": boundaries,
        "buckets": [
            {
                "lo_mm": lo,
                "hi_mm": hi,
                "count": len(squares),
                "rmse_mm": _root_mean(squares, len(squares)) if squares else None,
            }
            for lo, hi, squares in zip([0.0] + boundaries, boundaries + [None], terms[0])
        ],
    }


def compare_terms(ours: tuple, reference: tuple) -> dict:
    """The reduce of a comparison: side-by-side statistics of two non-empty
    sources' error_terms over the same ground truths.

    Raises ValueError when the ground-truth multisets differ beyond 1e-9.
    """
    if len(ours[1]) != len(reference[1]):
        raise ValueError(
            f"sources cover {len(ours[1])} vs {len(reference[1])} ground truths"
        )
    # The last three columns are the ground truths' x, y and theta.
    for a, b in zip(sorted(zip(*ours[4:])), sorted(zip(*reference[4:]))):
        if max(abs(a[0] - b[0]), abs(a[1] - b[1]), abs(a[2] - b[2])) > 1e-9:
            raise ValueError(f"ground truths differ: {a} vs {b}")
    return {"ours": _summary(ours), "reference": _summary(reference)}


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


def save_pairs_csv(path: Path, pairs: list[tuple]) -> None:
    """The pairs table of rows in PAIRS_HEADER order."""
    _write_csv(path, PAIRS_HEADER, pairs)


def _pair(fields: list[str]) -> tuple:
    source = fields[6].strip()
    if source not in SOURCES:
        raise ValueError(f"source must be ours or reference, got {source!r}")
    values = tuple(map(float, fields[:6]))
    if not all(map(math.isfinite, values)):
        raise ValueError("pair entries must be finite")
    return (*values, source)


def parse_pairs(path: Path, lines: list[str], first: int) -> list[tuple]:
    """The rows of lines, data lines of the pairs table at path whose first
    is line number first, read by column position, each as a plain tuple in
    PAIRS_HEADER order, which marshal carries from a forked part; a
    malformed row, one with an entry that is not finite, or one whose source
    is neither ours nor reference raises ValueError naming the file and the
    line."""
    return _csv_rows(path, lines, first, len(PAIRS_HEADER), _pair)


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
    """The headline numbers of a banded_report document as a metric,value table."""
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
    """The scatter.csv rows of rows, parse_pairs rows read by position: the
    ground-truth rows, then the estimate rows, as two texts.

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
    """Fixed-decimal human summary of a banded_report document, used by the
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
