"""Reference computations that the ANFIS consequent solve is checked against,
the five layers of one ANFIS inference pass, the ANFIS output and premise
gradient as two passes that each form the rule outputs (`two_pass_output`,
`two_pass_gradients`), the rule lists that an ANFIS
model document must not load with, greedy term selection by one
least-squares refit per candidate, each row's first failing validity check
(`first_failing_column`), and the CSV ingest as a whole-file read
(`read_table`) followed by a column-wise parse (`clean_table`), which also
names the rows it keeps (`kept_rows`), and whose echo writes each kept row
through the stdlib csv.writer (`csv_line`); and a deterioration model read
back from its document (`deterioration_from_dict`)."""

import csv
import io
from dataclasses import dataclass
from itertools import islice, zip_longest
from typing import Sequence

import numpy as np

from pipelife import anfis, data, regression
from pipelife.data import (
    _INTEGER_COLUMNS,
    CSV_COLUMNS,
    MATERIALS,
    REQUIRED_COLUMNS,
    TARGET_COLUMN,
    CleaningReport,
    Dataset,
    encode_material,
    validity_checks,
)
from pipelife.errors import (
    DimensionMismatch,
    EmptyAfterCleaning,
    FileUnreadable,
    SchemaMismatch,
    UnknownMaterial,
)

# rows read_table transposes at a time; any size gives the same table
_BLOCK = 1024


@dataclass(frozen=True)
class LayerTrace:
    """Intermediate values of one inference pass."""

    memberships: np.ndarray      # d x m
    firing: np.ndarray           # R
    normalized: np.ndarray       # R
    rule_outputs: np.ndarray     # R
    weighted_outputs: np.ndarray  # R
    output: float


def infer(model, x) -> tuple:
    """Evaluate one normalized feature row through all five layers with the
    batch forward pass: (y_hat, LayerTrace)."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size != model.n_inputs:
        raise DimensionMismatch(f"expected {model.n_inputs} inputs, got {x.size}")
    batch = x[None, :]
    y, wbar = anfis._forward(model, batch)
    # _forward normalizes the firing in place, so the firing is rebuilt
    w = anfis._grid_product(anfis._memberships(model, batch))[:, 0]
    f = anfis._rule_outputs(model, batch)[0]
    y = float(y[0])
    return y, LayerTrace(
        memberships=anfis._gaussian(x[..., None], model.centers, model.sigmas),
        firing=w,
        normalized=wbar[0],
        rule_outputs=f,
        weighted_outputs=wbar[0] * f,
        output=y,
    )


def consequent_design(model, x):
    """The full design Phi: row n holds the blocks wbar_nr * [x_n, 1] for
    every rule r, R (d + 1) columns in all."""
    _, wbar = anfis._forward(model, x)
    x1 = np.hstack([x, np.ones((x.shape[0], 1))])
    blocks = wbar[:, :, None] * x1[:, None, :]
    return blocks.reshape(x.shape[0], -1)


def two_pass_output(model, x, wbar):
    """Layer 5, sum_r wbar_r f_r, from the R x B rule outputs of one block of
    rows at a time, as its own pass."""
    y = np.empty(len(x))
    for rows in anfis._row_blocks(len(x), anfis.LSE_BLOCK_ROWS):
        f = anfis._rule_outputs(model, x[rows]).T
        f *= wbar[rows].T
        y[rows] = f.sum(axis=0)
    return y


def two_pass_gradients(model, x, t):
    """(y, (d(MSE)/d(center), d(MSE)/d(sigma))): y from `two_pass_output`, and
    the gradient from a second pass that forms the rule outputs again."""
    n, d = x.shape
    m = model.centers.shape[1]
    wbar = anfis._firing(model, x)
    y = two_pass_output(model, x, wbar)
    scale = (2.0 / n) * (y - t)
    indicators = np.eye(m)[model.rules].reshape(-1, d * m).T
    acc = np.empty((d * m, n))
    for rows in anfis._row_blocks(n, anfis.LSE_BLOCK_ROWS):
        glw = anfis._rule_outputs(model, x[rows]).T
        glw -= y[rows]
        glw *= wbar[rows].T
        glw *= scale[rows]
        acc[:, rows] = indicators @ glw
    acc = acc.reshape(d, m, n)
    diff = x.T[:, None, :] - model.centers[:, :, None]
    acc *= diff
    grad_c = acc.sum(axis=2) / model.sigmas**2
    acc *= diff
    grad_s = acc.sum(axis=2) / model.sigmas**3
    return y, (grad_c, grad_s)


# edits of a 3 x 3 grid's rule list that are not the grid, each index in range
NOT_THE_GRID = {
    "permuted": lambda rules: rules[::-1],
    "halved": lambda rules: rules[: len(rules) // 2],
    "repeated_rule": lambda rules: rules + rules[-1:],
    "in_range_index": lambda rules: [[2] + rules[0][1:]] + rules[1:],
}


def ridge_lstsq(phi, y):
    """The oracle of the consequent solve: lstsq on the full design stacked
    over sqrt(RIDGE n) I against [y, 0], which minimizes
    mean((phi theta - y)^2) + RIDGE |theta|^2."""
    n, columns = phi.shape
    stacked = np.vstack([phi, np.sqrt(anfis.RIDGE * n) * np.eye(columns)])
    return np.linalg.lstsq(stacked, np.concatenate([y, np.zeros(columns)]), rcond=None)[0]


def greedy_terms_by_refit(phi_full, y):
    """The oracle of greedy term selection: from the intercept, refit the
    chosen columns plus each remaining one by lstsq and add the best while
    R² rises by at least GREEDY_R2_GAIN and fewer terms than rows are
    chosen.  Equal R² goes to the later column."""
    chosen = [0]
    remaining = list(range(1, phi_full.shape[1]))
    theta, _ = regression._solve(phi_full[:, chosen], y)
    best_r2, _ = regression._r2(y, phi_full[:, chosen] @ theta)
    while remaining and len(chosen) < y.size:
        scores = []
        for idx in remaining:
            cand = chosen + [idx]
            theta, _ = regression._solve(phi_full[:, cand], y)
            r2, _ = regression._r2(y, phi_full[:, cand] @ theta)
            scores.append((r2, idx))
        r2, idx = max(scores)
        if r2 - best_r2 < regression.GREEDY_R2_GAIN:
            break
        chosen.append(idx)
        remaining.remove(idx)
        best_r2 = r2
    return chosen


def fit_greedy_by_refit(age, wtl, rul, degree, material="Custom"):
    """fit_polynomial(..., "greedy") with the terms chosen by
    greedy_terms_by_refit."""
    age, wtl, y = (np.asarray(v, dtype=float) for v in (age, wtl, rul))
    exponents = regression._basis_exponents(degree)
    a_scale = float(np.abs(age).max()) or 1.0
    w_scale = float(np.abs(wtl).max()) or 1.0
    phi_full = regression._design(age, wtl, exponents, a_scale, w_scale)
    chosen = greedy_terms_by_refit(phi_full, y)
    phi = phi_full[:, chosen]
    theta, degenerate = regression._solve(phi, y)
    r2_fit, constant_target = regression._r2(y, phi @ theta)
    terms = []
    for coef, idx in zip(theta, chosen):
        a_pow, w_pow = exponents[idx]
        terms.append((float(coef / (a_scale**a_pow * w_scale**w_pow)), a_pow, w_pow))
    return regression.DeteriorationModel(
        material=material, terms=tuple(terms), r2_fit=float(r2_fit),
        degenerate=degenerate or constant_target,
    )


def deterioration_from_dict(payload: dict) -> regression.DeteriorationModel:
    """The model a deterioration document's to_dict keys describe."""
    return regression.DeteriorationModel(
        material=payload["material"],
        terms=tuple((float(c), int(a), int(w)) for c, a, w in payload["terms"]),
        r2_fit=float(payload["r2_fit"]),
        degenerate=bool(payload.get("degenerate", False)),
    )


def first_failing_column(numeric, reference_year: int) -> np.ndarray:
    """Each row's first failing column among `validity_checks`, '' when the
    row is valid."""
    failing = [(name, ~passes) for name, passes in validity_checks(numeric, reference_year)]
    return np.array([name for name, _ in failing] + [""])[data._first_failure(failing)]


def read_table(path):
    """(header, columns) of a CSV file: the first row's cells, then one list
    of cells per header column.

    Blank rows are skipped, as csv.DictReader skips them; a short row reads
    as padded with "" and a long row as cut to the header's width.  The rows
    are transposed _BLOCK at a time, so only one block's row lists are alive
    beside the columns.  A leading byte-order mark is dropped; a file that is
    not UTF-8 or that csv.reader refuses raises FileUnreadable.
    """
    try:
        fh = open(path, "r", newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise FileUnreadable(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            columns = [[] for _ in header]
            rows = filter(None, reader)
            while block := list(islice(rows, _BLOCK)):
                cells = islice(zip_longest(*block, fillvalue=""), len(header))
                # the columns past every row of the block read as empty
                for column, block_cells in zip_longest(columns, cells, fillvalue=[""] * len(block)):
                    column.extend(block_cells)
        except UnicodeDecodeError as exc:
            raise FileUnreadable(f"cannot read {path} as UTF-8: {exc}") from exc
        except csv.Error as exc:
            raise FileUnreadable(f"cannot read {path} as CSV: {exc}") from exc
    return header, columns


def _empty(cells) -> np.ndarray:
    return np.fromiter(map("".__eq__, cells), dtype=bool, count=len(cells))


def _number_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return np.nan


def _parse_numbers(cells):
    """(values, empty) of one column's cells: float() of each cell, NaN where
    a cell does not parse, and the mask of empty cells (None when none is)."""
    try:
        return np.array(cells, dtype=float), None
    except ValueError:
        # only a column holding an unparseable cell is parsed cell by cell
        values = np.fromiter(map(_number_or_nan, cells), dtype=float, count=len(cells))
        return values, _empty(cells)


def _material_codes(cells):
    """(codes, empty) of one column's cells: each material's code, -1 where
    the name is unknown or empty, and the mask of empty cells (None when none is)."""
    codes = {}
    for name in set(cells):
        try:
            codes[name] = MATERIALS.index(encode_material(name))
        except UnknownMaterial:
            codes[name] = -1
    values = np.fromiter(map(codes.__getitem__, cells), dtype=np.int8, count=len(cells))
    return values, _empty(cells) if "" in codes else None


def clean_table(header: Sequence[str], columns: Sequence[Sequence[str]], reference_year: int,
                source):
    """Parse and validate the columns of `read_table`.

    Returns (Dataset, CleaningReport) as `ingest_csv` does, then the data
    row index (0 = first data row, blank rows not counted) of every kept
    record; `source` names the input in the error raised when no row
    survives.  The columns are not changed.
    """
    # a duplicated header name reads from its last copy, as in csv.DictReader
    position = {name: j for j, name in enumerate(header)}
    missing = [c for c in REQUIRED_COLUMNS if c not in position]
    if missing:
        raise SchemaMismatch(f"missing required column(s): {', '.join(missing)}")
    n = len(columns[0])
    empty, unparsed, parsed = {}, {}, {}
    for name in CSV_COLUMNS:
        if name not in position:  # rul_years is optional
            parsed[name] = np.full(n, np.nan)
            continue
        cells = columns[position[name]]
        if name == "material":
            codes, empty[name] = _material_codes(cells)
            unparsed[name] = codes < 0
            continue
        values, empty[name] = _parse_numbers(cells)
        bad = ~np.isfinite(values)
        if name == TARGET_COLUMN and empty[name] is not None:
            bad &= ~empty[name]  # an empty rul_years is absent, not invalid
        if bad.any():
            values[bad] = np.nan
            unparsed[name] = bad
        parsed[name] = np.trunc(values) + 0.0 if name in _INTEGER_COLUMNS else values
    failing = first_failing_column(parsed, reference_year)
    # an empty required cell outranks a cell that does not parse, which
    # outranks the validator; within each, the first column counts
    precedence = [(c, empty.get(c)) for c in REQUIRED_COLUMNS]
    precedence += [(c, unparsed.get(c)) for c in CSV_COLUMNS]
    precedence = [(c, mask) for c, mask in precedence if mask is not None and mask.any()]
    if precedence:
        names, masks = zip(*precedence)
        hits = np.column_stack(masks)
        failing = np.where(hits.any(axis=1), np.array(names)[hits.argmax(axis=1)], failing)
    kept = failing == ""
    kept_rows = tuple(np.flatnonzero(kept).tolist())
    if not kept_rows:
        raise EmptyAfterCleaning(f"no valid rows in {source}")
    # drops are counted in the order their columns first fail in the file
    labels, first, counts = np.unique(failing[~kept], return_index=True, return_counts=True)
    report = CleaningReport(
        rows_read=n,
        rows_kept=len(kept_rows),
        rows_dropped=n - len(kept_rows),
        drops_by_column={str(labels[k]): int(counts[k]) for k in np.argsort(first)},
    )
    numeric = {name: values[kept] for name, values in parsed.items()}
    return Dataset(numeric, codes[kept]), report, kept_rows


def csv_line(cells) -> str:
    """The line the stdlib csv.writer writes for one row, without its line
    end: each row is written alone, as a quoted cell may hold a line break."""
    text = io.StringIO(newline="")
    csv.writer(text).writerow(cells)
    return text.getvalue().removesuffix("\r\n")


def ingest_csv(path, reference_year, echo=False):
    """`read_table` then `clean_table`; with `echo`, a third item (header,
    lines) holds the header and the `csv_line` of each kept row, padded or
    cut to the header's width, as `predict` echoes it."""
    header, columns = read_table(path)
    dataset, report, kept = clean_table(header, columns, reference_year, path)
    if not echo:
        return dataset, report
    # the k-th record came from data row kept[k]
    return dataset, report, (header, [csv_line([column[i] for column in columns])
                                      for i in kept])


def kept_rows(path, reference_year) -> tuple:
    """The data row index (0 = first data row, blank rows not counted) of
    every record the whole-file ingest keeps, in file order."""
    return clean_table(*read_table(path), reference_year, path)[2]
