"""Inventory columns, material encoding, CSV ingestion, validation and splitting.

A pipe segment carries seven inventory attributes (age, diameter, length,
material, break count, installation year, wall thickness loss) plus an
optional remaining-useful-life target in years.  A `Dataset` stores them as
columns: one read-only float array per numeric CSV column (`rul_years` is NaN
where it is absent) and one array of material codes, each an index into
`MATERIALS = tuple(Material)`.  Materials are read as a numeric deterioration-impact score
(the EA value) so that every downstream model sees a purely numeric table.

The CSV text layer is column-wise and streams.  `_blocks`, the one
csv.reader pass, yields the header, then the data rows `_BLOCK` at a time,
each block transposed into one tuple of cells per header column: blank rows
are skipped, and a short row is padded with "" and a long row cut to the
header's width.  A leading UTF-8 byte-order mark is dropped, and a file
that is not UTF-8 or that csv.reader refuses (a field over
`csv.field_size_limit()`, say) raises `FileUnreadable`.
`write_lines` writes a header line and lines of text, each ended by \\r\\n,
`_BLOCK` lines at a time: every CSV file goes through it.  `write_columns`
joins columns of str into the lines that Python's csv writer writes for
them (`quoted`, then `write_lines`); `write_csv` is it on a Dataset's cells.

`ingest_csv` parses and judges each block while its cells are fresh: each
numeric column with one float array conversion (a per-cell pass only for a
block holding a cell that does not parse), the material column by encoding
each distinct spelling of the block once.  A row that fails is counted under
its first empty required column, else its first column in CSV_COLUMNS order
that does not parse (a non-finite number does not), else its first failing
check (`_judged`).  Only the kept rows' values stay and the block's text is
dropped; only `predict`, which echoes its input rows, asks (`echo=True`) for
each kept row as one line of text too: the csv writer's line for its cells,
joined while its block is read.  `validity_checks` is the one validator of
those checks: `ingest_csv` runs it on each block and `synth.generate` on
what it generated.

`split_dataset` labels each row Train, Validation or Test.  The labels are
stored as materials are: `split` is one read-only int8 array of codes, each
an index into `SPLITS = tuple(Split)`, and `rows_for(label)` gives the
ascending row indices of one label.

Features are scaled min-max by `normalize`/`denormalize`, each column from
its (min, max) pair; the MLP and ANFIS models keep these constants, and both
scale a prediction's inputs with `scaled_inputs` and its output with
`raw_target`.  A model document's scaling block is written by
`scaling_block` and read back by `read_scaling`; `check_inputs` and
`check_shapes` are the checks that model configs and documents share.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import compress, islice, zip_longest
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyAfterCleaning,
    EmptySplit,
    FileUnreadable,
    InvalidConfig,
    RatioSumInvalid,
    SchemaMismatch,
    UnknownColumn,
    UnknownMaterial,
)

# Canonical CSV schema.  rul_years is optional on ingest.
CSV_COLUMNS = (
    "age_years",
    "diameter_in",
    "length_ft",
    "material",
    "breaks",
    "install_year",
    "wall_thickness_loss_pct",
    "rul_years",
)
REQUIRED_COLUMNS = CSV_COLUMNS[:-1]
# the float columns of a Dataset: every CSV column but material
NUMERIC_COLUMNS = tuple(c for c in CSV_COLUMNS if c != "material")
# numeric columns read as whole numbers, truncated toward zero
_INTEGER_COLUMNS = ("age_years", "breaks", "install_year")

TARGET_COLUMN = "rul_years"

# decimals used when rounding a column for its mode; EA scores are the only
# non-integer-valued inventory column
COLUMN_MODE_PRECISION = {"material": 2}

DIAMETER_RANGE = (4.0, 24.0)
WTL_RANGE = (0.0, 100.0)
AGE_YEAR_TOLERANCE = 1  # fiscal vs calendar year slack
# no inventory number reaches it: below it whole numbers are exact, and the
# squares and cubes that stats and regression form stay finite
MAGNITUDE_LIMIT = 2.0 ** 53

# rows _blocks transposes and lines write_lines writes at a time
_BLOCK = 1024


class Material(Enum):
    """Pipe material with its deterioration-impact (EA) score."""

    POLYETHYLENE = "Polyethylene"
    DUCTILE_IRON = "DuctileIron"
    PVC = "PVC"
    STEEL = "Steel"
    CONCRETE = "Concrete"
    ASBESTOS = "Asbestos"
    CAST_IRON = "CastIron"

    @property
    def ea_value(self) -> float:
        return _EA_VALUES[self]


_EA_VALUES = {
    Material.POLYETHYLENE: 0.42,
    Material.DUCTILE_IRON: 1.67,
    Material.PVC: 1.67,
    Material.STEEL: 1.67,
    Material.CONCRETE: 5.01,
    Material.ASBESTOS: 6.68,
    Material.CAST_IRON: 8.35,
}
MATERIALS = tuple(Material)  # a material's code is its index here
_MATERIAL_NAMES = tuple(m.value for m in MATERIALS)
_EA_BY_CODE = np.array([m.ea_value for m in MATERIALS])

# Accepted spellings, keyed on lowercase with spaces/underscores/dashes removed.
# CI/DI/AC are the abbreviations used by the deterioration-model tables.
_MATERIAL_ALIASES = {
    "polyethylene": Material.POLYETHYLENE,
    "ductileiron": Material.DUCTILE_IRON,
    "di": Material.DUCTILE_IRON,
    "pvc": Material.PVC,
    "steel": Material.STEEL,
    "concrete": Material.CONCRETE,
    "asbestos": Material.ASBESTOS,
    "asbestoscement": Material.ASBESTOS,
    "ac": Material.ASBESTOS,
    "castiron": Material.CAST_IRON,
    "ci": Material.CAST_IRON,
}


def encode_material(name: str) -> Material:
    """Map a material name (case-insensitive, CI/DI/AC aliases) to its variant."""
    key = name.strip().lower().replace(" ", "").replace("_", "").replace("-", "")
    try:
        return _MATERIAL_ALIASES[key]
    except KeyError:
        raise UnknownMaterial(f"unknown pipe material: {name!r}") from None


class Split(Enum):
    TRAIN = "train"
    VALIDATION = "validation"
    TEST = "test"


SPLITS = tuple(Split)  # a split label's code is its index here


def _read_only(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


def _kept(values, dtype) -> np.ndarray:
    """values itself when it is a read-only array of dtype that owns its
    data, else a read-only copy: a caller's writeable array is neither
    frozen nor shared."""
    if (isinstance(values, np.ndarray) and values.dtype == dtype
            and values.flags.owndata and not values.flags.writeable):
        return values
    return _read_only(np.array(values, dtype=dtype))


def _split_codes(split, n: int) -> Optional[np.ndarray]:
    """The split codes as a read-only int8 array (`_kept`), DimensionMismatch
    unless there is one per row; None (no split) stays None."""
    if split is None:
        return None
    codes = _kept(split, np.int8)
    if codes.shape != (n,):
        raise DimensionMismatch(f"split of shape {codes.shape} beside {n} rows")
    return codes


def validity_checks(numeric: Mapping[str, np.ndarray], reference_year: int) -> list:
    """The validator: (column, mask of the rows that pass) of each check, in
    this order: age >= 0, diameter in range, 0 < length < MAGNITUDE_LIMIT,
    0 <= breaks < MAGNITUDE_LIMIT, wall loss in range, age within
    AGE_YEAR_TOLERANCE of reference_year - install_year, then |rul_years| <
    MAGNITUDE_LIMIT.  NaN fails every check but the last, as it is an absent
    target.  The install-year check is exact for whole numbers below
    MAGNITUDE_LIMIT, so an age or install year from it up fails that check:
    2011 - (-1e308) - 1e308 would be 0.
    """
    age, install = numeric["age_years"], numeric["install_year"]
    diameter, wtl = numeric["diameter_in"], numeric["wall_thickness_loss_pct"]
    exact = (np.abs(age) < MAGNITUDE_LIMIT) & (np.abs(install) < MAGNITUDE_LIMIT)
    # NaN stands in for the other rows' gap, which fails and cannot overflow
    gap = reference_year - np.where(exact, install, np.nan) - age
    return [
        ("age_years", age >= 0),
        ("diameter_in", (DIAMETER_RANGE[0] <= diameter) & (diameter <= DIAMETER_RANGE[1])),
        ("length_ft", (0 < numeric["length_ft"]) & (numeric["length_ft"] < MAGNITUDE_LIMIT)),
        ("breaks", (0 <= numeric["breaks"]) & (numeric["breaks"] < MAGNITUDE_LIMIT)),
        ("wall_thickness_loss_pct", (WTL_RANGE[0] <= wtl) & (wtl <= WTL_RANGE[1])),
        ("install_year", np.abs(gap) <= AGE_YEAR_TOLERANCE),
        (TARGET_COLUMN, ~(np.abs(numeric[TARGET_COLUMN]) >= MAGNITUDE_LIMIT)),
    ]


def _first_failure(failing: Sequence[tuple]) -> np.ndarray:
    """Each row's verdict over the (column, mask of failing rows) pairs: the
    index of its first failing mask, len(failing) when none fails."""
    stack = np.array([mask for _, mask in failing])
    bad = stack.any(axis=0)
    verdicts = np.full(len(bad), len(failing))
    # most rows fail nothing, so only the failing ones are searched
    verdicts[bad] = stack[:, bad].argmax(axis=0)
    return verdicts


@dataclass(frozen=True)
class CleaningReport:
    """Row accounting for one ingestion pass."""

    rows_read: int
    rows_kept: int
    rows_dropped: int
    drops_by_column: dict

    def render(self) -> str:
        lines = [
            f"rows read:    {self.rows_read}",
            f"rows kept:    {self.rows_kept}",
            f"rows dropped: {self.rows_dropped}",
        ]
        for col, n in sorted(self.drops_by_column.items()):
            lines.append(f"  {col}: {n}")
        return "\n".join(lines)


@dataclass(frozen=True)
class Dataset:
    """Inventory columns in row order.

    `numeric` maps each of NUMERIC_COLUMNS to a float array, rul_years NaN
    where absent; `materials` holds each row's material code, its index in
    MATERIALS, and `split` (None before `split_dataset`) each row's split
    code, its index in SPLITS.  Each is kept as a read-only array (`_kept`):
    one that is already read-only, of its dtype and owns its data is shared,
    anything else is copied.  So a Dataset is immutable and safe to share
    across workers, and `ingest_csv`, `synth.generate` and `split_dataset`,
    which freeze the arrays they build, hand them over without a copy.
    """

    numeric: Mapping[str, np.ndarray]
    materials: np.ndarray
    split: Optional[np.ndarray] = None

    def __post_init__(self):
        numeric = {name: _kept(self.numeric[name], float) for name in NUMERIC_COLUMNS}
        materials = _kept(self.materials, np.int8)
        for values in numeric.values():
            if values.shape != materials.shape:
                raise DimensionMismatch(f"column of shape {values.shape} beside "
                                        f"{materials.shape} material codes")
        object.__setattr__(self, "numeric", numeric)
        object.__setattr__(self, "materials", materials)
        object.__setattr__(self, "split", _split_codes(self.split, len(materials)))

    def __len__(self) -> int:
        return len(self.materials)

    def rows_for(self, label: Split) -> np.ndarray:
        """Ascending indices of the rows labelled `label`; FeatureMatrix
        reads its split through this same function."""
        if self.split is None:
            raise ValueError("no split labels")
        return np.flatnonzero(self.split == SPLITS.index(label))

    def has_rul(self) -> bool:
        return not np.isnan(self.numeric[TARGET_COLUMN]).any()

    def column(self, name: str) -> np.ndarray:
        """Raw numeric values of one column; material yields EA values."""
        if name == "material":
            return _EA_BY_CODE[self.materials]
        if name not in self.numeric:
            raise UnknownColumn(f"no such column: {name!r}")
        if name == TARGET_COLUMN and not self.has_rul():
            raise UnknownColumn("dataset has records without rul_years")
        return self.numeric[name]

    def matrix(self, names: Sequence[str]) -> np.ndarray:
        """n x d raw values of the named columns, in the requested order."""
        return np.column_stack([self.column(name) for name in names])


def _blocks(path):
    """Yield a CSV file's header row, then its data rows _BLOCK at a time,
    each block as one tuple of cells per header column.

    Blank rows are skipped, as csv.DictReader skips them; a short row reads
    as padded with "" and a long row as cut to the header's width.  A
    leading byte-order mark is dropped; a file that is not UTF-8 or that
    csv.reader refuses raises FileUnreadable.
    """
    try:
        fh = open(path, "r", newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise FileUnreadable(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            yield header
            rows = filter(None, reader)
            while block := list(islice(rows, _BLOCK)):
                columns = tuple(islice(zip_longest(*block, fillvalue=""), len(header)))
                # the columns past every row of the block read as empty
                yield columns + (("",) * len(block),) * (len(header) - len(columns))
        except UnicodeDecodeError as exc:
            raise FileUnreadable(f"cannot read {path} as UTF-8: {exc}") from exc
        except csv.Error as exc:
            raise FileUnreadable(f"cannot read {path} as CSV: {exc}") from exc


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
        # only a block holding an unparseable cell is parsed cell by cell
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


def _judged(block, position, reference_year: int):
    """(parsed, codes, failing, verdicts) of one block of `_blocks`.

    `parsed` maps each of NUMERIC_COLUMNS to the block's floats, NaN where a
    cell is empty, does not parse or is not finite (rul_years NaN where it
    is absent), and `codes` holds its material codes.  `failing` lists
    (column, mask of failing rows): first the empty required cells, in
    REQUIRED_COLUMNS order, then the cells that do not parse, in CSV_COLUMNS
    order, then the validator's checks; each row's verdict is the index of
    its first failing mask, len(failing) for a row that is kept.
    """
    n = len(block[0])
    codes, material_empty = _material_codes(block[position["material"]])
    empty, unparsed, parsed = {"material": material_empty}, {"material": codes < 0}, {}
    for name in NUMERIC_COLUMNS:
        if name not in position:  # rul_years is optional
            parsed[name] = np.full(n, np.nan)
            continue
        values, empty[name] = _parse_numbers(block[position[name]])
        bad = ~np.isfinite(values)
        if name == TARGET_COLUMN and empty[name] is not None:
            bad &= ~empty[name]  # an empty rul_years is absent, not invalid
        if bad.any():
            values[bad] = np.nan
            unparsed[name] = bad
        parsed[name] = np.trunc(values) + 0.0 if name in _INTEGER_COLUMNS else values
    failing = [(c, empty[c]) for c in REQUIRED_COLUMNS if empty[c] is not None]
    failing += [(c, unparsed[c]) for c in CSV_COLUMNS if c in unparsed]
    failing += [(c, ~passes) for c, passes in validity_checks(parsed, reference_year)]
    return parsed, codes, failing, _first_failure(failing)


def ingest_csv(path, reference_year: int, echo: bool = False):
    """Read the canonical CSV schema, dropping and counting invalid rows.

    Returns (Dataset, CleaningReport).  Rows with any missing, unparseable
    or non-finite cell, or failing `validity_checks`, are removed, never
    imputed, and counted under their first failing column (`_judged`);
    surviving rows keep file order.  Each block of `_blocks` is judged as it
    is read.  With `echo`, a third item (header, lines) holds the header and
    one str per kept row: the line Python's csv writer writes for the row's
    cells as they were read, padded or cut to the header's width, without a
    line end, so that `predict` can write them back.
    """
    blocks = _blocks(path)
    header = next(blocks)
    # a duplicated header name reads from its last copy, as in csv.DictReader
    position = {name: j for j, name in enumerate(header)}
    missing = [c for c in REQUIRED_COLUMNS if c not in position]
    if missing:
        for _ in blocks:  # a file that cannot be read is reported as such first
            pass
        raise SchemaMismatch(f"missing required column(s): {', '.join(missing)}")
    numeric, codes = {name: [] for name in NUMERIC_COLUMNS}, []
    rows_read, rows_kept, drops, lines = 0, 0, {}, []
    for block in blocks:
        parsed, block_codes, failing, verdicts = _judged(block, position, reference_year)
        kept = verdicts == len(failing)
        dropped = verdicts[~kept]
        counts = np.bincount(dropped)
        # drops are counted in the order their columns first fail in the file
        for k in dict.fromkeys(dropped.tolist()):
            drops[failing[k][0]] = drops.get(failing[k][0], 0) + int(counts[k])
        rows_kept += int(np.count_nonzero(kept))
        rows_read += len(kept)
        for name, values in parsed.items():
            numeric[name].append(values[kept])
        codes.append(block_codes[kept])
        if echo:
            lines += compress(map(",".join, zip(*map(quoted, block))), kept.tolist())
    if not rows_kept:
        raise EmptyAfterCleaning(f"no valid rows in {path}")
    report = CleaningReport(
        rows_read=rows_read,
        rows_kept=rows_kept,
        rows_dropped=rows_read - rows_kept,
        drops_by_column=drops,
    )
    # each column's blocks are freed as it is joined
    numeric = {name: _read_only(np.concatenate(numeric.pop(name))) for name in NUMERIC_COLUMNS}
    dataset = Dataset(numeric, _read_only(np.concatenate(codes)))
    return (dataset, report, (header, lines)) if echo else (dataset, report)


def write_csv(dataset: Dataset, path) -> None:
    """Write a dataset in the canonical CSV schema."""
    columns = [
        list(map(_MATERIAL_NAMES.__getitem__, dataset.materials.tolist())) if name == "material"
        else _cells(dataset.numeric[name])
        for name in CSV_COLUMNS
    ]
    write_columns(path, CSV_COLUMNS, columns)


def _needs_quotes(text: str) -> bool:
    # four substring scans take ~1% of the time of one regex search for the four characters
    return any(char in text for char in '",\r\n')


def quoted(cells: Sequence[str]) -> Sequence[str]:
    """The cells as the csv writer's QUOTE_MINIMAL writes them: a cell
    holding a quote, comma or line break is quoted and its quotes doubled.
    The column is scanned once, joined, and cell by cell only if it holds one."""
    if not _needs_quotes("".join(cells)):
        return cells
    return ['"' + c.replace('"', '""') + '"' if _needs_quotes(c) else c for c in cells]


def write_lines(path, header_line: str, lines: Iterable[str]) -> None:
    """Write the header line, then each of the lines, every line ended by
    \\r\\n as the csv writer ends it; the lines are written _BLOCK at a time."""
    lines = iter(lines)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(header_line + "\r\n")
        while block := list(islice(lines, _BLOCK)):
            fh.write("\r\n".join(block) + "\r\n")


def write_columns(path, header: Sequence[str], columns: Sequence[Sequence[str]]) -> None:
    """Write one header cell and one equal-length column of str per CSV
    column: the text Python's csv writer (excel dialect, QUOTE_MINIMAL,
    \\r\\n line ends) writes for the header and the rows, through
    `write_lines`.  DimensionMismatch unless there is one column per header
    cell and all columns have one length."""
    if len(columns) != len(header):
        raise DimensionMismatch(f"{len(columns)} columns beside {len(header)} header cells")
    n = len(columns[0]) if columns else 0
    if any(len(column) != n for column in columns):
        raise DimensionMismatch(f"columns of lengths {sorted({len(c) for c in columns})}")
    header, columns = quoted(header), [quoted(column) for column in columns]
    if len(header) == 1:
        # the csv writer quotes a row's lone empty cell, which would read back as a blank row
        header, *columns = [['""' if c == "" else c for c in cells] for cells in (header, *columns)]
    write_lines(path, ",".join(header), map(",".join, zip(*columns)))


def _cells(values: np.ndarray) -> list:
    # repr keeps round-trips exact while writing integers compactly; NaN is
    # an absent rul_years.  The whole numbers below 2**53, every cell of most
    # columns, are written from one int64 conversion.
    small = np.abs(values) < 2.0 ** 53
    whole = small & (np.trunc(values) == values)
    if whole.all():
        cells = list(map(str, values.astype(np.int64).tolist()))
    else:
        cells = list(map(repr, values.tolist()))
        ints = np.flatnonzero(whole)
        for i, text in zip(ints.tolist(), map(str, values[ints].astype(np.int64).tolist())):
            cells[i] = text
        rest = np.flatnonzero(~small)   # NaN, infinities and whole numbers from 2**53 up
        for i, x in zip(rest.tolist(), values[rest].tolist()):
            cells[i] = repr(int(x)) if x.is_integer() else repr(x) if x == x else ""
    for i in np.flatnonzero(np.signbit(values) & (values == 0)).tolist():
        cells[i] = "-0.0"  # str(0) would drop the sign
    return cells


def split_dataset(dataset: Dataset, ratios, seed: int) -> Dataset:
    """Assign Train/Validation/Test labels by a seed-deterministic shuffle.

    Label counts are floor(ratio * n); leftover records go to Train first,
    then Validation.
    """
    train_r, val_r, test_r = ratios
    if min(train_r, val_r, test_r) <= 0:
        raise RatioSumInvalid(f"ratios must be positive, got {ratios}")
    if abs(train_r + val_r + test_r - 1.0) > 1e-9:
        raise RatioSumInvalid(f"ratios must sum to 1, got {ratios}")
    n = len(dataset)
    counts = [int(np.floor(r * n)) for r in (train_r, val_r, test_r)]
    for i in range(n - sum(counts)):
        counts[i % 3] += 1
    order = np.random.default_rng(seed).permutation(n)
    # the first counts[0] rows of the shuffled order train, and so on
    codes = np.empty(n, dtype=np.int8)
    codes[order] = np.repeat(np.arange(len(SPLITS)), counts)
    return replace(dataset, split=_read_only(codes))


def _constant_pairs(constants, n_columns: int):
    """(a, b) arrays of one constant pair per column."""
    pairs = np.asarray(constants, dtype=float)
    if pairs.shape != (n_columns, 2):
        raise DimensionMismatch(f"expected {n_columns} (a, b) pairs, got shape {pairs.shape}")
    return pairs[:, 0], pairs[:, 1]


def normalize(values, constants) -> np.ndarray:
    """Map each column of an n x d matrix from [a, b] onto [0, 1] by its
    (min, max) constants (a, b); a constant column (a == b) maps to 0.0.
    Empty constants leave the values as they are (a model never fitted to
    data).
    """
    values = np.asarray(values, dtype=float)
    if not len(constants):
        return values
    a, b = _constant_pairs(constants, values.shape[-1])
    scale = b - a
    out = np.zeros_like(values)
    # column by column: numpy broadcasts slowly over a short last axis
    for j in np.flatnonzero(scale):
        out[..., j] = (values[..., j] - a[j]) / scale[j]
    return out


def denormalize(values, constants) -> np.ndarray:
    """Inverse of `normalize`; a constant column comes back as a."""
    values = np.asarray(values, dtype=float)
    a, b = _constant_pairs(constants, values.shape[-1])
    return values * (b - a) + a


def scaled_inputs(model, raw) -> np.ndarray:
    """A model's normalized inputs for an n x d matrix of raw-unit rows;
    DimensionMismatch unless d is the model's number of inputs.  A model with
    no feature constants (a polynomial) takes raw units: rows come back as is."""
    raw = np.atleast_2d(np.asarray(raw, dtype=float))
    d = len(model.input_columns)
    if raw.shape[1] != d:
        raise DimensionMismatch(f"expected {d} inputs, got {raw.shape[1]}")
    return normalize(raw, model.feature_constants)


def raw_target(model, y: np.ndarray) -> np.ndarray:
    """RUL years of a model's normalized outputs y.

    The target was scaled from [a, b]; an output outside that range is an
    extrapolation, so it is pinned to the trained bounds.
    """
    y = denormalize(y[:, None], (model.target_constants,))[:, 0]
    return np.clip(y, *model.target_constants)


def whole_number(key: str, value) -> int:
    """The document value of key as an int; a bool or a float with a
    fractional part raises InvalidConfig."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise InvalidConfig(f"{key} must be a whole number, got {value!r}")
    return int(value)


def check_inputs(columns, key: str) -> None:
    """InvalidConfig unless the input columns, named `key` in the message,
    are one or more distinct column names, none of them the target."""
    if not columns:
        raise InvalidConfig(f"{key} must be non-empty")
    if not all(isinstance(name, str) for name in columns):
        raise InvalidConfig(f"{key} must be column names, got {list(columns)!r}")
    if len(set(columns)) != len(columns):
        raise InvalidConfig(f"{key} repeat a column: {tuple(columns)}")
    if TARGET_COLUMN in columns:
        raise InvalidConfig(f"the target {TARGET_COLUMN} cannot be an input")


def scaling_block(model) -> dict:
    """The keys of a model document that hold its min-max scaling: one
    (min, max) pair per input, the target's pair and the mode."""
    return {
        "feature_constants": [list(c) for c in model.feature_constants],
        "target_constants": list(model.target_constants),
        "norm_mode": "minmax",
    }


def read_scaling(payload: dict) -> dict:
    """The feature_constants and target_constants of a model document, as a
    model keeps them; InvalidConfig unless its norm_mode is "minmax" (or
    absent)."""
    norm_mode = payload.get("norm_mode", "minmax")
    if norm_mode != "minmax":
        raise InvalidConfig(f"unknown norm_mode: {norm_mode!r}")
    return {
        "feature_constants": tuple(tuple(c) for c in payload["feature_constants"]),
        "target_constants": tuple(payload["target_constants"]),
    }


def check_shapes(model, **expected) -> None:
    """Check a model loaded from a document: InvalidConfig unless every
    number is finite and every scaling pair is a (min, max) below
    MAGNITUDE_LIMIT, whose range max - min cannot overflow; DimensionMismatch
    unless each named array has its expected shape, with one pair per input
    (or none) and one for the target.  A value that is not a float raises
    TypeError, ValueError or OverflowError."""
    expected["target_constants"] = (2,)
    if len(model.feature_constants):
        expected["feature_constants"] = (len(model.input_columns), 2)
    for name, shape in expected.items():
        values = np.asarray(getattr(model, name), dtype=float)
        if values.shape != shape:
            raise DimensionMismatch(f"{name} has shape {values.shape}, expected {shape}")
        if not np.isfinite(values).all():
            raise InvalidConfig(f"{name} holds a number that is not finite")
    for name in ("feature_constants", "target_constants"):
        pairs = np.asarray(getattr(model, name), dtype=float).reshape(-1, 2)
        if not ((np.abs(pairs) < MAGNITUDE_LIMIT).all() and (pairs[:, 0] <= pairs[:, 1]).all()):
            raise InvalidConfig(f"{name} must be (min, max) pairs below {MAGNITUDE_LIMIT:.0f}")


@dataclass(frozen=True)
class FeatureMatrix:
    """Numeric design matrix and its min-max scaling constants.

    Raw values are stored, kept as a Dataset keeps its columns (`_kept`),
    so a caller's writeable array is copied, not frozen; `constants`, each
    column's (min, max), are derived from them on construction, and
    `normalized()` maps each column onto [0, 1].  A constant column maps to
    0.0 with min == max recorded.
    """

    values: np.ndarray            # n x d raw values
    column_names: tuple
    split: Optional[np.ndarray] = None  # per-row codes into SPLITS, as in Dataset
    constants: tuple = field(init=False)   # per column: (min, max)

    def __post_init__(self):
        object.__setattr__(self, "values", _kept(self.values, float))
        object.__setattr__(self, "split", _split_codes(self.split, self.n))
        bounds = zip(self.values.min(axis=0).tolist(), self.values.max(axis=0).tolist())
        object.__setattr__(self, "constants", tuple(bounds))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def column_index(self, name: str) -> int:
        try:
            return self.column_names.index(name)
        except ValueError:
            raise UnknownColumn(f"no such column: {name!r}") from None

    def _indices(self, names: Sequence[str]) -> list:
        return [self.column_index(name) for name in names]

    def raw_column(self, name: str) -> np.ndarray:
        return self.values[:, self.column_index(name)]

    def raw_matrix(self, names: Sequence[str]) -> np.ndarray:
        """n x d raw values of the named columns, in the requested order."""
        return self.values[:, self._indices(names)]

    def column_constants(self, names: Sequence[str]) -> tuple:
        """The (a, b) constants of the named columns, in the requested order."""
        return tuple(self.constants[j] for j in self._indices(names))

    def normalized(self) -> np.ndarray:
        return normalize(self.values, self.constants)

    rows_for = Dataset.rows_for

    def split_arrays(self, input_columns: Sequence[str]) -> tuple:
        """Normalized (x_train, y_train, x_val, y_val) for training on rul_years.

        Without split labels every row trains.  When no row is labelled
        Validation the train rows validate; both trainers take this fallback
        from here.  Raises EmptySplit when no row is labelled Train.
        """
        norm = self.normalized()
        x = norm[:, self._indices(input_columns)]
        y = norm[:, self.column_index(TARGET_COLUMN)]
        if self.split is None:
            train_rows = val_rows = np.arange(self.n)
        else:
            train_rows, val_rows = self.rows_for(Split.TRAIN), self.rows_for(Split.VALIDATION)
        if train_rows.size == 0:
            raise EmptySplit("train split is empty")
        val_rows = val_rows if val_rows.size else train_rows
        return x[train_rows], y[train_rows], x[val_rows], y[val_rows]


def build_features(dataset: Dataset, columns: Iterable[str]) -> FeatureMatrix:
    """Assemble the requested columns into a FeatureMatrix.

    Column order matches the request.  Material is encoded as EA values.
    """
    columns = tuple(columns)
    if len(dataset) == 0:
        raise EmptyAfterCleaning("dataset is empty")
    values = _read_only(dataset.matrix(columns))  # raises UnknownColumn
    return FeatureMatrix(values, columns, dataset.split)
