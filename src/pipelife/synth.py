"""Seeded synthetic pipe-inventory generator.

Stands in for the proprietary municipal datasets: records are drawn so the
age, wall-thickness-loss and RUL columns land on the published inventory
moments, and so the qualitative structure holds: wall loss grows with age
and deteriorates faster for high-EA materials, RUL falls with both age and
wall loss, and a ten-point wall-loss increase roughly halves RUL near the
dataset mean.

Construction per record (all draws from one seeded generator, fixed order):

    age          ~ truncated normal mixture, integers in [1, 124]
    install_year = DEFAULT_REFERENCE_YEAR - age
    material     ~ MATERIAL_MIX (cast iron dominant)
    wall loss    = slope * age * impact(ea) + base + ea_gain * ea + noise,
                   clipped to [1, 59]; impact(ea) = 0.6 + 0.4 * ea / 8.35
    breaks       ~ Poisson(rate * age * ea / 8.35), capped at 95
    diameter     ~ weighted choice of standard sizes, mode 6 in
    length       ~ lognormal, mean near 2,870 ft
    rul          = expected_rul + noise, clipped to [3, 90], where
                   expected_rul = asl(material) - 0.2 * age - beta * wall loss

The direct age coefficient is deliberately below one: the published moments
put the RUL spread (std 20.46) far below the age spread (std 30.31), which
no unit-slope age term can reproduce, and a unit slope would park a quarter
of all records on the RUL floor.  Most of the age effect therefore flows
through wall thickness loss, leaving an observable age->RUL slope near 0.74
per year.  The anticipated-service-life constants (ASL_BY_MATERIAL) and beta
(RUL_WTL_BETA) are calibration constants chosen to land the published moment
targets under this construction; they are not field data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import MATERIALS, Dataset, Material, validity_checks
from .errors import EmptyDataset, InvalidConfig
from .stats import summarize_columns

DEFAULT_REFERENCE_YEAR = 2011

# age parent distribution before truncation to [1, 124]: a broad base plus a
# bump around the heavy-installation decade so the install-year mode lands in
# the 1960s
AGE_BUMP_WEIGHT = 0.12
AGE_BUMP_MU = 44.0
AGE_BUMP_SIGMA = 6.0
AGE_BASE_MU = 32.0
AGE_BASE_SIGMA = 52.0
AGE_RANGE = (1, 124)

# wall thickness loss structure
WTL_AGE_SLOPE = 0.30
WTL_BASE = 12.45
WTL_EA_GAIN = 0.6
WTL_NOISE_SD = 4.0
WTL_CLIP = (1.0, 59.0)

# direct age coefficient in the RUL construction; see the module docstring
RUL_AGE_COEF = 0.2

BREAK_RATE = 0.14
BREAKS_MAX = 95

DIAMETERS = (4, 6, 8, 10, 12, 16, 20, 24)
DIAMETER_WEIGHTS = (0.16, 0.27, 0.14, 0.09, 0.10, 0.09, 0.08, 0.07)

LENGTH_LOG_MU = 7.242
LENGTH_LOG_SIGMA = 1.2
LENGTH_CLIP = (20.5, 36161.4)

RUL_CLIP = (3.0, 90.0)

# the largest inventory generated: a city's main inventory holds 10^4-10^6
# pipes, and the generator peaks near 180 bytes a record (tracemalloc, 100k
# records), so 10^7 records stay under ~2 GB; a larger n would end in
# MemoryError or numpy's "Maximum allowed dimension exceeded"
MAX_RECORDS = 10**7

MATERIAL_MIX = {
    Material.CAST_IRON: 0.46,
    Material.ASBESTOS: 0.30,
    Material.DUCTILE_IRON: 0.14,
    Material.STEEL: 0.10,
}

# calibration constants, not field data: chosen so clipped RUL lands on the
# target mean with beta fixed by the half-life-at-the-mean requirement
ASL_BY_MATERIAL = {
    Material.CAST_IRON: 110.0,
    Material.ASBESTOS: 107.0,
    Material.DUCTILE_IRON: 110.0,
    Material.STEEL: 107.0,
}
RUL_WTL_BETA = 2.0
RUL_NOISE_SD = 0.75
_ASL_BY_CODE = np.array([ASL_BY_MATERIAL.get(m, np.nan) for m in MATERIALS])

# published inventory moments used as calibration targets:
# column -> (min, max, mean, std, mode)
INVENTORY_TARGETS = {
    "age_years": (1, 131, 49.78, 30.31, 43),
    "diameter_in": (4, 24, 10.66, 5.13, 6),
    "length_ft": (20.5, 36161.4, 2870.51, 5008.58, 5280),
    "material": (1.67, 8.35, 6.146, 2.75, 8.35),
    "breaks": (0, 95, 5.09, 7.74, 6),
    "install_year": (1887, 2011, 1961.15, 28.78, 1969),
    "wall_thickness_loss_pct": (1, 59, 29.64, 14.81, 33),
    "rul_years": (3, 90, 40.65, 20.46, 36),
}


@dataclass(frozen=True)
class GeneratorConfig:
    n: int = 5000
    seed: int = 0

    def validate(self) -> None:
        if self.n < 1:
            raise InvalidConfig(f"n must be >= 1, got {self.n}")
        if self.n > MAX_RECORDS:
            raise InvalidConfig(f"n must be <= {MAX_RECORDS}, got {self.n}")


def _sample_ages(rng, n) -> np.ndarray:
    """Rejection-sample integer ages from the truncated two-component mixture."""
    lo, hi = AGE_RANGE
    out = np.empty(n, dtype=int)
    filled = 0
    while filled < n:
        k = 2 * (n - filled)
        bump = rng.random(k) < AGE_BUMP_WEIGHT
        draw = np.where(
            bump,
            rng.normal(AGE_BUMP_MU, AGE_BUMP_SIGMA, size=k),
            rng.normal(AGE_BASE_MU, AGE_BASE_SIGMA, size=k),
        )
        draw = np.rint(draw)
        keep = draw[(draw >= lo) & (draw <= hi)].astype(int)
        take = min(keep.size, n - filled)
        out[filled:filled + take] = keep[:take]
        filled += take
    return out


def expected_rul(age, wall_loss, material_codes) -> np.ndarray:
    """The noiseless, unclipped RUL of the construction,
    ASL(material) - RUL_AGE_COEF * age - RUL_WTL_BETA * wall loss, for
    material codes as in data.MATERIALS.  A material outside MATERIAL_MIX has
    no anticipated service life and raises ValueError."""
    codes = np.asarray(material_codes)
    asl = _ASL_BY_CODE[codes]
    unknown = np.isnan(asl)
    if unknown.any():
        raise ValueError(f"no anticipated service life for {MATERIALS[codes[unknown][0]].value}")
    return asl - RUL_AGE_COEF * np.asarray(age) - RUL_WTL_BETA * np.asarray(wall_loss)


def generate(config: GeneratorConfig = GeneratorConfig()) -> Dataset:
    """Deterministic synthetic dataset for the given configuration."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    n = config.n

    age = _sample_ages(rng, n)
    install_year = DEFAULT_REFERENCE_YEAR - age

    mats = list(MATERIAL_MIX)
    probs = np.array([MATERIAL_MIX[m] for m in mats])
    mat_idx = rng.choice(len(mats), size=n, p=probs / probs.sum())
    ea = np.array([m.ea_value for m in mats])[mat_idx]

    impact = 0.6 + 0.4 * ea / Material.CAST_IRON.ea_value
    wtl = (
        WTL_AGE_SLOPE * age * impact
        + WTL_BASE
        + WTL_EA_GAIN * ea
        + rng.normal(0.0, WTL_NOISE_SD, size=n)
    )
    wtl = np.round(np.clip(wtl, *WTL_CLIP), 2)

    break_rate = BREAK_RATE * age * ea / Material.CAST_IRON.ea_value
    breaks = np.minimum(rng.poisson(break_rate), BREAKS_MAX)

    diameter = rng.choice(DIAMETERS, size=n, p=DIAMETER_WEIGHTS).astype(float)

    length = np.exp(rng.normal(LENGTH_LOG_MU, LENGTH_LOG_SIGMA, size=n))
    length = np.round(np.clip(length, *LENGTH_CLIP), 1)

    codes = np.array([MATERIALS.index(m) for m in mats])[mat_idx]
    rul = expected_rul(age, wtl, codes) + rng.normal(0.0, RUL_NOISE_SD, size=n)
    rul = np.round(np.clip(rul, *RUL_CLIP), 2)

    numeric = {"age_years": age, "diameter_in": diameter, "length_ft": length, "breaks": breaks,
               "install_year": install_year, "wall_thickness_loss_pct": wtl, "rul_years": rul}
    for values in numeric.values():
        values.setflags(write=False)  # so the Dataset keeps, not copies, each float column
    dataset = Dataset(numeric, codes)
    failing = [name for name, passes in validity_checks(dataset.numeric, DEFAULT_REFERENCE_YEAR)
               if not passes.all()]
    if failing:
        raise ValueError(f"generated rows fail validation: {failing}")
    return dataset


@dataclass(frozen=True)
class MomentReport:
    """Computed column statistics beside the published targets."""

    columns: tuple  # (name, SummaryStats, target tuple or None)

    def render(self) -> str:
        header = (
            f"{'column':<26}{'mean':>10}{'target':>10}{'dev%':>8}"
            f"{'std':>10}{'target':>10}{'dev%':>8}"
        )
        lines = [header, "-" * len(header)]
        for name, stats, target in self.columns:
            if target is None:
                lines.append(f"{name:<26}{stats.mean:>10.2f}{'-':>10}{'-':>8}")
                continue
            _, _, t_mean, t_std, _ = target
            lines.append(
                f"{name:<26}{stats.mean:>10.2f}{t_mean:>10.2f}"
                f"{_pct(stats.mean, t_mean):>8.1f}"
                f"{stats.std:>10.2f}{t_std:>10.2f}{_pct(stats.std, t_std):>8.1f}"
            )
        return "\n".join(lines)


def _pct(value: float, target: float) -> float:
    return 100.0 * (value - target) / target if target else float("nan")


def moment_report(dataset: Dataset) -> MomentReport:
    """Side-by-side computed statistics and published targets per column."""
    if len(dataset) == 0:
        raise EmptyDataset("cannot report moments of an empty dataset")
    return MomentReport(tuple(
        (name, stats, INVENTORY_TARGETS[name]) for name, stats in summarize_columns(dataset)
    ))
