import tracemalloc

import numpy as np
import pytest

from oracles import first_failing_column
from pipelife.data import MATERIALS, NUMERIC_COLUMNS, Dataset, Material
from pipelife.errors import EmptyDataset, InvalidConfig
from pipelife.stats import pearson
from pipelife.synth import (
    DEFAULT_REFERENCE_YEAR,
    MAX_RECORDS,
    RUL_CLIP,
    RUL_NOISE_SD,
    GeneratorConfig,
    INVENTORY_TARGETS,
    expected_rul,
    generate,
    moment_report,
)

DEFAULT = GeneratorConfig(n=5000, seed=0)


@pytest.fixture(scope="module")
def dataset():
    return generate(DEFAULT)


def decile_means(x, y):
    edges = np.quantile(x, np.linspace(0, 1, 11))
    means = []
    for i in range(10):
        hi = x <= edges[i + 1] if i == 9 else x < edges[i + 1]
        mask = (x >= edges[i]) & hi
        means.append(y[mask].mean())
    return np.array(means)


def test_config_validation():
    for n in (0, 99999999999999999999, MAX_RECORDS + 1):
        with pytest.raises(InvalidConfig):
            GeneratorConfig(n=n).validate()


def test_determinism():
    a = generate(GeneratorConfig(n=200, seed=9))
    b = generate(GeneratorConfig(n=200, seed=9))
    assert all(np.array_equal(a.numeric[k], b.numeric[k]) for k in NUMERIC_COLUMNS)
    assert np.array_equal(a.materials, b.materials)
    c = generate(GeneratorConfig(n=200, seed=10))
    assert not np.array_equal(a.column("age_years"), c.column("age_years"))


def test_every_record_satisfies_invariants(dataset):
    failing = first_failing_column(dataset.numeric, DEFAULT_REFERENCE_YEAR)
    assert (failing == "").all()
    assert len(dataset) == 5000


def generate_peak_per_record(n=100_000):
    """generate's tracemalloc peak over n records, in bytes a record."""
    generate(GeneratorConfig(n=100, seed=0))  # imports and caches stay out of the peak
    tracemalloc.start()
    try:
        generate(GeneratorConfig(n=n, seed=0))
        return tracemalloc.get_traced_memory()[1] / n
    finally:
        tracemalloc.stop()


def test_generate_peaks_below_220_bytes_a_record():
    # the validator's pass masks are checked with .all(), with no label
    # string per record
    assert generate_peak_per_record() < 220


def test_generate_keeps_each_float_column_once():
    # the Dataset keeps the float columns generate froze, not copies of them
    assert generate_peak_per_record() < 165


def test_moment_calibration(dataset):
    age = dataset.column("age_years")
    wtl = dataset.column("wall_thickness_loss_pct")
    rul = dataset.column("rul_years")
    assert age.mean() == pytest.approx(49.78, rel=0.05)
    assert age.std(ddof=1) == pytest.approx(30.31, rel=0.10)
    assert wtl.mean() == pytest.approx(29.64, rel=0.10)
    assert rul.mean() == pytest.approx(40.65, rel=0.10)


def test_observed_ranges_inside_published(dataset):
    for name in ("age_years", "wall_thickness_loss_pct", "rul_years",
                 "diameter_in", "breaks", "install_year"):
        t_min, t_max, _, _, _ = INVENTORY_TARGETS[name]
        col = dataset.column(name)
        assert col.min() >= t_min - 1e-9, name
        assert col.max() <= t_max + 1e-9, name


def test_quadratic_age_fit_band(dataset):
    age = dataset.column("age_years")
    rul = dataset.column("rul_years")
    coef = np.polyfit(age, rul, 2)
    fitted = np.polyval(coef, age)
    r2 = 1.0 - ((rul - fitted) ** 2).sum() / ((rul - rul.mean()) ** 2).sum()
    assert 0.70 <= r2 <= 0.92


def test_planted_negative_correlations(dataset):
    age = dataset.column("age_years")
    wtl = dataset.column("wall_thickness_loss_pct")
    rul = dataset.column("rul_years")
    assert pearson(wtl, rul) < -0.5
    assert pearson(age, rul) < -0.5


def test_monotone_decile_structure(dataset):
    age = dataset.column("age_years")
    wtl = dataset.column("wall_thickness_loss_pct")
    rul = dataset.column("rul_years")
    assert np.all(np.diff(decile_means(age, rul)) <= 1e-9)
    assert np.all(np.diff(decile_means(wtl, rul)) <= 1e-9)


def test_material_conditioned_deterioration(dataset):
    age = dataset.column("age_years")
    wtl = dataset.column("wall_thickness_loss_pct")
    mats = np.array(MATERIALS)[dataset.materials]
    edges = np.quantile(age, [0.0, 0.25, 0.5, 0.75, 1.0])
    for i in range(4):
        hi = age <= edges[i + 1] if i == 3 else age < edges[i + 1]
        mask = (age >= edges[i]) & hi
        ci = wtl[mask & (mats == Material.CAST_IRON)]
        di = wtl[mask & (mats == Material.DUCTILE_IRON)]
        assert ci.mean() > di.mean()


def test_material_mix_fractions(dataset):
    mats = [MATERIALS[code] for code in dataset.materials]
    ci_frac = mats.count(Material.CAST_IRON) / len(mats)
    assert ci_frac == pytest.approx(0.46, abs=0.03)
    counts = {m: mats.count(m) for m in set(mats)}
    assert counts[Material.CAST_IRON] > counts[Material.ASBESTOS] > counts[Material.DUCTILE_IRON]


def test_durable_materials_have_more_life(dataset):
    rul = dataset.column("rul_years")
    mats = np.array(MATERIALS)[dataset.materials]
    mean_rul = {m: rul[mats == m].mean() for m in
                (Material.CAST_IRON, Material.ASBESTOS, Material.DUCTILE_IRON, Material.STEEL)}
    assert mean_rul[Material.DUCTILE_IRON] > mean_rul[Material.CAST_IRON]
    assert mean_rul[Material.STEEL] > mean_rul[Material.ASBESTOS]


def test_install_year_consistency(dataset):
    install_year, age = dataset.column("install_year"), dataset.column("age_years")
    assert np.array_equal(install_year, DEFAULT_REFERENCE_YEAR - age)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 42])
def test_rul_is_the_expected_rul_plus_the_noise(seed):
    data = generate(GeneratorConfig(n=5000, seed=seed))
    truth = expected_rul(data.column("age_years"), data.column("wall_thickness_loss_pct"),
                         data.materials)
    # rows whose noiseless RUL lies 6 noise SDs inside the clip: none is
    # clipped, and the kept noise is not truncated by the clip
    lo, hi = RUL_CLIP
    inside = (truth > lo + 6 * RUL_NOISE_SD) & (truth < hi - 6 * RUL_NOISE_SD)
    rul = data.column("rul_years")[inside]
    assert inside.sum() > 2000 and ((rul > lo) & (rul < hi)).all()
    noise = rul - truth[inside]
    # five standard errors of the mean and of the SD of normal noise; the
    # rounding of RUL to 0.01 adds ~6e-6 to the SD
    assert abs(noise.mean()) < 5 * RUL_NOISE_SD / np.sqrt(noise.size)
    assert abs(noise.std() - RUL_NOISE_SD) < 5 * RUL_NOISE_SD / np.sqrt(2 * noise.size)


def test_expected_rul_refuses_a_material_without_a_service_life():
    with pytest.raises(ValueError, match="Polyethylene"):
        expected_rul([10.0], [20.0], [MATERIALS.index(Material.POLYETHYLENE)])


def mean_deviation_pct(report, name):
    """100 (mean - target mean) / target mean of one column of a MomentReport."""
    stats, target = {n: (s, t) for n, s, t in report.columns}[name]
    return 100.0 * (stats.mean - target[2]) / target[2]


def test_moment_report_contents(dataset):
    report = moment_report(dataset)
    assert "age_years" in [name for name, _, _ in report.columns]
    assert abs(mean_deviation_pct(report, "age_years")) < 5.0
    assert abs(mean_deviation_pct(report, "rul_years")) < 10.0
    text = report.render()
    assert "age_years" in text and "rul_years" in text


def test_moment_report_single_record():
    record = dict(zip(NUMERIC_COLUMNS, ([30], [8.0], [100.0], [1], [1981], [20.0], [50.0])))
    report = moment_report(Dataset(record, [MATERIALS.index(Material.STEEL)]))
    stats = {name: s for name, s, _ in report.columns}["age_years"]
    assert stats.std == 0.0


def test_moment_report_empty():
    with pytest.raises(EmptyDataset):
        moment_report(Dataset({name: [] for name in NUMERIC_COLUMNS}, []))
