"""Shipped coefficient tables, loading/merging, lookup, and line fitting."""

import json
import math

import pytest

from ricplan import (
    CalibrationError,
    CalibrationLookupError,
    DegenerateFitError,
    MeasurementSeries,
    default_calibration,
    fit_linear,
    load_calibration,
    read_measurement_csv,
    serialize_calibration,
)
from ricplan.calibration import lookup


# exact table spot checks; these are verbatim published coefficients
KPI_CELLS = [
    ("sm-mr", 1.0, "delta_d", 10.55),
    ("sm-mr", 10.0, "delta_d", 11.73),
    ("sm-mr", 100.0, "delta_d", 23.3),
    ("sm-md", 1.0, "delta_d", 5.74),
    ("sm-md", 10.0, "delta_d", 6.49),
    ("sm-md", 100.0, "delta_d", 13.3),
    ("sm-md", 1.0, "delta_m", 20.28),
    ("sm-md", 10.0, "delta_m", 23.02),
    ("sm-md", 100.0, "delta_m", 48.2),
    ("sdl", None, "delta_m", 0.08),
    ("sdl", None, "b_m", 4.27),
]


@pytest.mark.parametrize("strategy,rho,coeff,value", KPI_CELLS)
def test_kpi_table_cells(cal, strategy, rho, coeff, value):
    assert lookup(cal, "kpi", strategy, rho, coeff) == value


def test_sm_mr_duration_equals_downtime_slope(cal):
    # cold migration: the whole duration is downtime, same line
    for rho in (1.0, 10.0, 100.0):
        c = lookup(cal, "kpi", "sm-mr", rho, "delta_m")
        d = lookup(cal, "kpi", "sm-mr", rho, "delta_d")
        assert c == d


def test_sm_intercepts_zero(cal):
    for strategy in ("sm-mr", "sm-md"):
        for rho in (1.0, 10.0, 100.0):
            assert lookup(cal, "kpi", strategy, rho, "b_d") == 0.0
            assert lookup(cal, "kpi", strategy, rho, "b_m") == 0.0


SIGMA_CELLS = [("A", 16.62), ("B", 17.07), ("C", 7.71), ("D", 11.62)]


@pytest.mark.parametrize("cls,ms", SIGMA_CELLS)
def test_sigma_cells_ms(cal, cls, ms):
    assert lookup(cal, "sigma", cls, 1.0, 1.0) == ms


SDL_E_CELLS = [
    ("A", -0.18, 32.35), ("B", -0.09, 33.60), ("C", -0.10, 35.48),
    ("D", -0.06, 40.20),
]


@pytest.mark.parametrize("cls,delta,b", SDL_E_CELLS)
def test_sdl_energy_cells(cal, cls, delta, b):
    assert lookup(cal, "sdl_linear", cls, "E", "delta") == delta
    assert lookup(cal, "sdl_linear", cls, "E", "b") == b


def test_sdl_cpu_mem_disk_cells(cal):
    assert lookup(cal, "sdl_linear", "A", "CPU", "b") == 5.32
    assert lookup(cal, "sdl_linear", "B", "CPU", "delta") == 0.03
    assert lookup(cal, "sdl_linear", "C", "MEM", "b") == 1.82
    assert lookup(cal, "sdl_linear", "D", "MEM", "delta") == 0.08
    assert lookup(cal, "sdl_linear", "A", "DISK", "b") == 0.0


LOAD_CELLS = [
    ("A", "E", 3.43), ("B", "E", 16.48), ("C", "E", 3.43), ("D", "E", 16.48),
    ("A", "CPU", 0.47), ("B", "CPU", 2.86),
    ("A", "MEM", 0.52), ("D", "MEM", 0.52),
]


@pytest.mark.parametrize("cls,metric,value", LOAD_CELLS)
def test_xapp_load_cells(cal, cls, metric, value):
    assert lookup(cal, "xapp_load", cls, metric) == value


def test_idle_and_overhead_cells(cal):
    assert lookup(cal, "server_idle", "E") == 120.0
    assert lookup(cal, "server_idle", "CPU") == 0.1
    assert lookup(cal, "server_idle", "MEM") == 5.7
    assert lookup(cal, "server_idle", "DISK") == 3.2
    assert lookup(cal, "sm_overhead", "sm-mr", "CPU") == 0.40
    assert lookup(cal, "sm_overhead", "sm-md", "CPU") == 0.76
    assert lookup(cal, "sm_overhead", "sm-mr", "E") == 17.87
    assert lookup(cal, "sm_overhead", "sm-md", "E") == 27.56
    assert lookup(cal, "sm_overhead", "sm-mr", "MEM") == 0.0
    assert lookup(cal, "sm_overhead", "sm-md", "DISK") == 0.0


def test_lookup_miss_echoes_key(cal):
    with pytest.raises(CalibrationLookupError) as exc:
        lookup(cal, "sigma", "A", 100.0, 1.0)
    assert "rho=100.0" in str(exc.value)


def test_lookup_miss_unknown_strategy(cal):
    with pytest.raises(CalibrationLookupError):
        lookup(cal, "kpi", "nope", 1.0, "delta_d")


# one miss at each level of each block, at a line's field and past a number
_MISSES = [
    (("kpi", "nope", 1.0), "kpi.nope"),
    (("kpi", "sm-mr", 5.0), "kpi.sm-mr.rho=5.0"),
    (("kpi", "sm-mr", 1.0, "typo"), "kpi.sm-mr.rho=1.0.typo"),
    (("sigma", "Z", 1.0, 1.0), "sigma.Z"),
    (("sigma", "A", 100.0, 1.0), "sigma.A.rho=100.0"),
    (("sigma", "A", 1.0, 2.0), "sigma.A.rho=1.0.nu=2.0"),
    (("sdl_linear", "Z", "E"), "sdl_linear.Z"),
    (("sdl_linear", "A", "GPU"), "sdl_linear.A.GPU"),
    (("sdl_linear", "A", "E", "typo"), "sdl_linear.A.E.typo"),
    (("sm_overhead", "sdl", "E"), "sm_overhead.sdl"),
    (("sm_overhead", "sm-mr", "GPU"), "sm_overhead.sm-mr.GPU"),
    (("xapp_load", "Z", "E"), "xapp_load.Z"),
    (("xapp_load", "A", "GPU"), "xapp_load.A.GPU"),
    (("xapp_load", "A", "E", "typo"), "xapp_load.A.E.typo"),
    (("server_idle", "GPU"), "server_idle.GPU"),
]


@pytest.mark.parametrize("keys, path", _MISSES,
                         ids=[path for _, path in _MISSES])
def test_lookup_miss_names_its_path(cal, keys, path):
    with pytest.raises(CalibrationLookupError) as exc:
        lookup(cal, *keys)
    assert str(exc.value) == f"no calibration entry for {path}"


def test_lookup_wildcard_serves_each_free_level():
    # a class or axis key the tables lack falls back to its "*" entry
    merged = load_calibration({"sigma": {"*": {"*": {"2.0": 3.0}}},
                               "xapp_load": {"*": {"E": 1.5}}})
    assert lookup(merged, "sigma", "Z", 7.0, 2.0) == 3.0
    assert lookup(merged, "sigma", "A", 1.0, 1.0) == 16.62
    assert lookup(merged, "xapp_load", "Z", "E") == 1.5


# loading and merging

def test_empty_override_is_identity(cal):
    assert load_calibration({}) == cal


def test_single_key_merge(cal):
    merged = load_calibration({"sm_overhead": {"sm-mr": {"E": 20.0}}})
    assert lookup(merged, "sm_overhead", "sm-mr", "E") == 20.0
    assert lookup(merged, "sm_overhead", "sm-md", "E") == 27.56
    assert lookup(merged, "server_idle", "E") == 120.0


def test_negative_sigma_rejected():
    with pytest.raises(CalibrationError, match="sigma"):
        load_calibration({"sigma": {"A": {"1.0": {"1.0": -0.01}}}})


def test_negative_kpi_slope_rejected():
    with pytest.raises(CalibrationError, match="slope"):
        load_calibration({"kpi": {"sm-mr": {"1.0": {
            "delta_d": -1.0, "b_d": 0.0, "delta_m": 1.0, "b_m": 0.0}}}})


def test_unknown_block_rejected():
    with pytest.raises(CalibrationError, match="unknown calibration block"):
        load_calibration({"bogus": {}})


def test_unknown_metric_rejected():
    with pytest.raises(CalibrationError):
        load_calibration({"server_idle": {"GPU": 1.0}})


# entries that are not objects inside a block: test_cli.py's
# test_malformed_calibration_exits_1
@pytest.mark.parametrize("doc, message", [
    ({"xapp_load": None}, "xapp_load: expected an object"),
    ({"server_idle": {"E": math.nan}}, "server_idle.E: non-finite value"),
    ({"sm_overhead": {"sm-mr": {"E": -math.inf}}},
     "sm_overhead.sm-mr.E: non-finite value"),
    ({"sigma": {"A": {"inf": {"1.0": 1.0}}}}, "sigma.A: bad numeric key 'inf'"),
], ids=["block", "nan", "minus-infinity", "infinite-key"])
def test_malformed_entry_names_its_path(doc, message):
    with pytest.raises(CalibrationError) as exc:
        load_calibration(doc)
    assert str(exc.value) == message


def test_empty_entries_add_no_table(cal):
    # a class without entries must not shadow the wildcard on lookup
    doc = {"sigma": {"E": {"1.0": {}}}, "xapp_load": {"E": {}},
           "sdl_linear": {"E": {}}}
    assert load_calibration(doc) == cal


def test_round_trip(cal):
    doc = serialize_calibration(cal)
    json.dumps(doc)  # must be JSON-serializable as-is
    assert load_calibration(doc) == cal


def test_round_trip_from_file(cal, tmp_path):
    p = tmp_path / "cal.json"
    p.write_text(json.dumps(serialize_calibration(cal)))
    assert load_calibration(p) == cal


def test_wildcard_precedence():
    # an exact rho key must beat the wildcard entry
    merged = load_calibration({"kpi": {"sdl": {"2.0": {
        "delta_d": 0.0, "b_d": 0.0, "delta_m": 0.5, "b_m": 1.0}}}})
    assert lookup(merged, "kpi", "sdl", 2.0, "delta_m") == 0.5
    assert lookup(merged, "kpi", "sdl", 7.7, "delta_m") == 0.08


# fitting

def test_fit_exact_affine():
    series = MeasurementSeries(predictor=(0.0, 10.0, 20.0),
                               response=(0.0, 105.5, 211.0))
    fit = fit_linear(series)
    assert math.isclose(fit.slope, 10.55, rel_tol=1e-9)
    assert abs(fit.intercept) < 1e-9
    assert fit.rms < 1e-9


def test_fit_constant_series():
    fit = fit_linear(MeasurementSeries(predictor=(1.0, 2.0), response=(5.0, 5.0)))
    assert math.isclose(fit.slope, 0.0, abs_tol=1e-12)
    assert math.isclose(fit.intercept, 5.0, rel_tol=1e-9)


def test_fit_three_point_ols():
    # hand-solved least squares: slope 3/2, intercept 5/6, rms sqrt(1/18)
    fit = fit_linear(MeasurementSeries(predictor=(0.0, 1.0, 2.0),
                                       response=(1.0, 2.0, 4.0)))
    assert math.isclose(fit.slope, 1.5, rel_tol=1e-9)
    assert math.isclose(fit.intercept, 5.0 / 6.0, rel_tol=1e-9)
    assert math.isclose(fit.rms, 0.23570226039551587, rel_tol=1e-9)


def test_series_needs_two_points():
    with pytest.raises(ValueError):
        MeasurementSeries(predictor=(1.0,), response=(2.0,))


def test_series_distinct_predictors():
    with pytest.raises(ValueError):
        MeasurementSeries(predictor=(1.0, 1.0), response=(2.0, 3.0))


def test_fit_degenerate_predictors():
    s = MeasurementSeries.__new__(MeasurementSeries)
    object.__setattr__(s, "predictor", (2.0, 2.0, 2.0))
    object.__setattr__(s, "response", (1.0, 2.0, 3.0))
    object.__setattr__(s, "label", "")
    with pytest.raises(DegenerateFitError):
        fit_linear(s)


# measurement CSV

def test_read_measurement_csv(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("predictor,response\n0,0\n10,105.5\n20,211.0\n")
    series = read_measurement_csv(p, label="downtime")
    assert series.predictor == (0.0, 10.0, 20.0)
    assert series.label == "downtime"


def test_read_measurement_csv_bad_header(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("x,y\n1,2\n3,4\n")
    with pytest.raises(ValueError, match="predictor,response"):
        read_measurement_csv(p)


def test_read_measurement_csv_single_row(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("predictor,response\n1,2\n")
    with pytest.raises(DegenerateFitError):
        read_measurement_csv(p)


def test_read_measurement_csv_bad_value(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("predictor,response\n1,2\nfoo,4\n")
    with pytest.raises(ValueError, match=":3"):
        read_measurement_csv(p)


@pytest.mark.parametrize("row", ["2,nan", "inf,4", "2,-inf"])
def test_read_measurement_csv_non_finite_value(tmp_path, row):
    p = tmp_path / "m.csv"
    p.write_text(f"predictor,response\n1,2\n{row}\n3,5\n")
    with pytest.raises(ValueError) as exc:
        read_measurement_csv(p)
    assert str(exc.value) == f"{p}:3: non-finite value"


def test_defaults_complete_for_model_needs(cal):
    # every key the formulas touch resolves without user input
    for strategy in ("sm-mr", "sm-md"):
        for rho in (1.0, 10.0, 100.0):
            lookup(cal, "kpi", strategy, rho, "delta_d")
    for cls in "ABCD":
        lookup(cal, "sigma", cls, 1.0, 1.0)
        for metric in ("E", "CPU", "MEM", "DISK"):
            lookup(cal, "sdl_linear", cls, metric, "delta")
            lookup(cal, "xapp_load", cls, metric)
