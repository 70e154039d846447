"""Property-based checks on the KPI and energy formulas."""

import math

from hypothesis import given, settings, strategies as st

from ricplan import ScenarioParams, XAppClass
from ricplan import model as M
from ricplan.calibration import lookup
from tests.conftest import CLASS_DEFS, make_class, make_params

RHOS = (1.0, 10.0, 100.0)
counts = st.integers(min_value=0, max_value=500)
rhos = st.sampled_from(RHOS)
classes = st.sampled_from(sorted(CLASS_DEFS))


@given(counts, rhos)
def test_mr_duration_is_downtime(cal, n, rho):
    # cold migration stops the xApp for the whole transfer
    assert M.migration_duration("sm-mr", n, cal, rho) == \
        M.sm_downtime("sm-mr", n, cal, rho)


@given(st.integers(min_value=1, max_value=500), rhos)
def test_md_trades_downtime_for_duration(cal, n, rho):
    # pre-copy: less downtime than cold migration, longer total transfer
    assert M.sm_downtime("sm-md", n, cal, rho) < M.sm_downtime("sm-mr", n, cal, rho)
    assert M.migration_duration("sm-md", n, cal, rho) > \
        M.migration_duration("sm-mr", n, cal, rho)


def test_sdl_downtime_identically_zero():
    assert M.sdl_downtime() == 0.0


@given(st.integers(min_value=1, max_value=499), rhos,
       st.sampled_from(["sm-mr", "sm-md"]))
def test_downtime_increment_is_slope(cal, n, rho, strategy):
    c = lookup(cal, "kpi", strategy, rho)
    inc = M.sm_downtime(strategy, n + 1, cal, rho) - M.sm_downtime(strategy, n, cal, rho)
    assert math.isclose(inc, c["delta_d"], rel_tol=1e-9, abs_tol=1e-9)


@given(st.integers(min_value=1, max_value=499))
def test_instantiation_increment_is_slope(cal, n):
    c = lookup(cal, "kpi", "sdl", "*")
    inc = M.instantiation_time(n + 1, cal) - M.instantiation_time(n, cal)
    assert math.isclose(inc, c["delta_m"], rel_tol=1e-9, abs_tol=1e-9)


@given(counts, rhos, st.sampled_from(["sdl", "sm-mr", "sm-md"]))
def test_durations_nonnegative_and_zero_at_zero(cal, n, rho, strategy):
    d = M.migration_duration(strategy, n, cal, rho)
    assert d >= 0.0
    if n == 0:
        assert d == 0.0


@given(st.dictionaries(classes, counts, min_size=1, max_size=4), classes,
       st.integers(min_value=1, max_value=20))
def test_defrag_monotone_in_counts(cal, population, cls, extra):
    base = M.defrag_downtime(population, cal, 1.0, 1.0)
    bumped = dict(population)
    bumped[cls] = bumped.get(cls, 0) + extra
    assert M.defrag_downtime(bumped, cal, 1.0, 1.0) >= base


@given(st.dictionaries(classes, counts, min_size=1, max_size=4))
def test_defrag_is_sum_of_sigma(cal, population):
    expect = sum(lookup(cal, "sigma", c, 1.0, 1.0) / 1000.0 * n
                 for c, n in population.items() if n > 0)
    got = M.defrag_downtime(population, cal, 1.0, 1.0)
    assert math.isclose(got, expect, rel_tol=1e-9, abs_tol=1e-12)


@given(st.dictionaries(classes, st.integers(min_value=0, max_value=100_000),
                       min_size=1, max_size=4),
       st.sampled_from(["CPU", "MEM", "DISK", "E"]))
def test_backend_share_never_negative(cal, population, resource):
    # per-class energy slopes are negative; the clamp keeps each term at >= 0
    if resource == "E":
        v = M.sdl_energy_per_server(population, 4, 3600.0, cal)
    else:
        v = M.strategy_overhead("sdl", resource, population, 4, cal, True)
    assert v >= 0.0


def test_backend_energy_clamps_past_crossing(cal):
    # class-A slope -0.18 W crosses zero near n=180; beyond that the term is 0
    assert M.sdl_energy_per_server({"A": 1000}, 1, 3600.0, cal) == 0.0


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=20),
       st.integers(min_value=0, max_value=5), st.booleans())
def test_server_energy_nonnegative(cal, n_stay, n_out, n_new, mu):
    params = make_params("sm-mr", slot=36000.0)
    totals = {"A": n_stay + n_out + n_new}
    e = M.server_energy(outgoing={"A": n_out}, incoming={}, staying={"A": n_stay},
                        new={"A": n_new}, n0_s={"A": n_stay + n_out}, mu_s=int(mu),
                        totals=totals, server_count=1, params=params, cal=cal)
    assert e >= 0.0


@given(st.integers(min_value=1, max_value=1000), st.floats(min_value=1e3, max_value=1e9))
def test_rho_mb_units(n, size):
    p = ScenarioParams(state_size=size, maintenance_period=1.0, slot_length=3600.0,
                       max_sm_downtime=300.0, max_defrag_downtime=1.0,
                       strategy="sm-mr")
    assert math.isclose(p.rho_mb, size / 1e6, rel_tol=1e-12)


@given(classes)
def test_sigma_units_ms_to_s(cal, cls):
    ms = lookup(cal, "sigma", cls, 1.0, 1.0)
    assert math.isclose(M.defrag_downtime({cls: 1}, cal, 1.0, 1.0),
                        ms / 1000.0, rel_tol=1e-12)


@given(st.integers(min_value=1, max_value=100), st.integers(min_value=1, max_value=100))
def test_traffic_scales_linearly(n, m):
    cls = make_class("C")
    a = M.traffic_load(cls, n)
    b = M.traffic_load(cls, m)
    assert math.isclose(a * m, b * n, rel_tol=1e-9)
