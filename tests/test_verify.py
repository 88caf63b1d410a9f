"""The verification battery's schedule: a narrow slope window is refused
before anything runs, and the scenario-free self-tests run as one forked job
while the process runs the scenario's checks, with the report unchanged."""

import numpy as np
import pytest

from leadfollow import moments, rates, sde, verify
from leadfollow.rates import WindowTooNarrowError
from leadfollow.sde import SimulationError
from leadfollow.verify import CheckResult, run_battery


@pytest.fixture(scope="module")
def battery_fig1(fig1):
    """fig1 at t_end 20 with 20 trials, its two moment series, and its checks
    called one by one, in the report's order."""
    scen = fig1.with_overrides(t_end=20.0, trials=20, sample_times=np.geomspace(0.5, 20.0, 40))
    mc, oracle = rates.monte_carlo_moments(scen), moments.evolve_moments(scen)
    expected = (verify.check_follower_spectrum(), verify.check_controller_identities(),
                verify.check_reduction_consistency(scen), verify.check_oracle_agreement(mc, oracle),
                verify.check_oracle_slope(scen, oracle), verify.check_jordan_recursion(),
                verify.check_transition_bound(scen), *verify.check_gain_decay(scen),
                *verify.check_filter_tails(scen))
    return scen, mc, oracle, expected


@pytest.mark.parametrize("workers", [1, 2])
def test_battery_equals_its_checks_one_by_one(monkeypatch, battery_fig1, workers):
    """Forked or not, the battery's results are the checks' own, field for
    field and in order, also when it computes the oracle itself."""
    scen, mc, oracle, expected = battery_fig1
    monkeypatch.setattr(sde, "WORKERS", workers)
    assert run_battery(scen, mc, oracle).results == expected
    assert run_battery(scen, mc).results == expected


def test_failing_self_test_names_its_job(monkeypatch, battery_fig1):
    scen, mc, oracle, _ = battery_fig1

    def broken():
        raise ArithmeticError("broken self-test")

    monkeypatch.setattr(sde, "WORKERS", 2)
    monkeypatch.setattr(verify, "check_jordan_recursion", broken)
    with pytest.raises(SimulationError,
                       match="^self-tests failed: ArithmeticError: broken self-test$"):
        run_battery(scen, mc, oracle)


@pytest.mark.parametrize("workers, error", [(1, ValueError), (2, SimulationError)])
def test_oversized_self_test_results_raise(monkeypatch, battery_fig1, workers, error):
    """Results that do not fit their shared field raise; they are never cut."""
    scen, mc, oracle, _ = battery_fig1
    big = CheckResult(name="x" * sde.FAILURE_BYTES, value=0.0, threshold=0.0, op="<=",
                      passed=True)
    monkeypatch.setattr(sde, "WORKERS", workers)
    monkeypatch.setattr(verify, "check_controller_identities", lambda: big)
    with pytest.raises(error, match=f"exceed {sde.FAILURE_BYTES}$"):
        run_battery(scen, mc, oracle)


def test_narrow_slope_window_refused_before_anything_runs(monkeypatch, fig1):
    """The CLI's narrow-window scenario is refused with the CLI's message before
    the Monte Carlo batch, the oracle or any fork."""
    def never(*args, **kwargs):
        raise AssertionError("ran before the refusal")

    for module, name in [(rates, "monte_carlo_moments"), (moments, "evolve_moments"),
                         (verify, "monte_carlo_moments"), (verify, "evolve_moments"),
                         (sde, "_split")]:
        monkeypatch.setattr(module, name, never)
    scen = fig1.with_overrides(dt=0.001, t_end=2.0, sample_times=np.linspace(0.0, 2.0, 5))
    with pytest.raises(WindowTooNarrowError, match="need >= 8 points over >= 0.6 decades"):
        run_battery(scen)
