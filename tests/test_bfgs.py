"""The BFGS search of csgp.bfgs: unit tests on small functions, and a differential
test against scipy's L-BFGS-B on the QAOA objective, run where scipy is installed."""

import math
import warnings

import numpy as np
import pytest

import csgp.bfgs as bfgs
import csgp.qaoa as qaoa
from csgp.bfgs import LBFGS_FTOL, LBFGS_GTOL, LINE_EVALS, minimize
from csgp.game import DISTRIBUTION_KINDS, DistributionSpec, generate_game
from csgp.qaoa import optimize
from csgp.transform import build_bilp, build_qubo, qubo_to_ising


def _counted(fun):
    """fun, with the points it is called at appended to its `calls` list."""

    def counted(x):
        counted.calls.append(np.array(x))
        return fun(x)

    counted.calls = []
    return counted


def _rosenbrock(x):
    a, b = x
    value = (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2
    return value, np.array([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a), 200.0 * (b - a * a)])


def test_bfgs_converges_on_a_convex_quadratic():
    diag = np.array([1.0, 10.0, 100.0, 0.5])
    shift = np.array([1.0, -2.0, 0.5, 3.0])
    fun = _counted(lambda x: (float(np.sum(diag * (x - shift) ** 2)), 2.0 * diag * (x - shift)))
    converged = minimize(fun, np.zeros(4), 100)
    assert converged is True
    assert np.max(np.abs(fun.calls[-1] - shift)) < 1e-6
    assert len(fun.calls) < 60


def test_bfgs_reaches_the_rosenbrock_minimum():
    fun = _counted(_rosenbrock)
    assert minimize(fun, np.array([-1.2, 1.0]), 500) is True
    best = min(fun.calls, key=lambda x: _rosenbrock(x)[0])
    assert np.max(np.abs(best - 1.0)) <= 1e-5


def test_bfgs_stops_unconverged_after_maxiter():
    fun = _counted(_rosenbrock)
    assert minimize(fun, np.array([-1.2, 1.0]), 1) is False
    assert 2 <= len(fun.calls) <= 1 + LINE_EVALS


def test_bfgs_at_a_zero_gradient_converges_after_one_evaluation():
    fun = _counted(lambda x: (3.0, np.zeros(2)))
    assert minimize(fun, np.array([0.5, -0.5]), 100) is True
    assert len(fun.calls) == 1


def test_a_step_below_the_relative_ftol_ends_the_run_converged():
    # At values near 1e13 the first step lowers f by about 1.2, 1.2e-13 of |f| <= LBFGS_FTOL,
    # while the gradient there is still about 1.3.
    fun = _counted(lambda x: (1e13 + float(np.sum((x - 1.0) ** 2)), 2.0 * (x - 1.0)))
    assert minimize(fun, np.zeros(2), 100) is True
    assert len(fun.calls) == 2
    assert np.max(np.abs(2.0 * (fun.calls[-1] - 1.0))) > LBFGS_GTOL


@pytest.mark.parametrize(
    "fun, x0",
    [
        (_rosenbrock, [-1.2, 1.0]),
        (lambda x: (0.0, np.ones(2)), [0.0, 0.0]),  # a gradient that promises a descent the value never makes
        (lambda x: (float(np.sum(x * x)) if x[0] < 0.5 else math.nan, 2.0 * x), [0.4, 3.0]),
    ],
    ids=["rosenbrock", "no-descent", "nan-region"],
)
def test_no_line_search_makes_more_than_line_evals_calls(monkeypatch, fun, x0):
    searches = []
    real_wolfe = bfgs._wolfe

    def wolfe(fun, *args):
        counted = _counted(fun)
        found = real_wolfe(counted, *args)
        searches.append(len(counted.calls))
        return found

    monkeypatch.setattr(bfgs, "_wolfe", wolfe)
    minimize(fun, np.array(x0), 200)
    assert searches
    assert max(searches) <= LINE_EVALS


def test_a_failed_line_search_ends_the_run_unconverged():
    fun = _counted(lambda x: (0.0, np.ones(2)))
    assert minimize(fun, np.zeros(2), 100) is False
    assert len(fun.calls) == 1 + LINE_EVALS


@pytest.mark.parametrize("gradient", [np.ones(2), np.full(2, math.nan)])
def test_a_nan_objective_ends_the_run_unconverged(gradient):
    fun = _counted(lambda x: (math.nan, gradient))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert minimize(fun, np.zeros(2), 1000) is False
    assert len(fun.calls) <= 1 + LINE_EVALS


@pytest.mark.parametrize("kind", DISTRIBUTION_KINDS)
def test_bfgs_matches_scipys_lbfgsb_at_depth_one(monkeypatch, kind):
    # The same expectation within 1e-9 relative and the same best_bitstring as
    # scipy's L-BFGS-B with the same tolerances, at n = 2 (seeds 0, 1) and n = 3.
    scipy_optimize = pytest.importorskip("scipy.optimize")

    def lbfgsb(fun, x0, maxiter):
        options = {"maxiter": maxiter, "ftol": LBFGS_FTOL, "gtol": LBFGS_GTOL}
        return bool(scipy_optimize.minimize(fun, x0, jac=True, method="L-BFGS-B", options=options).success)

    for n, seed in ((2, 0), (2, 1), (3, 0)):
        ising = qubo_to_ising(build_qubo(build_bilp(generate_game(n, DistributionSpec(kind=kind), seed))))
        ours = optimize(ising, 1)
        with monkeypatch.context() as patch:
            patch.setattr(qaoa, "minimize", lbfgsb)
            theirs = optimize(ising, 1)
        assert ours.best_bitstring == theirs.best_bitstring
        assert ours.expectation == pytest.approx(theirs.expectation, rel=1e-9)
        assert ours.metadata["converged_starts"] == 10
