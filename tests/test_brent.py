"""The ported Brent root finder against scipy's, bit for bit: the same
evaluation points, the same result and the same errors; and the grid
refinement of the extremum routine."""

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq

from indefinite_bvp import brent, shooting
from indefinite_bvp.eigen import _LAMBDA_RTOL
from indefinite_bvp.presets import get_preset

EPS = np.finfo(float).eps
# the (xtol, rtol) pairs the package passes: the sign changes of a weight
# (weight, 1e-12), the hump cap of bounds (1e-14), the Neumann sweep
# (1e-14, 8.9e-16) and the eigenvalue root (both _LAMBDA_RTOL)
ROOT_TOLS = [(1e-12, 4 * EPS), (1e-14, 4 * EPS), (1e-14, 8.9e-16),
             (_LAMBDA_RTOL, _LAMBDA_RTOL), (_LAMBDA_RTOL, 4 * EPS)]


def family(kind, r, s, w):
    """A scalar test function: a cubic, an oscillating sum, a steep
    tanh, a jump, a function that is exactly zero on a plateau, or an odd
    power so flat at its root that Brent's extrapolation divides by an
    underflowed zero."""
    if kind == "cubic":
        return lambda x: (x - r) * ((x - s) ** 2 + w)
    if kind == "wave":
        return lambda x: math.sin(3.0 * x + s) + w * (x - r)
    if kind == "steep":
        return lambda x: math.tanh(50.0 * (x - r)) + 1e-3 * w
    if kind == "jump":
        return lambda x: (1.0 if x > r else -1.0) * (1.0 + w * x * x)
    if kind == "power":
        return lambda x: (x - r) ** 13
    return lambda x: max(abs(x - r) - abs(w), 0.0) * (1.0 if x > r else -1.0)


KINDS = ["cubic", "wave", "steep", "jump", "plateau", "power"]


def outcome(solver, f, *args, **kwargs):
    """(evaluation points, result or error type) of one solver call."""
    xs = []

    def g(x):
        xs.append(repr(float(x)))
        return f(x)

    try:
        res = solver(g, *args, **kwargs)
    except (ValueError, RuntimeError) as err:
        return xs, type(err).__name__
    return xs, res


def ported_root(f, a, b, **kw):
    return repr(brent.brentq(f, a, b, **kw))


def scipy_root(f, a, b, **kw):
    return repr(scipy_brentq(f, a, b, **kw))


@given(st.sampled_from(KINDS), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
       st.floats(0.0, 1.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
       st.sampled_from(ROOT_TOLS))
@settings(max_examples=600, deadline=None)
@example("cubic", 0.5, 0.0, 0.0, 0.0, 0.5, (1e-12, 4 * EPS))
@example("plateau", 0.3, 0.0, 0.1, 0.0, 1.0, (1e-12, 4 * EPS))
@example("power", 0.3, 0.0, 0.0, -1.0, 2.0, (1e-12, 4 * EPS))
@example("power", 0.3, 0.0, 0.0, -1.0, 2.0, (1e-14, 8.9e-16))
def test_brentq_matches_scipy(kind, r, s, w, a, b, tols):
    f = family(kind, r, s, w)
    xtol, rtol = tols
    assert outcome(ported_root, f, a, b, xtol=xtol, rtol=rtol) == \
        outcome(scipy_root, f, a, b, xtol=xtol, rtol=rtol)


@pytest.mark.parametrize("solver", [
    functools.partial(brent.brentq, xtol=2e-12), scipy_brentq])
def test_brentq_error_paths(solver):
    same_sign = lambda x: x * x + 1.0
    with pytest.raises(ValueError, match="different signs"):
        solver(same_sign, -1.0, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        solver(lambda x: math.nan, 0.0, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        solver(lambda x: x - 0.5 if x in (0.0, 1.0) else math.nan, 0.0, 1.0)
    # an exact zero at one end is returned as it is, even from a bracket
    # with no sign change
    assert solver(lambda x: x * (x - 2.0), 0.0, 1.0) == 0.0
    assert solver(lambda x: (x - 1.0) * (x + 3.0), 0.0, 1.0) == 1.0
    assert solver(lambda x: x * x, 0.0, 1.0) == 0.0
    # bisecting a jump down from 1e300 takes far more than 100 steps
    with pytest.raises(RuntimeError, match="Failed to converge after 100"):
        solver(lambda x: 1.0 if x > 0.3 else -1.0, -1e300, 1e300)
    with pytest.raises(ValueError, match="xtol"):
        solver(lambda x: x, -1.0, 1.0, xtol=0.0)
    with pytest.raises(ValueError, match="rtol"):
        solver(lambda x: x, -1.0, 1.0, rtol=1e-16)


def test_neumann_search_skips_a_bracket_the_root_finder_refuses(monkeypatch):
    # a refused bracket (same signs at full accuracy, or a nan slope)
    # drops that bracket, not the search
    p = get_preset("fig1").problem
    sc = get_preset("fig1").search
    calls = []

    def refusing(f, a, b, **kw):
        calls.append((a, b))
        return brent.brentq(lambda x: math.nan, a, b, **kw)

    monkeypatch.setattr(shooting, "brentq", refusing)
    assert shooting.find_neumann_solutions(p, sc) == []
    assert calls


def bits(x):
    return np.float64(x).tobytes()


COEFFICIENT = st.just(0.0) | st.floats(1e-3, 5.0)


@given(st.floats(-3.0, 3.0), st.floats(1e-6, 3.0), st.integers(2, 4096),
       COEFFICIENT, COEFFICIENT, st.booleans(), st.booleans())
@settings(max_examples=300, deadline=None)
@example(0.0, 1.0, 2, 0.0, 0.0, False, False)
def test_grid_minimum_keeps_an_end_minimum(lo, width, n, slope, curve,
                                           at_right, log):
    # f grows away from one end (or is constant, where the first point
    # wins): the end and its value come back bit for bit, as the
    # constants eta and gamma need for a g whose extrema sit at a grid end
    hi = lo + width
    grid = np.geomspace(1.0, 1.0 + width, n) + (lo - 1.0) if log \
        else np.linspace(lo, hi, n)
    end = grid[-1] if at_right else grid[0]
    f = lambda x: slope * np.abs(x - end) + curve * (x - end) ** 2
    want = f(grid)[-1 if at_right else 0]
    if slope == curve == 0.0:
        end, want = grid[0], f(grid)[0]
    x, fx = brent.grid_minimum(f, grid)
    assert bits(x) == bits(end)
    assert bits(fx) == bits(want)


@given(st.floats(0.0, 1.0), st.floats(-2.0, 2.0), st.floats(1.0, 10.0),
       st.sampled_from([257, 4096]))
@settings(max_examples=300, deadline=None)
@example(0.75, 0.0, 1.0, 257)
def test_grid_minimum_refines_an_inner_minimum(c, d, a, n):
    # a parabola's vertex anywhere in [0, 1], on the grid sizes of the
    # callers, is found far below the spacing of the first grid; its
    # value to the round-off of d
    f = lambda x: a * (x - c) ** 2 + d
    x, fx = brent.grid_minimum(f, np.linspace(0.0, 1.0, n))
    assert abs(x - c) < 1e-7
    assert d <= fx <= d + 1e-15 * max(abs(d), 1.0)
    assert bits(fx) == bits(f(np.array([x]))[0])
    assert type(x) is float and type(fx) is float
