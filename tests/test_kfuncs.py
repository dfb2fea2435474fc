import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from affinecurves import kfuncs
from affinecurves.kfuncs import (
    DomainError,
    abar,
    brent_root,
    ck,
    dck,
    fk,
    gk,
    hk,
    profile_interval,
    rect_area_interval,
    sk,
    xbar,
    ybar,
)

finite_k = st.floats(min_value=-10.0, max_value=10.0)
finite_s = st.floats(min_value=-10.0, max_value=10.0)


def bisect_root(f, lo, hi, tol=1e-12):
    """Plain bisection; deliberately independent of the library's inverses."""
    flo = f(lo)
    assert flo * f(hi) <= 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0.0:
            hi = mid
        else:
            lo, flo = mid, f(mid)
    return 0.5 * (lo + hi)


class TestBranchValues:
    def test_ck_flat(self):
        assert ck(0.0, 7.3) == 1.0

    def test_ck_origin(self):
        assert ck(1.0, 0.0) == 1.0

    def test_ck_hyperbolic(self):
        assert ck(-1.0, 1.0) == pytest.approx(math.cosh(1.0), abs=1e-15)

    def test_sk_flat(self):
        assert sk(0.0, 5.0) == 5.0

    def test_sk_oscillatory(self):
        assert sk(1.0, math.pi / 2) == pytest.approx(1.0, abs=1e-15)

    def test_sk_hyperbolic(self):
        assert sk(-4.0, 1.0) == pytest.approx(math.sinh(2.0) / 2.0, abs=1e-14)

    def test_xbar_is_sk(self):
        assert xbar(0.0, 2.0) == 2.0
        assert xbar(3.7, 0.0) == 0.0
        assert xbar(-1.0, 1.0) == pytest.approx(math.sinh(1.0), abs=1e-14)

    def test_ybar(self):
        assert ybar(0.0, 3.0) == pytest.approx(4.5, abs=1e-15)
        assert ybar(-2.2, 0.0) == 0.0
        assert ybar(-1.0, 1.0) == pytest.approx(math.cosh(1.0) - 1.0, abs=1e-14)

    def test_abar(self):
        assert abar(0.0, 1.0) == pytest.approx(1.0 / 12.0, abs=1e-16)
        assert abar(5.0, 0.0) == 0.0
        assert abar(-1.0, 2.0) == pytest.approx((math.sinh(2.0) - 2.0) / 2.0, abs=1e-14)

    def test_abar_positive_k_closed_form(self):
        # (s - sin(sqrt k s)/sqrt k) / (2k) at k = 1, s = 1
        assert abar(1.0, 1.0) == pytest.approx((1.0 - math.sin(1.0)) / 2.0, abs=1e-15)


class TestIdentities:
    # Residuals are scaled by the largest term entering each identity:
    # the terms reach ~1e27 at the hyperbolic grid corners, where an
    # unscaled 1e-12 is below one ulp.

    @given(finite_k, finite_s)
    @settings(max_examples=300, deadline=None)
    def test_pythagorean(self, k, s):
        c2 = ck(k, s) ** 2
        ks2 = k * sk(k, s) ** 2
        scale = max(1.0, abs(c2), abs(ks2))
        assert abs(c2 + ks2 - 1.0) <= 1e-12 * scale

    @given(finite_k, finite_s, finite_s)
    @settings(max_examples=300, deadline=None)
    def test_addition_formulas(self, k, a, s):
        t1c, t2c = ck(k, a) * ck(k, s), k * sk(k, a) * sk(k, s)
        t1s, t2s = sk(k, a) * ck(k, s), ck(k, a) * sk(k, s)
        scale_c = max(1.0, abs(t1c), abs(t2c))
        scale_s = max(1.0, abs(t1s), abs(t2s))
        assert abs(ck(k, a + s) - (t1c - t2c)) <= 1e-12 * scale_c
        assert abs(sk(k, a + s) - (t1s + t2s)) <= 1e-12 * scale_s

    @given(finite_k, st.floats(min_value=-9.0, max_value=9.0))
    @settings(max_examples=200, deadline=None)
    def test_derivatives_by_central_difference(self, k, s):
        h = 1e-5
        dc = (ck(k, s + h) - ck(k, s - h)) / (2 * h)
        ds = (sk(k, s + h) - sk(k, s - h)) / (2 * h)
        scale = max(1.0, abs(k) * abs(sk(k, s)))
        assert abs(dc + k * sk(k, s)) <= 1e-6 * scale
        assert abs(ds - ck(k, s)) <= 1e-6 * max(1.0, abs(ck(k, s)))

    def test_dck_helper_matches(self):
        assert dck(2.0, 0.7) == pytest.approx(-2.0 * sk(2.0, 0.7), abs=1e-15)

    @given(finite_s)
    @settings(max_examples=100, deadline=None)
    def test_parity(self, s):
        for k in (-3.0, 0.0, 2.0):
            assert ck(k, -s) == pytest.approx(ck(k, s), abs=1e-14)
            assert sk(k, -s) == pytest.approx(-sk(k, s), abs=1e-14)
            assert ybar(k, -s) == pytest.approx(ybar(k, s), abs=1e-14)


class TestSmallKContinuity:
    @pytest.mark.parametrize("k", [1e-12, -1e-12])
    @pytest.mark.parametrize("s", [0.1, 1.0, 5.0, 10.0, -7.5])
    def test_against_flat_branch(self, k, s):
        assert abs(sk(k, s) - s) <= 1e-9 * max(1.0, abs(s))
        assert abs(ybar(k, s) - s * s / 2) <= 1e-9 * max(1.0, s * s / 2)
        assert abs(abar(k, s) - s ** 3 / 12) <= 1e-9 * max(1.0, abs(s) ** 3 / 12)

    def test_series_vs_closed_form_agree_at_cutoff(self):
        # straddle the series switchover with values of z = k s^2
        for z in (0.09, 0.11, -0.09, -0.11):
            k, s = z, 1.0
            u = math.sqrt(abs(z))
            if z > 0:
                expect = (1.0 - math.cos(u)) / z
            else:
                expect = (math.cosh(u) - 1.0) / (u * u)
            assert ybar(k, s) == pytest.approx(expect, rel=1e-12)


class TestRectProfile:
    def test_hk_flat_formula(self):
        for s in (0.3, 1.0, 2.7):
            assert hk(0.0, s) == pytest.approx(s ** 3 / 2, rel=1e-14)
        assert hk(0.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_hk_hyperbola_seed(self):
        alpha = 2.0 ** (-1.0 / 3.0) * 5.0 ** (1.0 / 6.0)
        big_l = math.asinh(math.sqrt(5.0) / 2.0) / alpha
        assert hk(-alpha ** 2, big_l) == pytest.approx(0.5, abs=1e-13)

    def test_hk_positive_k_endpoint_exact(self):
        k = 2.5
        smax = 0.5 * math.pi / math.sqrt(k)
        assert hk(k, smax) == k ** -1.5
        with pytest.raises(DomainError):
            hk(k, smax * 1.001)

    def test_hk_negative_argument(self):
        with pytest.raises(DomainError):
            hk(0.0, -0.5)

    def test_intervals(self):
        assert profile_interval(-1.0).hi == math.inf
        assert profile_interval(4.0).hi == pytest.approx(math.pi / 4)
        assert rect_area_interval(4.0).hi == pytest.approx(0.125)


class TestInverses:
    def test_gk_flat(self):
        for a in (0.01, 0.5, 3.0):
            assert gk(0.0, a) == pytest.approx((2 * a) ** (1.0 / 3.0), abs=1e-12)
        assert abs(gk(0.0, 0.5) - 1.0) <= 1e-12

    def test_gk_against_bisection_oracle(self):
        # root of sinh(t)(cosh(t) - 1) = 2.5
        expected = bisect_root(
            lambda t: math.sinh(t) * (math.cosh(t) - 1.0) - 2.5, 0.0, 5.0
        )
        assert gk(-1.0, 2.5) == pytest.approx(expected, abs=1e-10)

    def test_gk_positive_k_endpoint(self):
        k = 3.0
        assert gk(k, k ** -1.5) == pytest.approx(0.5 * math.pi / math.sqrt(k), abs=1e-15)
        with pytest.raises(DomainError):
            gk(k, k ** -1.5 * 1.001)
        with pytest.raises(DomainError):
            gk(k, -1e-3)

    def test_fk_flat(self):
        for a in (0.05, 1.0, 7.0):
            assert fk(0.0, a) == pytest.approx((12 * a) ** (1.0 / 3.0), rel=1e-12)

    def test_fk_origin(self):
        for k in (-2.0, 0.0, 1.5):
            assert fk(k, 0.0) == 0.0

    def test_fk_round_trip_example(self):
        assert fk(-1.0, (math.sinh(2.0) - 2.0) / 2.0) == pytest.approx(2.0, abs=1e-11)

    def test_fk_against_bisection_oracle(self):
        expected = bisect_root(lambda t: abar(-1.0, t) - 0.8, 0.0, 10.0)
        assert fk(-1.0, 0.8) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("k", [-4.0, -1.0, -1e-3, 0.0, 1e-3, 1.0, 4.0])
    def test_round_trips(self, k):
        smax = profile_interval(k).hi
        samples = [0.1, 0.5, 1.0, 2.0, 5.0]
        for s in samples:
            if s >= smax:
                continue
            assert gk(k, hk(k, s)) == pytest.approx(s, abs=1e-10)
            assert fk(k, abar(k, s)) == pytest.approx(s, abs=1e-10)

    def test_fk_positive_k_domain(self):
        with pytest.raises(DomainError):
            fk(1.0, math.pi * 1.01)

    def test_nonfinite_targets_rejected(self):
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError):
                gk(-1.0, bad)
            with pytest.raises(DomainError):
                fk(0.0, bad)

    @given(st.floats(min_value=-8.0, max_value=8.0),
           st.floats(min_value=1e-3, max_value=4.0))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, k, s):
        if s >= profile_interval(k).hi:
            s = 0.9 * profile_interval(k).hi
        assert gk(k, hk(k, s)) == pytest.approx(s, abs=1e-10)
        assert fk(k, abar(k, s)) == pytest.approx(s, abs=1e-10)

    @given(st.floats(min_value=-8.0, max_value=8.0),
           st.floats(min_value=0.0, max_value=3.0),
           st.floats(min_value=1e-6, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_hk_strictly_increasing(self, k, s, ds):
        hi = profile_interval(k).hi
        if s + ds >= hi:
            return
        assert hk(k, s + ds) > hk(k, s)


class TestOverflow:
    @pytest.mark.parametrize("profile, k, s", [
        (abar, -1e300, 1.0), (abar, 0.0, 1e300), (abar, -1e6, 1.0),
        (ck, -1e6, 1.0), (sk, -1e6, 1.0), (ybar, -1e6, 1.0), (hk, -1e6, 1.0),
        (sk, 1e300, 1e300), (ck, math.nan, 1.0),
    ])
    def test_profiles_reject_nonfinite_values(self, profile, k, s):
        with pytest.raises(DomainError):
            profile(k, s)

    def test_inversions_still_probe_past_overflow(self):
        # the bracketing doubles s beyond the overflow of sinh before it
        # pulls the upper end back
        assert hk(-1.0, gk(-1.0, 1e300)) == pytest.approx(1e300, rel=1e-12)
        assert abar(-1.0, fk(-1.0, 1e300)) == pytest.approx(1e300, rel=1e-12)


ARRAY_K = [0.0, 1e-12, -1e-12, 0.1, -0.1, 1.0, -1.0, 9.0, -25.0, -400.0]
ARRAY_PROFILES = [ck, sk, ybar]


def _series_edge(k):
    """The |s| at which |k s^2| meets the series cutoff."""
    return math.sqrt(kfuncs._SERIES_CUTOFF / abs(k)) if k else 1.0


def _stacked(profile, k, ss):
    return np.array([profile(k, s) for s in ss.tolist()], dtype=float)


class TestArrayReads:
    """One array read of ck, sk or ybar equals the stacked scalar reads,
    byte for byte, on both branches and across the series cutoff."""

    @given(k=st.sampled_from(ARRAY_K), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_stacked_scalars(self, k, data):
        near_edge = st.builds(lambda sign, r: sign * _series_edge(k) * r,
                              st.sampled_from((-1.0, 1.0)), st.floats(0.999, 1.001))
        entries = st.one_of(st.floats(-30.0, 30.0), near_edge, st.sampled_from((0.0, -0.0)))
        ss = np.array(data.draw(st.lists(entries, max_size=30)), dtype=float)
        for profile in ARRAY_PROFILES:
            got = profile(k, ss)
            assert got.shape == ss.shape
            assert got.tobytes() == _stacked(profile, k, ss).tobytes()

    @pytest.mark.parametrize("k", ARRAY_K)
    def test_dense_grid_and_cutoff_neighbours(self, k):
        edge = _series_edge(k)
        at_edge = [edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)]
        ss = np.concatenate([np.linspace(-30.0, 30.0, 2001), at_edge, np.negative(at_edge),
                             np.random.default_rng(7).uniform(-30.0, 30.0, 500)])
        if k:
            z = np.abs(k * ss * ss)
            assert (z < kfuncs._SERIES_CUTOFF).any() and (z >= kfuncs._SERIES_CUTOFF).any()
        for profile in ARRAY_PROFILES:
            assert profile(k, ss).tobytes() == _stacked(profile, k, ss).tobytes()

    @pytest.mark.parametrize("profile", ARRAY_PROFILES)
    def test_empty_array(self, profile):
        got = profile(-2.0, np.empty(0))
        assert got.shape == (0,) and got.dtype == float

    @pytest.mark.parametrize("profile", ARRAY_PROFILES)
    @pytest.mark.parametrize("k, ss", [
        (-1e6, [0.0, 0.5, 1.0, 2.0, 0.75]),
        (-400.0, [1.0, -40.0, 36.0]),
        (0.0, [1.0, 1e200, math.inf]),
        (1e300, [0.0, 1e300]),
        (math.nan, [1.0]),
        (1.0, [2.0, math.nan, -math.inf]),
    ])
    def test_raises_the_first_scalar_error(self, profile, k, ss):
        ss = np.array(ss)
        with pytest.raises(DomainError) as got:
            profile(k, ss)
        for s in ss.tolist():
            try:
                profile(k, s)
            except DomainError as exc:
                assert str(got.value) == str(exc)
                break
        else:
            pytest.fail("no scalar read raises")


# Functions for the root-finder oracle, each from four coefficients in [-2, 2]
_ROOT_FAMILIES = [
    lambda c: lambda x: ((c[0] * x + c[1]) * x + c[2]) * x + c[3],
    lambda c: lambda x: math.exp(c[0] * x) - abs(c[1]) - 0.5,
    lambda c: lambda x: math.atan(c[0] * (x - c[1])) + 0.1 * c[2],
    lambda c: lambda x: math.tanh(8.0 * (x - c[0])) * (1.0 + c[1] ** 2),
    lambda c: lambda x: (x - c[0]) ** 5 + 1e-3 * c[1],  # flat at its root
    lambda c: lambda x: math.sin(3.0 * x + c[0]) + 0.5 * c[1],
    lambda c: lambda x: 1.0 if x > c[0] else -1.0,  # a sign change at a jump, no zero
]


def _brentq_outcome(solver, f, a, b, xtol, rtol, maxiter):
    """The root's bits, or the type of the exception raised."""
    try:
        return solver(f, a, b, xtol, rtol, maxiter).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def _scipy_brentq(f, a, b, xtol, rtol, maxiter):
    return brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)


class TestBrentRoot:
    """`brent_root` against SciPy's brentq, kept as its oracle here only."""

    def test_random_brackets_bit_equal(self):
        rng = np.random.default_rng(20)
        outcomes = []
        for _ in range(3000):
            f = _ROOT_FAMILIES[rng.integers(len(_ROOT_FAMILIES))](rng.uniform(-2.0, 2.0, 4))
            a, b = rng.uniform(-4.0, 4.0, 2).tolist()  # either order
            tols = (float(rng.choice([1e-15, 1e-12, 1e-10, 1e-6, 5e-324])),
                    float(rng.choice([kfuncs.BRENT_RTOL, 8.9e-16, 1e-9])),
                    int(rng.choice([100, 100, 100, 6])))
            want = _brentq_outcome(_scipy_brentq, f, a, b, *tols)
            assert _brentq_outcome(brent_root, f, a, b, *tols) == want, (a, b, tols)
            outcomes.append(want if isinstance(want, type) else float)
        # roots, same-sign brackets and non-convergence all occur
        assert all(outcomes.count(kind) > 50 for kind in (float, ValueError, RuntimeError))

    def test_errors(self):
        with pytest.raises(ValueError, match="different signs"):
            brent_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, kfuncs.BRENT_RTOL, 100)
        with pytest.raises(RuntimeError):
            brent_root(lambda x: x ** 3 - 2.0, 0.0, 2.0, 1e-12, kfuncs.BRENT_RTOL, 3)
        with pytest.raises(ValueError, match="NaN"):
            brent_root(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0,
                       1e-12, kfuncs.BRENT_RTOL, 100)

    @pytest.mark.parametrize("a, b", [(1.5, 3.0), (0.0, 1.5), (1.5, -1.0), (-1.0, -1.5)])
    def test_root_at_a_bracket_end_is_returned_as_is(self, a, b):
        f = lambda x: x * x - 2.25  # noqa: E731
        got = brent_root(f, a, b, 1e-3, kfuncs.BRENT_RTOL, 100)
        assert got == (a if f(a) == 0.0 else b)
        assert got.hex() == _scipy_brentq(f, a, b, 1e-3, kfuncs.BRENT_RTOL, 100).hex()

    def test_gk_fk_inversions(self, monkeypatch):
        """Every root behind gk and fk is the bits SciPy's brentq gives on
        the same function, bracket, tolerances and cap."""
        calls = []

        def spy(f, a, b, xtol, rtol, maxiter):
            got = brent_root(f, a, b, xtol, rtol, maxiter)
            assert got.hex() == _scipy_brentq(f, a, b, xtol, rtol, maxiter).hex(), (a, b)
            calls.append((a, b))
            return got

        monkeypatch.setattr(kfuncs, "brent_root", spy)
        rng = np.random.default_rng(21)
        for _ in range(300):
            k = float(rng.choice([rng.uniform(-30.0, 30.0), rng.uniform(-1e-3, 1e-3), 0.0]))
            s = rng.uniform(0.0, min(profile_interval(k).hi, 6.0))
            gk(k, hk(k, s) * rng.uniform(0.5, 1.0))
            fk(k, abar(k, s) * rng.uniform(0.5, 1.0))
        assert len(calls) >= 500
