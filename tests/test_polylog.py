"""Kernel tests: polylog, zeta constants, trigamma.

Ground truth is the defining series, summed brute-force (with explicit
remainder bounds) far past the accuracy target, plus a handful of exact
special values.  scipy's spence and mpmath supply independent routes where
they have one.
"""

import importlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import spence

from legderiv import DomainError, polylog, trigamma, zeta_const

PI = math.pi


def series_reference(s: int, x: float, tol: float = 1e-14) -> tuple[float, float]:
    """Brute-force partial sum of sum x^k/k^s and its geometric remainder bound."""
    ax = abs(x)
    if ax == 0.0:
        return 0.0, 0.0
    needed = int(math.log(tol * (1.0 - ax)) / math.log(ax)) + 2 if ax < 1.0 else 10**6
    terms = min(max(needed, 64), 10**6)
    k = np.arange(1, terms + 1, dtype=np.float64)
    value = float(np.sum(x**k / k**s))
    bound = ax ** (terms + 1) / (1.0 - ax) if ax < 1.0 else math.inf
    return value, bound


def zeta_series(s: int, terms: int = 10**5) -> float:
    """Brute-force zeta(s): partial sum plus Euler-Maclaurin tail at K+1."""
    k = np.arange(1, terms + 1, dtype=np.float64)
    partial = float(np.sum(k**-float(s)))
    a = float(terms + 1)
    tail = (
        a ** (1 - s) / (s - 1)
        + 0.5 * a**-s
        + s / 12.0 * a ** (-s - 1)
        - s * (s + 1) * (s + 2) / 720.0 * a ** (-s - 3)
    )
    return partial + tail


class TestZetaConst:
    def test_correctly_rounded(self):
        # math.pi**4 / 90.0 is one ulp below zeta(4); every value is the nearest double
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for s in (2, 3, 4, 5):
                assert zeta_const(s) == float(mp.zeta(s)), s

    @pytest.mark.parametrize("s", [2, 3, 4, 5])
    def test_against_brute_force(self, s):
        assert zeta_const(s) == pytest.approx(zeta_series(s), rel=1e-14)

    def test_zeta3_literal(self):
        # frozen from the brute-force sum above
        assert zeta_const(3) == pytest.approx(1.2020569031595942854, rel=1e-15)

    @pytest.mark.parametrize("s", [1, 6, 0, -1])
    def test_domain(self, s):
        with pytest.raises(DomainError):
            zeta_const(s)


class TestPolylogSpecialValues:
    def test_empty_series(self):
        assert polylog(2, 0.0) == 0.0

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_signed_zero(self, s):
        # Li_s(x) ~ x near 0, so the sign of a zero argument carries through
        assert math.copysign(1.0, polylog(s, 0.0)) == 1.0
        assert math.copysign(1.0, polylog(s, -0.0)) == -1.0

    def test_dilog_at_one(self):
        assert polylog(2, 1.0) == pytest.approx(PI**2 / 6.0, abs=1e-15)

    def test_dilog_at_half(self):
        assert polylog(2, 0.5) == pytest.approx(
            PI**2 / 12.0 - math.log(2.0) ** 2 / 2.0, rel=1e-15
        )
        assert polylog(2, 0.5) == pytest.approx(0.5822405264650125, rel=1e-13)

    def test_li4_at_minus_one(self):
        # alternating series sums to -(7/8) zeta(4)
        brute = float(np.sum((-1.0) ** np.arange(1, 2001) / np.arange(1.0, 2001.0) ** 4))
        assert polylog(4, -1.0) == pytest.approx(-7.0 * PI**4 / 720.0, rel=1e-14)
        assert polylog(4, -1.0) == pytest.approx(brute, rel=1e-13)

    def test_li1_closed_form(self):
        for x in (-3.5, -1.0, -0.2, 0.0, 0.37, 0.999):
            assert polylog(1, x) == -math.log1p(-x)

    @pytest.mark.parametrize("s", [2, 3, 4, 5])
    def test_endpoint_equals_zeta(self, s):
        assert polylog(s, 1.0) == pytest.approx(zeta_const(s), abs=1e-14)

    @pytest.mark.parametrize(
        "s,value",
        [
            (2, -(PI**2) / 12.0),
            (3, -0.75 * 1.2020569031595942854),
            (4, -7.0 * PI**4 / 720.0),
            (5, -15.0 / 16.0 * 1.0369277551433699263),
        ],
    )
    def test_alternating_constants(self, s, value):
        # Li_s(-1) = -(1 - 2^(1-s)) zeta(s)
        assert polylog(s, -1.0) == pytest.approx(value, rel=1e-13)

    def test_spence_cross_check(self):
        # scipy's spence(x) is Li_2(1-x)
        for x in (-8.0, -1.5, -0.4, 0.1, 0.5, 0.93, 0.99999):
            assert polylog(2, x) == pytest.approx(float(spence(1.0 - x)), rel=1e-12, abs=1e-13)


class TestPolylogSeriesConsistency:
    def test_random_points_match_series(self):
        rng = np.random.default_rng(20140412)
        xs = rng.uniform(-1.0, 1.0, size=100)
        for s in (1, 2, 3, 4, 5):
            for x in xs:
                reference, bound = series_reference(s, float(x))
                assert polylog(s, float(x)) == pytest.approx(
                    reference, abs=1e-12 + bound, rel=1e-12
                )

    def test_branch_continuity_at_minus_one(self):
        # the lowest piece owns x = -1 exactly; the inversion branch takes
        # over just below.  Both must agree there.
        for s in (2, 3, 4, 5):
            inside = polylog(s, -1.0)
            outside = polylog(s, math.nextafter(-1.0, -2.0))
            assert outside == pytest.approx(inside, abs=1e-12)

    def test_against_mpmath_all_regions(self):
        # independent high-precision implementation, covering the pieces, the
        # ln(x)-expansion and the inversion branch; x = +-k/8 (k = 1..4), -k/8
        # (k = 5..8), e^(-k/8) (k = 1..5, the piece ends in v = -ln x) and their
        # neighbours are the ends of the pieces, where each re-centred table
        # truncates worst; 3/4 sits inside the ln(x) region, and the float above
        # 1/2 in its top piece.  The dense sweeps of (1/2, 1) and [-1, -1/2) run
        # the pieces of the ln(x) expansion and the four pieces about x = -1 over
        # their whole range.
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        points = [-1048576.0, -123.4, -2.0, -1.0, -0.99973, -0.9, -0.5, 0.3, 0.74,
                  0.76, 0.9, 0.995, 0.99994, 1.0 - 2.0**-20]
        cuts = tuple(sign * k / 8.0 for k in range(1, 5) for sign in (1, -1))
        for cut in (0.75,) + cuts + tuple(-k / 8.0 for k in range(5, 9)):
            points += [cut, math.nextafter(cut, 0.0), math.nextafter(cut, 2.0 * cut)]
        for k in range(1, 6):
            cut = math.exp(-k / 8.0)
            points += [cut, math.nextafter(cut, 0.0), math.nextafter(cut, 1.0)]
        points.append(math.nextafter(0.5, 1.0))
        points += [float(x) for x in np.linspace(0.5, 1.0, 66)[1:-1]]
        points += [float(x) for x in np.linspace(-1.0, -0.5, 65)[:-1]]
        for s in (2, 3, 4, 5):
            for x in points:
                reference = mp.polylog(s, mp.mpf(x))
                rel = float(abs((polylog(s, x) - reference) / reference))
                assert rel <= 1e-15, (s, x, rel)

    def test_relative_accuracy_contract_near_one(self):
        # 1e-15 relative holds arbitrarily deep into the x -> 1 tail
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for s in (2, 3, 4, 5):
            for k in range(2, 52, 2):
                x = 1.0 - 2.0**-k
                if x == 1.0:
                    break
                reference = mp.polylog(s, mp.mpf(x))
                rel = float(abs((polylog(s, x) - reference) / reference))
                assert rel <= 1e-15, (s, k, rel)

    def test_docstring_table_lengths(self):
        # The term counts the module docstring states are the lengths of the
        # tables fixed at import: the re-centred series on each of the twelve
        # pieces, from x = -1 up, and the a rows of the ln(x) expansion on each
        # of its six pieces, from x = 1 down (its b(v) is a monomial, no table).
        kernel = importlib.import_module("legderiv.polylog")
        doc = " ".join(kernel.__doc__.split())
        for s in range(2, 6):
            pieces = re.search(rf"s = {s}: (\d+(?:/\d+){{11}})", doc).group(1)
            lengths = [len(table) for table in kernel._SERIES_PIECES[s]]
            assert lengths == [int(n) for n in pieces.split("/")], s
            assert max(lengths) <= 16, s
            log = re.search(rf"s = {s}: a (\d+(?:/\d+){{5}})", doc)
            a_rows = [len(kernel._LOG_PIECES[s][i]) for i in range(8, 14)]
            assert a_rows == [int(n) for n in log.group(1).split("/")], s
            assert max(a_rows) <= 9, s

    def test_one_hop_and_one_order_check(self, monkeypatch):
        # Only the public polylog runs as_order, and inversion maps x < -1 onto
        # a piece, so a call enters the private kernel entry once, or twice
        # below -1; Li_1 and Li_s(1) never enter it.
        kernel = importlib.import_module("legderiv.polylog")
        entries, checks = [], []
        li, as_order = kernel._li, kernel.as_order

        def counted_li(s, x):
            entries.append(x)
            return li(s, x)

        def counted_as_order(*args):
            checks.append(args)
            return as_order(*args)

        monkeypatch.setattr(kernel, "_li", counted_li)
        monkeypatch.setattr(kernel, "as_order", counted_as_order)
        xs = [k / 16.0 for k in range(-16, 9)] + [-0.999, -0.55, 0.6, 0.75, 0.99, 1.0 - 2.0**-40]
        xs += [math.nextafter(-1.0, -2.0), -1.5, -3.7, -123.4, -1e6]
        for s in (1, 2, 3, 4, 5):
            for x in xs if s == 1 else xs + [1.0]:  # Li_1(1) diverges
                entries.clear()
                checks.clear()
                polylog(s, x)
                expected = 0 if s == 1 or x == 1.0 else 2 if x < -1.0 else 1
                assert len(entries) == expected <= 2, (s, x, entries)
                assert len(checks) == 1, (s, x)

    def test_li234_is_polylog_bit_for_bit(self):
        # The fused (Li_2, Li_3, Li_4) pass runs the same tables, rows and
        # inversion identities as polylog, so every value keeps its bits: seeded
        # x in every region, inversion down to -1e12, the piece ends x = k/8 and
        # e^(-k/8) with their neighbours, and the special points.
        kernel = importlib.import_module("legderiv.polylog")
        rng = np.random.default_rng(234)
        xs = [float(x) for lo, hi in ((-1.0, 0.5), (0.5, 1.0), (-4.0, -1.0))
              for x in rng.uniform(lo, hi, size=400)]
        xs += [-float(x) for x in 10.0 ** rng.uniform(0.0, 12.0, size=400)] + [-1e12]
        for cut in [k / 8.0 for k in range(-8, 5)] + [math.exp(-k / 8.0) for k in range(1, 6)]:
            xs += [cut, math.nextafter(cut, -math.inf), math.nextafter(cut, math.inf)]
        xs += [1.0, -1.0, 0.0, -0.0, math.nextafter(0.5, 1.0), math.nextafter(1.0, 0.0), -1e-300]
        for x in xs:
            fused = [v.hex() for v in kernel._li234(x)]
            assert fused == [polylog(s, x).hex() for s in (2, 3, 4)], x

    def test_derivative_ladder(self):
        # x d/dx Li_s(x) = Li_{s-1}(x)
        rng = np.random.default_rng(7)
        for s in (2, 3, 4, 5):
            for x in rng.uniform(0.05, 0.95, size=50):
                x = float(x)
                h = 1e-5
                d1 = (polylog(s, x + h) - polylog(s, x - h)) / (2 * h)
                d2 = (polylog(s, x + h / 2) - polylog(s, x - h / 2)) / h
                derivative = (4 * d2 - d1) / 3.0
                assert derivative == pytest.approx(polylog(s - 1, x) / x, abs=1e-7, rel=1e-7)


class TestPolylogDomain:
    def test_rejects_x_above_one(self):
        for s in (1, 2, 5):
            with pytest.raises(DomainError):
                polylog(s, 1.0000001)

    def test_rejects_divergent_li1(self):
        with pytest.raises(DomainError):
            polylog(1, 1.0)

    def test_rejects_bad_order(self):
        for s in (0, 6, -2, 2.5, 2.0, True, np.int64(6)):
            with pytest.raises(DomainError):
                polylog(s, 0.5)

    def test_accepts_integer_like_order(self):
        for s in (1, 2, 3, 4, 5):
            assert polylog(np.int64(s), 0.3) == polylog(s, 0.3)

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            polylog(2, float("nan"))

    def test_rejects_infinities(self):
        # -inf used to come back as -inf from the inversion branch
        for s in (1, 2, 3, 4, 5):
            for x in (-math.inf, math.inf):
                with pytest.raises(DomainError):
                    polylog(s, x)


class TestTrigamma:
    def test_at_one(self):
        assert trigamma(1) == pytest.approx(PI**2 / 6.0, rel=1e-15)

    def test_recurrence_step(self):
        # psi'(2) = psi'(1) - 1
        assert trigamma(2) == pytest.approx(PI**2 / 6.0 - 1.0, rel=1e-14)

    def test_direct_series_at_50(self):
        # brute force: 10^6 explicit terms plus Euler-Maclaurin remainder
        j = np.arange(0, 10**6, dtype=np.float64)
        partial = float(np.sum((50.0 + j) ** -2.0))
        a = 50.0 + 10**6
        tail = 1.0 / a + 0.5 / a**2 + 1.0 / (6.0 * a**3)
        assert trigamma(50) == pytest.approx(partial + tail, rel=1e-13)

    def test_against_mpmath(self):
        # the docstring's 1e-15 bound on both sides of the shift to 20, and for
        # huge k, where the asymptotic tail is 1/k alone
        mp = pytest.importorskip("mpmath")
        ks = list(range(1, 60)) + [199, 500, 12345, 10**6, 10**30, 10**100, 10**300, 2**1023]
        with mp.workdps(40):
            for k in ks:
                reference = mp.psi(1, mp.mpf(k))
                rel = float(abs((trigamma(k) - reference) / reference))
                assert rel <= 1e-15, (k, rel)

    def test_recurrence_exactness_sweep(self):
        for k in range(1, 10**4 + 1):
            lhs = trigamma(k + 1)
            rhs = trigamma(k) - 1.0 / (float(k) * float(k))
            assert abs(lhs - rhs) <= 1e-14 * abs(trigamma(k))

    @pytest.mark.parametrize("k", [0, -1, 2.5, True])
    def test_domain(self, k):
        with pytest.raises(DomainError):
            trigamma(k)

    def test_integer_like_arguments(self):
        assert trigamma(np.int64(3)) == trigamma(3)
        # beyond float range float(k) would overflow
        for k in (2.0, np.int64(0), 10**400):
            with pytest.raises(DomainError):
                trigamma(k)


@settings(max_examples=200, derandomize=True)
@given(st.integers(min_value=1, max_value=10**6))
def test_trigamma_recurrence_property(k):
    assert trigamma(k + 1) == pytest.approx(
        trigamma(k) - 1.0 / (float(k) * float(k)), rel=1e-13
    )


@settings(max_examples=150, derandomize=True)
@given(
    st.integers(min_value=2, max_value=5),
    st.floats(min_value=-0.999, max_value=0.999, allow_nan=False),
)
def test_polylog_matches_series_property(s, x):
    reference, bound = series_reference(s, x)
    assert polylog(s, x) == pytest.approx(reference, abs=1e-12 + bound, rel=1e-12)
