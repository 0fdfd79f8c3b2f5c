"""Harness behaviour: determinism, required/informational split, fixed gates."""

import hashlib
import importlib
import json
import math

import numpy as np
import pytest

from legderiv import (
    CheckResult,
    DomainError,
    EndpointFlag,
    check_appendix_a,
    check_appendix_b,
    check_closed_forms,
    check_identities,
    check_quadrature_recurrence,
    frak_I,
    integrate,
    p_deriv,
    p_derivs,
    run_suite,
    trigamma,
    trigamma_sum,
    trigamma_sum_target,
)
from legderiv import oracle, orderderiv, polylog, verify
from legderiv.verify import _complex_step, _t_kernel, _z_kernel

# the module, which the package's polylog function shadows
polylog_module = importlib.import_module("legderiv.polylog")

# The report schema: every check id in report order, with its required flag.
# Dropping, renaming or reordering a check means editing this list.
REPORT_ROWS = [
    ("closed-form-normalization", True),
    ("closed-form-fd-n1", True),
    ("closed-form-fd-n2", True),
    ("closed-form-fd-n3", True),
    ("closed-form-fd-n4", True),
    ("nu-tables-vs-closed-form", True),
    ("p4-via-frak-I", True),
    ("ode-recurrence-n1", True),
    ("ode-recurrence-n2", True),
    ("ode-recurrence-n3", True),
    ("ode-recurrence-n4", True),
    ("identity-dilog-reflection", True),
    ("identity-dilog-landen", True),
    ("identity-trilog-landen", True),
    ("first-integral-1", True),
    ("first-integral-2", True),
    ("first-integral-3-li1", False),
    ("first-integral-3-li2", False),
    ("first-integral-3-li3", False),
    ("antiderivative-li4-landen", True),
    ("antiderivative-li2-squared", False),
    ("antiderivative-log-squares", True),
    ("inner-integral-cancellation", True),
    ("frak-I-quadrature", True),
    ("frak-I-display-variant", False),
    ("p4-display-constant", False),
    ("frak-limit-endpoints", True),
    ("trigamma-sum-accelerated", True),
    ("trigamma-sum-intermediate", True),
    ("trigamma-sum-naive-gap", True),
]


@pytest.fixture(scope="module")
def report():
    return run_suite()


class TestSuite:
    def test_all_required_pass(self, report):
        assert report.all_passed
        for result in report.results:
            if result.required:
                assert result.passed, result.id

    def test_deterministic_bytes(self, report):
        again = run_suite()
        assert report.to_json() == again.to_json()
        assert report.to_text() == again.to_text()

    @pytest.mark.parametrize(
        "seed,sha256",
        [
            (20140412, "c5d89566b01669a8d0c6e668a249786dade1a034417fa1051d33a83d3624cf70"),
            (2718, "b6c4b9e8cd83d7ce1b13ca17123b84f55ec9957aacf4aace2bd43a618e41c22a"),
            (6113, "b71a709cf5b7214424d9df9795696bfb1cb3549eebb54f83d6291a0094b8858f"),
        ],
        ids=["20140412", "2718", "6113"],
    )
    def test_report_bytes_are_pinned(self, seed, sha256):
        """sha256 of run_suite(seed).to_json(), recorded with CPython 3.11.7
        on glibc 2.36 (x86-64).

        A change that moves any report byte, such as a reordered term in a
        display, fails here. Another libm may round math.log or math.log1p
        differently in the last bit and so move a deviation without any
        change to the code.
        """
        digest = hashlib.sha256(run_suite(seed=seed).to_json().encode()).hexdigest()
        assert digest == sha256

    def test_seed_change_keeps_outcomes(self, report):
        other = run_suite(seed=4242)
        assert [r.passed for r in report.results] == [r.passed for r in other.results]
        assert [r.id for r in report.results] == [r.id for r in other.results]

    def test_result_invariant(self, report):
        for r in report.results:
            assert r.passed == (r.max_abs_dev <= r.tolerance or r.max_rel_dev <= r.tolerance)

    def test_report_schema(self, report):
        assert [(r.id, r.required) for r in report.results] == REPORT_ROWS

    def test_config_echo(self, report):
        # the walk length, like the sample sizes, is part of the program, not the config
        assert list(report.config) == ["seed", "tolerances"]
        assert report.config["seed"] == 20140412
        assert "oracle" in report.config["tolerances"]

    def test_json_shape_and_key_order(self, report):
        doc = json.loads(report.to_json())
        assert list(doc) == ["all_passed", "config", "results"]
        keys = [list(entry) for entry in doc["results"]]
        assert all(
            k == ["id", "required", "passed", "sample_count", "max_abs_dev",
                  "max_rel_dev", "tolerance", "note"]
            for k in keys
        )

    def test_seed_validation(self):
        # the config echoes the seed, so a report is reproducible from its own config
        for seed in (None, True, 1.5, "abc", 7.0):
            for check in (run_suite, check_identities, check_appendix_a):
                with pytest.raises(DomainError):
                    check(seed=seed)
        assert run_suite(seed=np.int64(7)).to_json() == run_suite(seed=7).to_json()


class TestIndividualChecks:
    def test_closed_forms_rows(self):
        rows = {r.id: r for r in check_closed_forms()}
        assert rows["closed-form-normalization"].passed
        for n in (1, 2, 3, 4):
            assert rows[f"closed-form-fd-n{n}"].passed

    def test_tables_gate_on_closed_forms(self, monkeypatch):
        # the closed forms are checked against the oracle and against the
        # series tables p_deriv evaluates; a 1e-11 relative slip fails the latter
        rows = {r.id: r for r in check_closed_forms()}
        assert rows["nu-tables-vs-closed-form"].max_rel_dev <= 1e-12
        closed_forms = verify._closed_forms
        monkeypatch.setattr(
            verify, "_closed_forms", lambda z: tuple(v * (1 + 1e-11) for v in closed_forms(z))
        )
        rows = {r.id: r for r in check_closed_forms()}
        assert not rows["nu-tables-vs-closed-form"].passed

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_recurrence_rows(self, n):
        result = check_quadrature_recurrence()[n - 1]
        assert result.id == f"ode-recurrence-n{n}"
        assert result.passed
        assert result.tolerance == 1e-11
        assert result.max_abs_dev <= 1e-11
        assert result.sample_count == len(verify._ODE_GRID)

    def test_recurrence_catches_a_p3_slip(self, monkeypatch):
        # a 1e-8 sin(7z) slip in the P3 rows that the moment pass integrates scores
        # 1.2e-8 against the 1e-11 gate on the n = 3 row, which alone reads
        # P3 on both sides of its relation
        def slipped(z):
            p = p_derivs(z)
            return p[:3] + (p[3] + 1e-8 * math.sin(7.0 * z),) + p[4:]

        monkeypatch.setattr(oracle, "_row", slipped)
        rows = check_quadrature_recurrence()
        assert not rows[2].passed and rows[2].max_abs_dev > 1e-8

    def test_identities_tiny_residuals(self):
        for result in check_identities():
            assert result.passed
            assert result.max_abs_dev <= 1e-12
            assert result.sample_count == 100

    def test_identities_and_closed_forms_evaluate_each_point_once(self, monkeypatch):
        # one identity family call per x: 6 _li calls for 100 x, plus one inversion
        # hop at each of Li_2 and Li_3 at x/(x - 1) for the 46 x > 1/2 (inversion
        # re-enters through polylog._li); one _closed_forms call per distinct z of
        # _FD_GRID + _TABLE_GRID
        counts = {"li": 0, "closed": 0}
        li = polylog_module._li

        def counted_li(s, x):
            counts["li"] += 1
            return li(s, x)

        for module in (polylog_module, orderderiv):
            monkeypatch.setattr(module, "_li", counted_li)
        check_identities(20140412)
        assert counts["li"] == 692
        closed_forms = verify._closed_forms

        def counted_closed_forms(z):
            counts["closed"] += 1
            return closed_forms(z)

        monkeypatch.setattr(verify, "_closed_forms", counted_closed_forms)
        check_closed_forms()
        assert counts["closed"] == 21

    def test_appendix_a_split(self):
        rows = {r.id: r for r in check_appendix_a()}
        assert rows["first-integral-1"].required and rows["first-integral-1"].passed
        assert rows["first-integral-2"].required and rows["first-integral-2"].passed
        assert rows["antiderivative-li4-landen"].required
        assert rows["antiderivative-log-squares"].required
        # report-only rows
        assert not rows["antiderivative-li2-squared"].required
        for order in (1, 2, 3):
            row = rows[f"first-integral-3-li{order}"]
            assert not row.required
        li2_row = rows["first-integral-3-li2"]
        assert "24*zeta(3)" in li2_row.note
        assert li2_row.max_abs_dev == pytest.approx(28.8493656758, abs=1e-4)

    def test_cancellation_gaps_match_integrals_from_minus_one(self, monkeypatch):
        # the check integrates each gap of its grid once and carries a running
        # total; measured against each point's own integral from -1 instead of
        # I(z), the running totals must agree with them at all ten points
        def integrand(z):
            return p_deriv(3, z) + 3.0 * p_deriv(2, z)

        def alone(z):
            flags = EndpointFlag(lower_singular=True)
            return integrate(integrand, -1.0, z, tol=1e-11, flags=flags).value

        row = {r.id: r for r in check_appendix_a()}["inner-integral-cancellation"]
        assert row.sample_count == 10 and row.max_abs_dev <= 1e-12
        monkeypatch.setattr(verify, "inner_integral_I", alone)
        row = {r.id: r for r in check_appendix_a()}["inner-integral-cancellation"]
        assert row.sample_count == 10 and row.max_abs_dev <= 1e-12

    def test_appendix_a_li2_squared_form_measured_good(self):
        # the display checks out numerically even though it is report-only
        rows = {r.id: r for r in check_appendix_a()}
        assert rows["antiderivative-li2-squared"].max_abs_dev <= 1e-11

    def test_li4_antiderivative_slope_at_half(self):
        # at t = 1/2 the Landen argument is exactly -1, so the derivative of
        # the antiderivative must equal Li_4(-1) = -7 pi^4/720
        from legderiv import polylog

        slope = _complex_step(verify._t_displays, *_t_kernel(0.5))[0]
        assert slope == pytest.approx(-7.0 * math.pi**4 / 720.0, abs=1e-11)
        assert slope == pytest.approx(polylog(4, -1.0), abs=1e-11)

    def test_appendix_a_display_variant_findings(self):
        rows = {r.id: r for r in check_appendix_a()}
        variant = rows["frak-I-display-variant"]
        assert not variant.required
        assert variant.max_abs_dev > 1.0  # the plus-sign variant really fails
        constant = rows["p4-display-constant"]
        assert not constant.required
        # the stripped bracket misses the oracle by exactly 2 pi^4/3
        assert constant.max_abs_dev == pytest.approx(2.0 * math.pi**4 / 3.0, abs=1e-4)
        assert "-2 pi^4/3" in constant.note

    def test_appendix_b_rows(self):
        rows = {r.id: r for r in check_appendix_b()}
        assert all(r.passed for r in rows.values())
        assert {r.sample_count for name, r in rows.items() if name.startswith("trigamma")} == {1000}
        gap_note = rows["trigamma-sum-naive-gap"].note
        assert "misses by" in gap_note

    def test_frak_limits_gate_on_frak_I(self, monkeypatch):
        # the endpoint check measures frak_I and the quadrature of its
        # integrand against the limits, not the limits against literals
        monkeypatch.setattr(verify, "frak_I", lambda t: frak_I(t) + 1e-9)
        rows = {r.id: r for r in check_appendix_b()}
        assert not rows["frak-limit-endpoints"].passed

    def test_walk_length_moves_no_deviation(self, monkeypatch):
        # past K = 1000 the accelerated rows' tail error, under 1/(180 K^6), is below
        # rounding: a ten times longer walk gives the same deviations, bit for bit
        def sums():
            rows = check_appendix_b()[1:3]
            return [(r.id, r.max_abs_dev.hex(), r.max_rel_dev.hex()) for r in rows]

        short = sums()
        monkeypatch.setattr(verify, "_SUM_TERMS", 10_000)
        assert sums() == short

    def test_appendix_b_tail_correction_stability(self):
        # doubling the partial-sum length moves the corrected value < 1e-10
        one = trigamma_sum(4000)
        two = trigamma_sum(8000)
        assert abs(one - two) <= 1e-10


def _trigammas(top):
    # (k, psi'(k)) for k = top..1 by the stable backward step psi'(k) = psi'(k+1) + 1/k^2:
    # the reference walk for the inline ones in verify
    value = trigamma(top + 1)
    for k in range(top, 0, -1):
        value += 1.0 / (float(k) * float(k))
        yield k, value


class TestTrigammaSum:
    def test_accelerated_hits_target(self):
        assert trigamma_sum(10**4) == pytest.approx(trigamma_sum_target(), abs=1e-9)
        assert trigamma_sum_target() == pytest.approx(7.0 * math.pi**4 / 360.0, abs=0.0)
        assert trigamma_sum_target() == pytest.approx(1.8940656589944918, abs=1e-15)

    @pytest.mark.parametrize("terms", [10**3, 10**4])
    def test_accelerated_to_rounding(self, terms):
        # one backward trigamma pass, summed from the small terms up
        assert abs(trigamma_sum(terms) - trigamma_sum_target()) <= 1e-15

    def test_naive_is_slow(self):
        naive = trigamma_sum(1000, accelerate=False)
        assert abs(naive - trigamma_sum_target()) > 1e-4

    def test_naive_converges_like_one_over_k(self):
        gap1 = abs(trigamma_sum(500, accelerate=False) - trigamma_sum_target())
        gap2 = abs(trigamma_sum(1000, accelerate=False) - trigamma_sum_target())
        assert gap1 / gap2 == pytest.approx(2.0, rel=0.15)

    @pytest.mark.parametrize("terms", [1, 19, 20, 21, 1000, 10**4])
    def test_partial_sums_keep_the_walk_bits(self, terms):
        # the inline walk on a float k against the loop over _trigammas
        main = shifted = 0.0
        for k, tk in _trigammas(terms):
            k2 = float(k) * float(k)
            main += tk / k2
            shifted += (tk - 1.0 / k2) / k2
        assert [v.hex() for v in verify._partial_sums(terms)[:2]] == [main.hex(), shifted.hex()]

    @pytest.mark.parametrize("terms", [1, 19, 20, 21, 1000, 10**4])
    def test_partial_sums_tails_against_mpmath(self, terms):
        # the tails are the Hurwitz zeta(s, K+1) in closed form; zeta(s) less
        # the partial sum cancels (tail4 would be off by 1.7e-5 at K = 10^4)
        mp = pytest.importorskip("mpmath")
        _, _, tail, tail4 = verify._partial_sums(terms)
        with mp.workdps(40):
            x = mp.mpf(terms + 1)
            ref4 = mp.zeta(4, x)
            ref = mp.zeta(3, x) + ref4 / 2 + mp.zeta(5, x) / 6
            assert float(abs((tail4 - ref4) / ref4)) <= 1e-15
            assert float(abs((tail - ref) / ref)) <= 1e-15

    def test_brute_force_is_the_two_walks(self):
        # one walk gives the naive sum and the dropped sum of two separate walks
        naive = dropped = 0.0
        for (k, tk), (_, tks) in zip(_trigammas(1000), _trigammas(2000)):
            naive += (tk - tks) / (float(k) * float(k))
        for (k, _), (_, tks) in zip(_trigammas(1000), _trigammas(2000)):
            dropped += tks / (float(k) * float(k))
        assert [v.hex() for v in verify._brute_force(1000)] == [naive.hex(), dropped.hex()]
        assert trigamma_sum(1000, accelerate=False) == naive

    def test_domain(self):
        for terms in (0, 10**9, 1.5, 2.0, True):
            with pytest.raises(DomainError):
                trigamma_sum(terms)
        assert trigamma_sum(np.int64(50)) == trigamma_sum(50)


class TestDisplayFamilies:
    """One complex-step evaluation per point for each family of check_appendix_a's rows."""

    @pytest.mark.parametrize("family", ["t", "z"])
    def test_slopes_agree_with_mpmath_diff(self, family):
        # the same display formulas, float constants and all, evaluated on 30-digit
        # mpmath kernel values and differentiated by mpmath.diff; at t = 0.95 the
        # frak_I variant's own cancellation costs 1.1e-13, so the t points stop at 0.9
        mp = pytest.importorskip("mpmath")

        def t_family(x):
            k = [mp.polylog(s, y) for y in (x, 1 - x, x / (x - 1)) for s in (2, 3, 4)]
            return verify._t_displays(x, mp.log(x), mp.log(1 - x), *k)

        def z_family(z):
            t, u = (1 + z) / 2, (1 - z) / 2
            kernel = mp.log(t), mp.log(u), -mp.log(u), mp.polylog(2, t), mp.polylog(3, t)
            return orderderiv._first_integral_displays(z, *kernel, mp.polylog(2, u))

        if family == "t":
            points, reference = (0.05, 0.3, 0.5, 0.77, 0.9), t_family
            slopes = [_complex_step(verify._t_displays, *_t_kernel(x)) for x in points]
        else:
            points, reference = (-0.9, -0.3, 0.0, 0.6, 0.97), z_family
            display = orderderiv._first_integral_displays
            slopes = [_complex_step(display, *_z_kernel(z)) for z in points]
        with mp.workdps(30):
            for x, got in zip(points, slopes):
                for k, slope in enumerate(got):
                    ref = mp.diff(lambda y: reference(y)[k], mp.mpf(x))
                    assert float(abs(slope - ref)) <= 1e-13 * max(1.0, abs(float(ref))), (x, k)

    def test_one_kernel_pass_per_shared_argument(self, monkeypatch):
        # one call of polylog's unchecked door per (order, argument), and none for
        # the slopes, which read Li_{s-1} off the kernel
        calls = []
        for module in (verify, orderderiv):
            monkeypatch.setattr(module, "_li", lambda s, x: calls.append((s, x)) or polylog(s, x))
        x = 0.3
        kernel = _t_kernel(x)
        assert sorted(calls) == sorted((s, y) for s in (2, 3, 4) for y in (x, 1.0 - x, x / (x - 1.0)))
        calls.clear()
        _complex_step(verify._t_displays, *kernel)
        assert calls == []
        z = 0.3
        t, u = 0.5 * (1.0 + z), 0.5 * (1.0 - z)
        kernel = _z_kernel(z)
        assert sorted(calls) == sorted([(1, t), (2, t), (3, t), (2, u)])
        calls.clear()
        _complex_step(orderderiv._first_integral_displays, *kernel)
        assert calls == []


class TestCheckResultType:
    @pytest.mark.parametrize("devs", [[1e-16, math.nan], [math.nan, 1e-16], [1e-16, math.inf]])
    @pytest.mark.parametrize("scale", [1.0, 0.0])
    def test_non_finite_deviation_fails(self, devs, scale):
        # max() drops a NaN that does not come first; the check must not pass
        result = verify._result("x", devs, scale, "oracle")
        assert not result.passed
        assert not math.isfinite(result.max_abs_dev)

    def test_non_finite_deviation_is_strict_json(self):
        # JSON has no NaN or Infinity: a failing report writes such a deviation as null
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        results = tuple(
            verify._result(name, devs, 1.0, "oracle")
            for name, devs in (("nan", [math.nan]), ("inf", [1e-16, math.inf]), ("ok", [1e-16]))
        )
        report = verify.CheckReport(results=results, all_passed=False)
        rows = json.loads(report.to_json(), parse_constant=reject)["results"]
        assert [(r["max_abs_dev"], r["max_rel_dev"]) for r in rows] == [
            (None, None), (None, None), (1e-16, 1e-16)
        ]

    def test_empty_report(self):
        report = verify.CheckReport(results=(), all_passed=True)
        assert report.to_text() == "all required checks passed"
        assert json.loads(report.to_json()) == {"all_passed": True, "config": {}, "results": []}

    def test_fields(self):
        r = CheckResult(
            id="demo", sample_count=3, max_abs_dev=1e-9, max_rel_dev=1e-10,
            tolerance=1e-8, passed=True, note="", required=True,
        )
        assert r.passed and r.required
