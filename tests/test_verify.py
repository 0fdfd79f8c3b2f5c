"""Harness behaviour: determinism, required/informational split, overrides."""

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
    run_suite,
    trigamma,
    trigamma_sum,
    trigamma_sum_target,
)
from legderiv import oracle, orderderiv, polylog, verify
from legderiv.verify import _derivative, resolve_tolerances

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
        assert report.config["seed"] == 20140412
        assert report.config["sum_terms"] == 10000
        assert "fd_n4" in report.config["tolerances"]

    def test_json_shape_and_key_order(self, report):
        doc = json.loads(report.to_json())
        assert list(doc) == ["all_passed", "config", "results"]
        keys = [list(entry) for entry in doc["results"]]
        assert all(
            k == ["id", "required", "passed", "sample_count", "max_abs_dev",
                  "max_rel_dev", "tolerance", "note"]
            for k in keys
        )

    @pytest.mark.parametrize("seed", [verify.DEFAULT_SEED, 6007])
    def test_fused_polylog_keeps_report_bits(self, monkeypatch, seed):
        # frak_I, the closed forms, first_integral(3, .) and the antiderivative
        # displays take (Li_2, Li_3, Li_4) from one fused pass; with one
        # polylog call per order instead, the report keeps every byte.
        fused = run_suite(seed=seed).to_json()
        for module in (orderderiv, verify):
            monkeypatch.setattr(module, "_li234", lambda x: tuple(polylog(s, x) for s in (2, 3, 4)))
        assert run_suite(seed=seed).to_json() == fused

    def test_tightened_fd_tolerance_flags_floor(self):
        tight = run_suite(tol_overrides={"fd": 1e-12})
        assert not tight.all_passed
        failures = [r for r in tight.results if r.required and not r.passed]
        assert failures
        # every failure is the finite-difference floor, not a wrong formula
        for r in failures:
            assert "tolerance-bound" in r.note
            assert r.max_abs_dev <= resolve_tolerances(None)[_default_key(r.id)]

    def test_unknown_override_rejected(self):
        # only the two groups the CLI sets are overridable; single keys are not
        for key in ("bogus", "ode", "quadrature", "sum", "fd_n1", "normalization"):
            with pytest.raises(DomainError):
                run_suite(tol_overrides={key: 1e-3})
        # so is any value that is not a positive finite number
        for value in (None, "abc", [1e-3], float("nan"), math.inf, 0.0, -1e-3, True):
            with pytest.raises(DomainError):
                run_suite(tol_overrides={"fd": value})

    def test_override_groups(self):
        defaults = resolve_tolerances(None)
        tols = resolve_tolerances({"fd": 0.5, "identities": 0.25})
        assert set(tols) == set(defaults) and len(tols) == 18
        fd_group = {"fd_n1", "fd_n2", "fd_n3", "fd_n4", "closed_form", "first_integral",
                    "antiderivative"}
        for key, value in tols.items():
            if key in fd_group:
                assert value == 0.5
            elif key == "identities":
                assert value == 0.25
            else:
                assert value == defaults[key]

    def test_terms_validation(self):
        for terms in (1500.0, True, 999, 10**8 + 1):
            with pytest.raises(DomainError):
                run_suite(terms=terms)
        doc = json.loads(run_suite(terms=np.int64(1000)).to_json())
        assert doc["config"]["sum_terms"] == 1000 and doc["all_passed"]


def _default_key(check_id: str) -> str:
    if check_id.startswith("closed-form-fd-n"):
        return "fd_" + check_id[-2:]
    if check_id.startswith("first-integral"):
        return "first_integral"
    return "antiderivative"


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
        closed_form = verify._closed_form
        monkeypatch.setattr(verify, "_closed_form", lambda n, z: closed_form(n, z) * (1 + 1e-11))
        rows = {r.id: r for r in check_closed_forms()}
        assert not rows["nu-tables-vs-closed-form"].passed

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_recurrence_rows(self, n):
        result = check_quadrature_recurrence(n)
        assert result.passed
        assert result.tolerance == 1e-9
        assert result.max_abs_dev <= 1e-9

    def test_recurrence_catches_a_p3_slip(self, monkeypatch):
        # a 1e-8 sin(7z) slip in the P3 that ode_residual differentiates and
        # integrates scores 7.0e-8 against the 1e-9 gate
        def slipped(n, z):
            return p_deriv(n, z) + (1e-8 * math.sin(7.0 * z) if n == 3 else 0.0)

        monkeypatch.setattr(oracle, "p_deriv", slipped)
        result = check_quadrature_recurrence(3)
        assert not result.passed and result.max_abs_dev > 1e-8

    def test_recurrence_rejects_bad_order(self):
        for n in (5, 0, True, 2.0):
            with pytest.raises(DomainError):
                check_quadrature_recurrence(n)
        assert check_quadrature_recurrence(np.int64(2)) == check_quadrature_recurrence(2)

    def test_identities_tiny_residuals(self):
        for result in check_identities():
            assert result.passed
            assert result.max_abs_dev <= 1e-12
            assert result.sample_count == 100

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
        assert rows["antiderivative-li2-squared"].max_abs_dev <= 1e-7

    def test_li4_antiderivative_slope_at_half(self):
        # at t = 1/2 the Landen argument is exactly -1, so the derivative of
        # the antiderivative must equal Li_4(-1) = -7 pi^4/720
        from legderiv import polylog
        from legderiv.verify import _anti_li4_landen, _derivative

        slope = _derivative(_anti_li4_landen, 0.5)
        assert slope == pytest.approx(-7.0 * math.pi**4 / 720.0, abs=1e-7)
        assert slope == pytest.approx(polylog(4, -1.0), abs=1e-7)

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
        rows = {r.id: r for r in check_appendix_b(2000)}
        assert all(r.passed for r in rows.values())
        gap_note = rows["trigamma-sum-naive-gap"].note
        assert "misses by" in gap_note

    def test_frak_limits_gate_on_frak_I(self, monkeypatch):
        # the endpoint check measures frak_I and the quadrature of its
        # integrand against the limits, not the limits against literals
        monkeypatch.setattr(verify, "frak_I", lambda t: frak_I(t) + 1e-9)
        rows = {r.id: r for r in check_appendix_b(2000)}
        assert not rows["frak-limit-endpoints"].passed

    def test_appendix_b_tail_correction_stability(self):
        # doubling the partial-sum length moves the corrected value < 1e-10
        one = trigamma_sum(4000)
        two = trigamma_sum(8000)
        assert abs(one - two) <= 1e-10

    def test_appendix_b_domain(self):
        for terms in (100, 2000.0, True):
            with pytest.raises(DomainError):
                check_appendix_b(terms)


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
        main = shifted = h3 = h4 = h5 = 0.0
        for k, tk in _trigammas(terms):
            k2 = float(k) * float(k)
            main += tk / k2
            shifted += (tk - 1.0 / k2) / k2
            h3 += 1.0 / (k2 * k)
            h4 += 1.0 / (k2 * k2)
            h5 += 1.0 / (k2 * k2 * k)
        tail4 = verify.zeta_const(4) - h4
        tail = (verify.zeta_const(3) - h3) + 0.5 * tail4 + (verify.zeta_const(5) - h5) / 6.0
        expected = (main, shifted, tail, tail4)
        assert [v.hex() for v in verify._partial_sums(terms)] == [v.hex() for v in expected]

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


class TestDerivative:
    @pytest.mark.parametrize("x", [0.3, 2.5])
    def test_exact_on_quartics(self, x):
        # the five-point stencil differentiates degree-4 polynomials exactly
        def quartic(t):
            return 3.0 * t**4 - 2.0 * t**3 + t**2 - 5.0 * t + 7.0

        exact = 12.0 * x**3 - 6.0 * x**2 + 2.0 * x - 5.0
        assert _derivative(quartic, x) == pytest.approx(exact, rel=1e-8)


class TestCheckResultType:
    @pytest.mark.parametrize("devs", [[1e-16, math.nan], [math.nan, 1e-16], [1e-16, math.inf]])
    @pytest.mark.parametrize("scale", [1.0, 0.0])
    def test_non_finite_deviation_fails(self, devs, scale):
        # max() drops a NaN that does not come first; the check must not pass
        result = verify._result("x", devs, scale, verify._DEFAULT_TOLS, "fd_n1")
        assert not result.passed
        assert not math.isfinite(result.max_abs_dev)

    def test_non_finite_deviation_is_strict_json(self):
        # JSON has no NaN or Infinity: a failing report writes such a deviation as null
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        results = tuple(
            verify._result(name, devs, 1.0, verify._DEFAULT_TOLS, "fd_n1")
            for name, devs in (("nan", [math.nan]), ("inf", [1e-16, math.inf]), ("ok", [1e-16]))
        )
        report = verify.CheckReport(results=results, all_passed=False)
        rows = json.loads(report.to_json(), parse_constant=reject)["results"]
        assert [(r["max_abs_dev"], r["max_rel_dev"]) for r in rows] == [
            (None, None), (None, None), (1e-16, 1e-16)
        ]

    def test_fields(self):
        r = CheckResult(
            id="demo", sample_count=3, max_abs_dev=1e-9, max_rel_dev=1e-10,
            tolerance=1e-8, passed=True, note="", required=True,
        )
        assert r.passed and r.required
