"""Verification harness: every identity, antiderivative, endpoint value and
series value the closed forms rest on, checked against an independent route.

Checks come in two strengths.  *Required* checks gate ``all_passed``:
closed forms vs. the exact nu-Taylor oracle and vs. p_derivs' tables, the
differential recurrence, the di/trilogarithm identities, the first two
first-integrals, two of the three long antiderivative displays, the
inner-integral cancellation, the endpoint limits and the trigamma sums.  *Informational*
checks are report-only measurements of displays treated as hypotheses:
the third first-integral (ambiguous polylogarithm order, constant
derivative defect), the Li_2(t)^2 antiderivative, the sign variant of the
frak_I display, and the bracket constant of the fourth derivative.
Nothing is silently corrected; defects are measured and reported.

Each result gates on one fixed tolerance of ``_TOLS``; the report prints
each row's deviation beside its gate and echoes the table in its config.

Reports are deterministic for a fixed config: sample points come from a
seeded generator and serialization uses a fixed key order.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .exceptions import DomainError
from .oracle import _ode_residuals, order_derivatives
from .orderderiv import _first_integral_displays, _first_integral_kernel, _frak_I, _frak_kernel
from .orderderiv import _PI4, _closed_forms, _identity_residuals, _row
from .orderderiv import frak_I, frak_I_limit, inner_integral_I, p_deriv
from .polylog import _li, _zeta_tail, as_order, trigamma, zeta_const
from .quadrature import EndpointFlag, integrate

__all__ = [
    "CheckResult",
    "CheckReport",
    "check_closed_forms",
    "check_quadrature_recurrence",
    "check_identities",
    "check_appendix_a",
    "check_appendix_b",
    "run_suite",
]

DEFAULT_SEED = 20140412
# The trigamma walk length K: the accelerated sum's tail past the 1/(6k^5) layer is
# under 1/(180 K^6), 5.6e-21 at K = 1000, so a longer walk moves no deviation.
_SUM_TERMS = 1000

_FD_GRID = (-0.5, 0.0, 0.5, 0.9, 0.99)
_TABLE_GRID = (-0.99,) + tuple(k / 10.0 for k in range(-9, 10))
_ODE_GRID = (-0.5, 0.0, 0.25, 0.5, 0.9)
_CANCELLATION_GRID = (-0.9, -0.7, -0.5, -0.3, -0.1, 0.1, 0.3, 0.5, 0.7, 0.9)

_TOLS: dict[str, float] = {
    "normalization": 1e-12,
    "fd_n1": 1e-12,
    "fd_n2": 1e-12,
    "fd_n3": 1e-12,
    "fd_n4": 1e-12,
    "closed_form": 1e-12,
    "ode_n1": 1e-11,
    "ode_n2": 1e-11,
    "ode_n3": 1e-11,
    "ode_n4": 1e-11,
    "identities": 1e-12,
    "first_integral": 1e-12,
    "antiderivative": 1e-11,
    "inner_integral_quad": 1e-8,
    "frak_quad": 1e-7,
    "frak_limits": 1e-12,
    "sum": 1e-9,
    "p4_composition": 1e-10,
}


@dataclass(frozen=True)
class CheckResult:
    """One verified claim: worst deviation over its sample set vs. tolerance."""

    id: str
    sample_count: int
    max_abs_dev: float
    max_rel_dev: float
    tolerance: float
    passed: bool
    note: str = ""
    required: bool = True


@dataclass(frozen=True)
class CheckReport:
    """Ordered collection of check results plus the config that produced them."""

    results: tuple[CheckResult, ...]
    all_passed: bool
    config: dict = field(default_factory=dict)

    def to_json(self) -> str:
        doc = {
            "all_passed": self.all_passed,
            "config": self.config,
            "results": [
                {
                    "id": r.id,
                    "required": r.required,
                    "passed": r.passed,
                    "sample_count": r.sample_count,
                    # JSON has no NaN or Infinity: a non-finite deviation is null
                    "max_abs_dev": r.max_abs_dev if math.isfinite(r.max_abs_dev) else None,
                    "max_rel_dev": r.max_rel_dev if math.isfinite(r.max_rel_dev) else None,
                    "tolerance": r.tolerance,
                    "note": r.note,
                }
                for r in self.results
            ],
        }
        return json.dumps(doc, indent=2, allow_nan=False)

    def to_text(self) -> str:
        lines = []
        width = max((len(r.id) for r in self.results), default=0)
        for r in self.results:
            status = "PASS" if r.passed else ("FAIL" if r.required else "info")
            lines.append(
                f"{status:<4} {r.id:<{width}}  max_abs={r.max_abs_dev:.3e}  "
                f"tol={r.tolerance:.1e}  n={r.sample_count}"
                + (f"  [{r.note}]" if r.note else "")
            )
        lines.append("all required checks passed" if self.all_passed else "REQUIRED CHECK FAILED")
        return "\n".join(lines)


def _result(
    check_id: str,
    deviations: Iterable[float],
    scale: float,
    key: str,
    note: str = "",
    required: bool = True,
    sample_count: int | None = None,
) -> CheckResult:
    devs = list(deviations)
    # max() keeps a NaN only when it comes first; a NaN deviation fails the check.
    max_abs = math.nan if any(map(math.isnan, devs)) else max(devs, default=0.0)
    max_rel = max_abs / scale if scale > 0.0 else max_abs
    tol = _TOLS[key]
    return CheckResult(
        id=check_id,
        sample_count=sample_count if sample_count is not None else len(devs),
        max_abs_dev=max_abs,
        max_rel_dev=max_rel,
        tolerance=tol,
        passed=max_abs <= tol or max_rel <= tol,
        note=note,
        required=required,
    )


# --- closed forms vs. the nu-derivative oracle ----------------------------


def check_closed_forms() -> list[CheckResult]:
    """Compare the closed forms against the nu-Taylor oracle and p_derivs'
    tables on fixed grids, and pin the normalization values at z = 1."""
    results = []

    norm_devs = [abs(p_deriv(0, 1.0) - 1.0)] + [abs(p_deriv(n, 1.0)) for n in range(1, 5)]
    results.append(_result("closed-form-normalization", norm_devs, 1.0, "normalization"))

    # One closed-form row per distinct z of the two grids, which hold every z below.
    closed = {z: _closed_forms(z) for z in dict.fromkeys(_FD_GRID + _TABLE_GRID)}
    oracle = [order_derivatives(z) for z in _FD_GRID]
    for n in range(1, 5):
        devs = [abs(closed[z][n - 1] - values[n]) for z, values in zip(_FD_GRID, oracle)]
        scale = max(abs(values[n]) for values in oracle)
        results.append(_result(f"closed-form-fd-n{n}", devs, scale, f"fd_n{n}"))

    # Pointwise relative, so that the check is as tight near z = +-1 as at 0;
    # p_derivs' unchecked door _row is p_deriv bit for bit, and is what render_table runs.
    devs = []
    for z in _TABLE_GRID:
        devs += [abs(form / value - 1.0) for form, value in zip(closed[z], _row(z)[1:])]
    note = (
        "the P4 display loses 3-4 digits to cancellation for z >= 0.9 "
        "(sum|terms|/|P4| ~ 8.7e4 at z = 0.9); "
        "there the tables agree with mpmath to 3.7e-18 relative"
    )
    results.append(_result("nu-tables-vs-closed-form", devs, 1.0, "closed_form", note=note))

    # The pre-gathered fourth-derivative form: the same value composed
    # through the antiderivative frak_I instead of the gathered bracket.
    # Agreement here exercises the identity-gathering step end to end; one
    # frak_I kernel per z serves the composition and frak_I alike.
    devs = []
    for z in (-0.9, -0.5, 0.0, 0.5, 0.9):
        kernel = _frak_kernel(0.5 * (1.0 + z))
        _, _, lu, li2t, li3t, _, li2u, *_ = kernel
        composed = _PI4 / 15.0 + 24.0 * (
            li2t**2 + 2.0 * lu * (li3t - zeta_const(3)) + zeta_const(2) * li2u + _frak_I(*kernel[1:])
        )
        devs.append(abs(composed - closed[z][3]))
    results.append(
        _result(
            "p4-via-frak-I",
            devs,
            1.0,
            "p4_composition",
            note="pre-gathered composition through frak_I matches the gathered bracket",
        )
    )
    return results


def check_quadrature_recurrence() -> list[CheckResult]:
    """Residuals of the recurrence integrated twice (``ode_residuals``) on the grid, n = 1..4."""
    rows = zip(*_ode_residuals(_ODE_GRID))
    return [_result(f"ode-recurrence-n{n}", dev, 1.0, f"ode_n{n}") for n, dev in enumerate(rows, 1)]


# --- section-2 polylogarithm identities ------------------------------------


def check_identities(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Residuals of the dilog reflection, dilog Landen and trilog identities."""
    rng = random.Random(as_order(seed, -math.inf, math.inf, "seed"))
    xs = [rng.uniform(0.01, 0.99) for _ in range(100)]
    names = ("identity-dilog-reflection", "identity-dilog-landen", "identity-trilog-landen")
    columns = zip(*map(_identity_residuals, xs))
    return [_result(name, map(abs, col), 1.0, "identities") for name, col in zip(names, columns)]


# --- antiderivative displays (treated as hypotheses) -----------------------


# The complex step: a kernel value v with slope d enters a display as v + i H d,
# and each row's slope is its imaginary part over H.  The displays take only +, -
# and *, so the imaginary parts carry the slopes as dual numbers would, with the H^2
# terms far below half an ulp of the real parts (Squire & Trapp, SIAM Rev. 40, 1998;
# Martins, Sturdza & Alonso, ACM TOMS 29, 2003).
_H = 2.0**-60


def _complex_step(display: Callable, values: Sequence[float], slopes: Sequence[float]) -> list[float]:
    return [row.imag / _H for row in display(*map(complex, values, map(_H.__mul__, slopes)))]


def _t_displays(x: complex, lx: complex, lu: complex, *k: complex) -> tuple[complex, ...]:
    # The Li_4 Landen, Li_2(t)^2 and log-squares antiderivatives and the frak_I
    # variant (+2 ln(t) Li_3(t)), one per row, over x, ln x, ln(1 - x) and
    # (Li_2, Li_3, Li_4) at x, 1 - x and x/(x - 1); only +, - and *, as _frak_I.
    li2x, li3x, li4x, li2u, li3u, li4u, li2w, li3w, li4w = k
    lu2, lx2 = lu * lu, lx * lx
    li4_landen = -0.5 * li2w * li2w + x * li4w + lu * li3w
    li2_squared = (
        -2.0
        + 6.0 * x
        + 6.0 * (1.0 - x - math.pi**2 / 9.0) * lu
        - 2.0 * (1.0 - x - lx) * lu2
        - 2.0 * (x - (1.0 + x) * lu) * li2x
        + x * li2x * li2x
        + 4.0 * li3u
    )
    log_squares = (
        -4.0
        + 24.0 * x
        + 12.0 * (1.0 - x) * lu
        - 2.0 * (1.0 - x) * lu2
        - 0.5 * lu2 * lu2
        - 12.0 * x * lx
        - 4.0 * (1.0 - 2.0 * x) * lu * lx
        - 2.0 * x * lu2 * lx
        + 2.0 * lu2 * lu * lx
        + (2.0 - lu2) * lx2
        - (1.0 - x) * (2.0 - 2.0 * lu + lu2) * lx2
        + (4.0 - 4.0 * lu + 2.0 * lu2) * li2u
        - (4.0 - 4.0 * lx + 2.0 * lx2) * li2x
        - (2.0 * lu2 - 4.0 * lu * lx + 2.0 * lx2) * li2w
        - 4.0 * (1.0 - lx) * li3x
        + 4.0 * (1.0 - lu) * li3u
        + 4.0 * (lx - lu) * li3w
        + 4.0 * li4u
        - 4.0 * li4x
        - 4.0 * li4w
    )
    return li4_landen, li2_squared, log_squares, _frak_I(lx, lu, *k) + 4.0 * lx * li3x


def _t_kernel(x: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    # _t_displays' arguments at x, frak_I's kernel, and their slopes: d Li_s(y) =
    # Li_{s-1}(y) d ln y, where Li_1 is -ln(1 - x), -ln x and ln(1 - x) at x, 1 - x, x/(x - 1).
    values = _frak_kernel(x)
    _, lx, lu, li2x, li3x, _, li2u, li3u, _, li2w, li3w, _ = values
    dx, du = 1.0 / x, -1.0 / (1.0 - x)
    dw = dx - du
    slopes = (1.0, dx, du, -lu * dx, li2x * dx, li3x * dx, -lx * du, li2u * du, li3u * du)
    return values, (*slopes, lu * dw, li2w * dw, li3w * dw)


def _z_kernel(z: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    # _first_integral_displays' arguments at z in (-1, 1) and their slopes: d ln t =
    # 1/(1 + z), d ln u = -1/(1 - z), Li_1(t) = -ln u and Li_1(u) = -ln t.
    lt, _, li1t, li2t, _, li2u = kernel = _first_integral_kernel(z)
    dt, du = 1.0 / (1.0 + z), -1.0 / (1.0 - z)
    return (z, *kernel), (1.0, dt, du, -du, li1t * dt, li2t * dt, -lt * du)


def _frak_integrand(t: float) -> float:
    # ln(t) Li_2(t) / (1 - t), whose antiderivative is frak_I
    return math.log(t) * _li(2, t) / (1.0 - t)


def check_appendix_a(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Differentiate-and-compare checks for the first integrals and the three long
    antiderivative displays, plus the inner-integral cancellation.  Each display is
    written once, in a family of formulas over kernel values:
    ``orderderiv._first_integral_displays`` or ``_t_displays``.  One complex-step
    evaluation of a family per point gives its rows' slopes."""
    rng = random.Random(as_order(seed, -math.inf, math.inf, "seed"))
    zs = [rng.uniform(-0.9, 0.97) for _ in range(50)]
    ts = [rng.uniform(0.05, 0.95) for _ in range(50)]
    results = []

    # Against P1, P2, P3, P3, P3 from p_derivs' unchecked door, p_deriv bit for bit.
    z_slopes = [_complex_step(_first_integral_displays, *_z_kernel(z)) for z in zs]
    z_targets = [_row(z) for z in zs]
    for eta in (1, 2):
        devs = [abs(s[eta - 1] - p[eta]) for s, p in zip(z_slopes, z_targets)]
        results.append(_result(f"first-integral-{eta}", devs, 1.0, "first_integral"))

    # The eta = 3 display: try each candidate order for its ambiguous
    # polylogarithm and report the measured derivative defect (report-only).
    for order in (1, 2, 3):
        offsets = [s[order + 1] - p[3] for s, p in zip(z_slopes, z_targets)]
        devs = [abs(v) for v in offsets]
        spread = max(offsets) - min(offsets)
        if order == 2:
            note = (
                f"selected resolution Li_2: derivative exceeds P3 by the constant "
                f"{sum(offsets) / len(offsets):.9f} = 24*zeta(3) (spread {spread:.2e}); "
                "consistent with a sign defect on the display's 2*zeta(3) term"
            )
        else:
            note = f"order Li_{order}: z-dependent mismatch (spread {spread:.2e})"
        row = f"first-integral-3-li{order}"
        results.append(_result(row, devs, 1.0, "first_integral", note=note, required=False))

    # Each row's target from the kernel of its point: Li_4(x/(x - 1)), Li_2(x)^2,
    # (ln x ln(1 - x))^2 and the frak_I integrand ln(x) Li_2(x)/(1 - x).
    t_rows = []
    for x in ts:
        values, slopes = _t_kernel(x)
        _, lx, lu, li2x, *_, li4w = values
        targets = li4w, li2x**2, (lx * lu) ** 2, lx * li2x / (1.0 - x)
        t_rows.append((_complex_step(_t_displays, values, slopes), targets))
    for k, name in enumerate(("li4-landen", "li2-squared", "log-squares")):
        devs = [abs(slopes[k] - targets[k]) for slopes, targets in t_rows]
        row = f"antiderivative-{name}"
        results.append(_result(row, devs, 1.0, "antiderivative", required=k != 1))

    def integrand(zz: float) -> float:
        p = _row(zz)
        return p[3] + 3.0 * p[2]

    # The grid ascends: integrate the singular stretch from -1, then each gap, once.
    devs, total, lo, flags = [], 0.0, -1.0, EndpointFlag(lower_singular=True)
    for z in _CANCELLATION_GRID:
        total += integrate(integrand, lo, z, tol=1e-11, flags=flags).value
        devs.append(abs(total - inner_integral_I(z)))
        lo, flags = z, EndpointFlag()
    results.append(_result("inner-integral-cancellation", devs, 1.0, "inner_integral_quad"))

    a, b = 2.0**-20, 1.0 - 2.0**-20
    q = integrate(_frak_integrand, a, b, tol=1e-10, flags=EndpointFlag(True, True))
    devs = [abs(q.value - (frak_I(b) - frak_I(a)))]
    results.append(_result("frak-I-quadrature", devs, 1.0, "frak_quad"))

    # Report-only: the antiderivative display variant whose 2 ln(t) Li_3(t)
    # term carries a plus sign is NOT an antiderivative of the integrand;
    # its derivative defect is 4 d/dt[ln(t) Li_3(t)].  Measured, not hidden.
    devs = [abs(slopes[3] - targets[3]) for slopes, targets in t_rows]
    note = (
        "the +2 ln(t) Li3(t) sign variant fails differentiate-and-compare; "
        "the implemented minus sign passes (see frak-I-quadrature) and leaves "
        "both endpoint limits unchanged"
    )
    row = "frak-I-display-variant"
    results.append(_result(row, devs, 1.0, "antiderivative", note=note, required=False))

    # Report-only: the fourth-derivative bracket without its +pi^4/36
    # constant, measured against the oracle the same way the closed form is.
    offsets = []
    for z in (-0.5, 0.3, 0.8):
        stripped = _closed_forms(z)[3] - 24.0 * _PI4 / 36.0
        offsets.append(stripped - order_derivatives(z)[4])
    spread = max(offsets) - min(offsets)
    results.append(
        _result(
            "p4-display-constant",
            [abs(v) for v in offsets],
            1.0,
            "fd_n4",
            note=(
                f"bracket without its pi^4/36 constant misses the oracle by "
                f"{sum(offsets) / len(offsets):.9f} = -2 pi^4/3 uniformly "
                f"(spread {spread:.2e}); the evaluated form keeps the constant"
            ),
            required=False,
        )
    )
    return results


# --- trigamma series and endpoint limits -----------------------------------


def _partial_sums(terms: int) -> tuple[float, float, float, float]:
    """Partial sums of psi'(k)/k^2 and psi'(k+1)/k^2 to K = ``terms``, the
    analytic tail of the first past K, and zeta(4, K+1) = sum_{k>K} 1/k^4."""
    # psi'(k), k = K..1, by the stable backward step psi'(k+1) + 1/k^2 on a float k
    main = shifted = 0.0
    tk = trigamma(terms + 1)
    k = float(terms)
    while k > 0.0:
        k2 = k * k
        inv = 1.0 / k2
        tk += inv
        main += tk / k2
        shifted += (tk - inv) / k2
        k -= 1.0
    # sum_{k>K} psi'(k)/k^2 with psi'(k) ~ 1/k + 1/(2k^2) + 1/(6k^3) - ..., and
    # zeta(4, K+1): Hurwitz zeta(s, K+1) tails, not zeta(s) less a partial sum,
    # which cancels; the dropped -1/(30 k^7) layer contributes less than 1/(180 K^6).
    x = terms + 1.0
    tail4 = _zeta_tail(4, x)
    return main, shifted, _zeta_tail(3, x) + 0.5 * tail4 + _zeta_tail(5, x) / 6.0, tail4


def _brute_force(terms: int) -> tuple[float, float]:
    # sum_{k<=K} (psi'(k) - psi'(k+K))/k^2 and the dropped sum_{k<=K} psi'(k+K)/k^2,
    # from one walk of both backward recurrences, inline on a float k as in _partial_sums.
    naive = dropped = 0.0
    tk, tk_shifted = trigamma(terms + 1), trigamma(2 * terms + 1)
    k = shift = float(terms)
    while k > 0.0:
        k2, j = k * k, k + shift
        tk += 1.0 / k2
        tk_shifted += 1.0 / (j * j)
        naive += (tk - tk_shifted) / k2
        dropped += tk_shifted / k2
        k -= 1.0
    return naive, dropped


def trigamma_sum(terms: int, accelerate: bool = True) -> float:
    """sum_{k>=1} psi'(k)/k^2, either tail-accelerated or brute-force.

    Accelerated: partial sum to ``terms`` plus the analytic tail through the
    1/(6k^5) layer of the trigamma expansion (error < 1/(180 K^6) + roundoff).

    Brute force: the doubly truncated sum
    sum_{k<=K} sum_{j<K} 1/(k^2 (k+j)^2), which converges like zeta(2)/K and
    is evaluated in O(K) as sum_{k<=K} (psi'(k) - psi'(k+K))/k^2.

    ``terms`` is an integer in 1..10^8 and ``accelerate`` a bool; DomainError otherwise.
    """
    terms = as_order(terms, 1, 10**8, "terms")
    if not isinstance(accelerate, bool):
        raise DomainError(f"accelerate must be a bool, got {accelerate!r}")
    if not accelerate:
        return _brute_force(terms)[0]
    main, _, tail, _ = _partial_sums(terms)
    return main + tail


def trigamma_sum_target() -> float:
    """The closed-form value of the sum: 7 pi^4 / 360."""
    return 7.0 * _PI4 / 360.0


def check_appendix_b() -> list[CheckResult]:
    """Endpoint limits of frak_I and the trigamma sums to K = 1000, with tail acceleration.

    In exact arithmetic ``trigamma-sum-intermediate`` is the accelerated sum
    less zeta(4) (sum_{k<=K} 1/k^4 plus its tail zeta(4, K+1), in closed
    form), and the deviation of ``trigamma-sum-naive-gap`` is the accelerated
    sum's error.
    """
    results = []

    lim1 = frak_I_limit(1)
    lim0 = frak_I_limit(0)
    q = integrate(_frak_integrand, 0.0, 1.0, tol=1e-10, flags=EndpointFlag(True, True))
    devs = [abs(q.value - (lim1 - lim0)), abs(frak_I(2.0**-40) - lim0)]
    near1 = abs(frak_I(1.0 - 2.0**-20) - lim1)
    near0 = abs(frak_I(2.0**-20) - lim0)
    results.append(
        _result(
            "frak-limit-endpoints",
            devs,
            abs(lim0),
            "frak_limits",
            note=(
                f"difference lim1-lim0 = -pi^4/120; observed approach: "
                f"|frak_I(1-2^-20)-lim| = {near1:.2e}, |frak_I(2^-20)-lim| = {near0:.2e}"
            ),
        )
    )

    main, shifted, tail, tail4 = _partial_sums(_SUM_TERMS)
    sums = (
        ("trigamma-sum-accelerated", main + tail, trigamma_sum_target()),
        ("trigamma-sum-intermediate", shifted + tail - tail4, _PI4 / 120.0),
    )
    for name, value, target in sums:
        devs = [abs(value - target)]
        results.append(_result(name, devs, target, "sum", sample_count=_SUM_TERMS))

    # Brute-force slow convergence, measured against its predicted gap.
    naive, dropped = _brute_force(_SUM_TERMS)
    gap = trigamma_sum_target() - naive
    predicted_gap = dropped + tail
    results.append(
        _result(
            "trigamma-sum-naive-gap",
            [abs(gap - predicted_gap)],
            abs(predicted_gap),
            "sum",
            note=f"K={_SUM_TERMS} brute-force double sum misses by {gap:.6e} (slow 1/K convergence)",
            sample_count=_SUM_TERMS,
        )
    )
    return results


# --- the suite --------------------------------------------------------------


def run_suite(seed: int = DEFAULT_SEED) -> CheckReport:
    """Run every check in a fixed order and assemble the deterministic report.

    ``seed`` draws the identity and appendix-A samples; a seed that is not an
    integer (bool included) raises DomainError.  The gates and the sample sizes
    are fixed, and the report's config echoes the gates.
    """
    seed = as_order(seed, -math.inf, math.inf, "seed")
    results: list[CheckResult] = []
    results.extend(check_closed_forms())
    results.extend(check_quadrature_recurrence())
    results.extend(check_identities(seed))
    results.extend(check_appendix_a(seed))
    results.extend(check_appendix_b())
    all_passed = all(r.passed for r in results if r.required)
    config = {"seed": seed, "tolerances": dict(sorted(_TOLS.items()))}
    return CheckReport(results=tuple(results), all_passed=all_passed, config=config)
