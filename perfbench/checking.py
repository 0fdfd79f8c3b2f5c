"""Correctness of every workload output, against references computed
outside the timed loop.

Two verdicts are kept per output:

* the *gate* decides ``correct`` and ``failed`` in the benchmark result.
  An op fails the gate when it raised, returned a non-finite or
  non-repeatable value, or missed the accuracy the repository pins in
  its acceptance tests: |Pn - ref| <= 1e-7, 1e-7, 1e-5, 1e-3 for
  n = 1..4 (acceptance criterion 2) and P0 == 1; ``verify`` ops fail when
  ``all_passed`` is false or the same suite seed gives different JSON
  (criterion 9); ``trigamma-sum`` ops when the sum misses 7 pi^4/360 by
  more than 1e-9 (criterion 4).
* the *target* is the relative accuracy ROADMAP item 3 asks for: an op
  misses it when any value it returned has relative error above 1e-12.
  ``fail_frac`` and ``accuracy_digits`` report it on every run; the seed
  misses it near z = 1 on ``table`` and ``edge``.

Pn has no root inside (-1, 1), so the relative error is well defined;
at z = 1 exactly, where Pn = 0 for n >= 1, only an exact 0 is accepted.

The reference for Pn(z), n = 0..4, is the nu-Taylor expansion of
P_nu(z) = 2F1(-nu, nu+1; 1; (1-z)/2) in mpmath arithmetic, from the
defining series in u = (1-z)/2 when z >= Z_SPLIT and from the logarithmic
connection formula (DLMF 15.8.10) in t = (1+z)/2 below it.  A value is
accepted only when it agrees with a run at doubled precision.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from functools import lru_cache

GATE_ABS = {1: 1e-7, 2: 1e-7, 3: 1e-5, 4: 1e-3}
TARGET_REL = 1e-12
SUM_GATE_ABS = 1e-9
MAX_DIGITS = 16.0

Z_SPLIT = -0.35
_DPS = 20
_DEG = 5  # Taylor coefficients nu^0 .. nu^4


class ReferenceNotSettled(RuntimeError):
    """The high-precision reference did not settle at doubled precision."""


# --- reference values --------------------------------------------------------


def _mul(a, b):
    return [sum(a[i] * b[j - i] for i in range(j + 1)) for j in range(_DEG)]


class _Coefficients:
    """z-independent series coefficients at one working precision, grown on demand.

    ``c[k]`` holds c_k(nu) = (-nu)_k (1+nu)_k / (k!)^2 and ``cb[k]`` holds
    c_k(nu) [2 psi(k+1) - psi(k-nu) - psi(k+1+nu)], each as its Taylor
    coefficients nu^0..nu^4.
    """

    _FACT = (1, 1, 2, 6, 24)

    def __init__(self, mp) -> None:
        self.mp = mp
        self.c = [[mp.mpf(1)] + [mp.mpf(0)] * (_DEG - 1)]
        self.cb = [None]
        # psi^(m)(1) for m = 0..4
        self.psi = [-mp.euler, mp.zeta(2), -2 * mp.zeta(3), 6 * mp.zeta(4), -24 * mp.zeta(5)]
        self.psi1 = list(self.psi)

    def grow(self) -> None:
        k = len(self.c) - 1
        prev = self.c[k]
        # c_{k+1} = c_k (k(k+1) - nu - nu^2) / (k+1)^2
        a, d = k * (k + 1), (k + 1) * (k + 1)
        c = [(a * prev[i] - (prev[i - 1] if i else 0) - (prev[i - 2] if i > 1 else 0)) / d
             for i in range(_DEG)]
        k += 1
        psi_k = self.psi
        psi_k1 = [psi_k[m] + (-1) ** m * self._FACT[m] / self.mp.mpf(k) ** (m + 1) for m in range(_DEG)]
        bracket = [psi_k1[0] - psi_k[0]]
        bracket += [-((-1) ** m * psi_k[m] + psi_k1[m]) / self._FACT[m] for m in range(1, _DEG)]
        self.psi = psi_k1
        self.c.append(c)
        self.cb.append(_mul(c, bracket))

    def sum(self, x, tables) -> list:
        """sum_{k>=1} table[k] x^k for each table, to the working precision."""
        tiny = self.mp.eps * 2**-10
        totals = [[self.mp.mpf(0)] * _DEG for _ in tables]
        power = self.mp.mpf(1)
        k = 0
        while True:
            k += 1
            if k == len(self.c):
                self.grow()
            power *= x
            biggest = 0
            for total, table in zip(totals, tables):
                row = table[k]
                for i in range(_DEG):
                    term = row[i] * power
                    total[i] += term
                    biggest = max(biggest, abs(term))
            scale = max(abs(v) for total in totals for v in total[1:])
            if biggest <= tiny * scale and k > 2:
                return totals


@lru_cache(maxsize=None)
def _coefficients(dps: int) -> _Coefficients:
    import mpmath as mp

    with mp.workdps(dps):
        return _Coefficients(mp)


def _pn_at(z: float, dps: int) -> list:
    coeffs = _coefficients(dps)
    mp = coeffs.mp
    with mp.workdps(dps):
        zz = mp.mpf(z)
        if z >= Z_SPLIT:
            # P_nu = sum_k c_k(nu) u^k, u = (1-z)/2
            (series,) = coeffs.sum((1 - zz) / 2, [coeffs.c])
            series[0] += 1
        else:
            # DLMF 15.8.10, t = (1+z)/2:
            # P_nu = -(sin(pi nu)/pi) sum_k c_k(nu) [2 psi(k+1) - psi(k-nu) - psi(k+1+nu) - ln t] t^k.
            # The k = 0 bracket, 2 psi(1) - psi(1-nu) - psi(1+nu) - ln t - 1/nu, carries
            # psi(-nu) = psi(1-nu) + 1/nu; the sine cancels its pole into sinc(nu).
            t = (1 + zz) / 2
            lt = mp.log(t)
            cb, c = coeffs.sum(t, [coeffs.cb, coeffs.c])
            psi1 = coeffs.psi1
            bracket0 = [-lt] + [-((-1) ** m + 1) * psi1[m] / _Coefficients._FACT[m] for m in range(1, _DEG)]
            pi2 = mp.pi**2
            sinc = [mp.mpf(1), 0, -pi2 / 6, 0, pi2 * pi2 / 120]  # sin(pi nu) / (pi nu)
            sine = [0] + sinc[:-1]  # sin(pi nu) / pi
            rest = _mul(sine, [bracket0[i] + cb[i] - lt * c[i] for i in range(_DEG)])
            series = [sinc[i] - rest[i] for i in range(_DEG)]
        return [series[n] * math.factorial(n) for n in range(_DEG)]


@lru_cache(maxsize=None)
def pn_reference(z: float) -> tuple:
    """(P0, ..., P4) at the double z, as mpf values settled at doubled precision."""
    import mpmath as mp

    dps = _DPS
    for _ in range(4):
        low = _pn_at(z, dps)
        high = _pn_at(z, 2 * dps)
        with mp.workdps(2 * dps):
            settled = all(
                abs(a - b) <= mp.mpf(10) ** (2 - dps) * abs(b) for a, b in zip(low, high)
            )
        if settled:
            return tuple(high)
        dps *= 2
    raise ReferenceNotSettled(f"reference for Pn({z!r}) did not settle up to {dps} digits")


@lru_cache(maxsize=None)
def sum_reference():
    import mpmath as mp

    with mp.workdps(40):
        return 7 * mp.pi**4 / 360


# --- error measures ------------------------------------------------------------


def rel_error(value: float, ref) -> float:
    """|value - ref| / |ref|; at ref = 0 only an exact 0 counts as exact."""
    if not math.isfinite(value):
        return math.inf
    if ref == 0:
        return 0.0 if value == 0.0 else math.inf
    return float(abs(value - ref) / abs(ref))


def digits(rel: float) -> float:
    """min(16, -log10 rel), floored at 0."""
    if rel == 0.0:
        return MAX_DIGITS
    if not math.isfinite(rel):
        return 0.0
    return max(0.0, min(MAX_DIGITS, -math.log10(rel)))


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking one output (a table, a value, a report)."""

    gate_ok: bool
    target_ok: bool
    digits: float
    note: str = ""


def check_value(n: int, z: float, value: float) -> Verdict:
    """One Pn(z) output against the reference."""
    if n == 0:
        ok = value == 1.0
        return Verdict(ok, ok, MAX_DIGITS if ok else 0.0, "" if ok else f"P0({z!r}) = {value!r}")
    ref = pn_reference(z)[n]
    rel = rel_error(value, ref)
    gate_ok = math.isfinite(value) and float(abs(value - ref)) <= GATE_ABS[n]
    target_ok = rel <= TARGET_REL
    note = "" if target_ok else f"P{n}({z!r}) rel. err. {rel:.3g}"
    return Verdict(gate_ok, target_ok, digits(rel), note)


def combine(verdicts) -> Verdict:
    verdicts = list(verdicts)
    notes = [v.note for v in verdicts if v.note]
    return Verdict(
        all(v.gate_ok for v in verdicts),
        all(v.target_ok for v in verdicts),
        min((v.digits for v in verdicts), default=MAX_DIGITS),
        notes[0] if notes else "",
    )


def check_table(text: str, z_start: float, z_end: float, rows: int, orders) -> Verdict:
    """A rendered CSV table: its shape, its z column, and every value."""
    records = list(csv.reader(io.StringIO(text)))
    header = ["z"] + [f"P{n}" for n in orders]
    body = records[1:]
    zs = [float(r[0]) for r in body] if all(len(r) == len(header) for r in body) else []
    if records[:1] != [header] or len(zs) != rows:
        return Verdict(False, False, 0.0, "table shape differs from the request")
    if zs[0] != z_start or zs[-1] != z_end or any(b <= a for a, b in zip(zs, zs[1:])):
        return Verdict(False, False, 0.0, "z column is not the requested increasing grid")
    return combine(
        check_value(n, z, float(cell))
        for row, z in zip(body, zs)
        for n, cell in zip(orders, row[1:])
    )


def check_report(text: str) -> Verdict:
    """A ``run_suite(...).to_json()`` report.

    The gate is ``all_passed``; the digits come from ``max_rel_dev`` of the
    four ``closed-form-fd-n*`` checks, i.e. how tightly the oracle pins the
    closed forms.
    """
    doc = json.loads(text)
    fd = [r["max_rel_dev"] for r in doc["results"] if r["id"].startswith("closed-form-fd-n")]
    passed = doc["all_passed"] is True
    acc = min((digits(rel) for rel in fd), default=0.0)
    return Verdict(passed, passed, acc, "" if passed else "all_passed is false")


def check_sum(value: float) -> Verdict:
    """A ``trigamma_sum`` output against 7 pi^4/360."""
    ref = sum_reference()
    ok = math.isfinite(value) and float(abs(value - ref)) <= SUM_GATE_ABS
    return Verdict(ok, ok, digits(rel_error(value, ref)), "" if ok else f"sum {value!r}")
