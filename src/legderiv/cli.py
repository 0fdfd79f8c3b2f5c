"""Command-line front end: evaluate order-derivatives, emit tables, run the
verification suite, and sum the trigamma series.

Every command is deterministic for fixed arguments.  Values go to stdout,
diagnostics to stderr; exit code 2 flags usage/domain errors and exit
code 1 a failed required verification check.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable
from dataclasses import dataclass

import click

from . import __version__
from .exceptions import ConvergenceError, DomainError
from .orderderiv import _ABOVE_M1, _row, p_deriv
from .polylog import as_order, as_real
from .verify import run_suite, trigamma_sum, trigamma_sum_target, DEFAULT_SEED

__all__ = ["main", "TableSpec"]

_ALL_ORDERS = (0, 1, 2, 3, 4)
_MAX_STEPS = 10**6


@dataclass(frozen=True)
class TableSpec:
    """A rectangular evaluation request: orders x uniform z-grid."""

    orders: tuple[int, ...]
    z_start: float
    z_end: float
    steps: int
    fmt: str

    def __post_init__(self) -> None:
        orders = tuple(self.orders) if isinstance(self.orders, Iterable) else ()
        if not orders:
            raise DomainError(f"orders must be a nonempty subset of 0..4, got {self.orders!r}")
        orders = tuple(as_order(n, 0, 4, "order") for n in orders)
        if len(set(orders)) < len(orders):
            raise DomainError(f"orders must not repeat, got {self.orders!r}")
        object.__setattr__(self, "orders", orders)
        for name in ("z_start", "z_end"):
            object.__setattr__(self, name, as_real(getattr(self, name), name, _ABOVE_M1, 1.0))
        if not self.z_start < self.z_end:
            raise DomainError(f"need z_start < z_end, got {self.z_start!r}, {self.z_end!r}")
        object.__setattr__(self, "steps", as_order(self.steps, 2, _MAX_STEPS, "steps"))
        if self.fmt not in ("csv", "json"):
            raise DomainError(f"format must be csv or json, got {self.fmt!r}")

    def grid(self) -> list[float]:
        span = self.z_end - self.z_start
        last = self.steps - 1
        points = [self.z_start + span * i / last for i in range(self.steps)]
        points[0] = self.z_start
        points[-1] = self.z_end  # endpoints exact despite float stepping
        return points


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _parse_orders(text: str) -> tuple[int, ...]:
    if text.strip().lower() == "all":
        return _ALL_ORDERS
    try:
        orders = tuple(sorted({int(part) for part in text.split(",")}))
    except ValueError:
        raise DomainError(f"cannot parse orders {text!r}; use e.g. '0,2,4' or 'all'")
    return orders


def render_table(spec: TableSpec) -> str:
    """Deterministic CSV/JSON rendering with shortest round-trip floats.

    Each z, which the spec puts in (-1, 1], is evaluated once by p_derivs' unchecked door.
    """
    names = [f"P{n}" for n in spec.orders]
    rows = []
    for z in spec.grid():
        values = _row(z)
        rows.append((z, *[values[n] for n in spec.orders]))
    if spec.fmt == "csv":
        lines = [",".join(["z"] + names)]
        lines += [",".join(map(repr, row)) for row in rows]
        return "\n".join(lines) + "\n"
    import json

    doc = [dict(zip(["z"] + names, row)) for row in rows]
    return json.dumps(doc, indent=2) + "\n"


@click.group()
@click.version_option(version=__version__, prog_name="legderiv")
def main() -> None:
    """Order-derivatives of the Legendre function at degree zero.

    Closed-form evaluation of Pn(z) = [d^n P_nu(z)/d nu^n] at nu = 0 for
    n = 0..4, plus a self-verification suite that cross-checks every
    closed form against independent numerical routes.
    """


@main.command("eval")
@click.option("--n", "order", type=int, required=True, help="Derivative order, 0..4.")
@click.option("--z", type=float, required=True, help="Argument in (-1, 1].")
def cmd_eval(order: int, z: float) -> None:
    """Print Pn(z) with 15 significant digits."""
    try:
        value = p_deriv(order, z)
    except DomainError as exc:
        _fail(str(exc))
    click.echo(f"{value:.15g}")


@main.command("table")
@click.option("--orders", default="all", show_default=True, help="Comma list of orders or 'all'.")
@click.option("--z-start", type=float, required=True)
@click.option("--z-end", type=float, required=True)
@click.option("--steps", type=int, required=True, help="Grid points, endpoints included.")
@click.option(
    "--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True
)
@click.option("--output", type=click.Path(dir_okay=False, writable=True), default=None,
              help="Write to a file instead of stdout.")
def cmd_table(orders: str, z_start: float, z_end: float, steps: int, fmt: str, output: str | None) -> None:
    """Tabulate Pn(z) over a uniform grid (endpoints inclusive)."""
    try:
        spec = TableSpec(
            orders=_parse_orders(orders), z_start=z_start, z_end=z_end, steps=steps, fmt=fmt
        )
        text = render_table(spec)
        if output is not None:
            with open(output, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
    except (DomainError, OSError) as exc:
        _fail(str(exc))
    if output is None:
        click.echo(text, nl=False)


@main.command("verify")
@click.option("--json", "as_json", is_flag=True, help="Emit the structured report.")
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True)
def cmd_verify(as_json: bool, seed: int) -> None:
    """Run the verification suite against its fixed gates; exit 0 iff all required checks pass."""
    try:
        report = run_suite(seed=seed)
    except (DomainError, ConvergenceError) as exc:
        _fail(str(exc))
    click.echo(report.to_json() if as_json else report.to_text())
    sys.exit(0 if report.all_passed else 1)


@main.command("sum-trigamma")
@click.argument("terms", type=int)
@click.option("--no-accelerate", is_flag=True,
              help="Brute-force doubly truncated sum instead of the tail-corrected one.")
def cmd_sum_trigamma(terms: int, no_accelerate: bool) -> None:
    """Sum psi'(k)/k^2 with TERMS terms and report the gap to 7 pi^4/360."""
    try:
        value = trigamma_sum(terms, accelerate=not no_accelerate)
    except DomainError as exc:
        _fail(str(exc))
    target = trigamma_sum_target()
    click.echo(f"sum {value:.15g}")
    click.echo(f"reference {target:.15g}")
    click.echo(f"deviation {abs(value - target):.6e}")


if __name__ == "__main__":
    main()
