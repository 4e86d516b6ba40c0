"""Output checks: each raises CheckFailed on the first wrong value.

Expected values are recomputed here from the generated inputs, in
``Fraction`` wherever the program claims exactness, and never read back
from the program under test.
"""

from __future__ import annotations

import csv
import json
import re
from fractions import Fraction

from inputs import SimulateSpec, grid_length

# verify's integrator-tolerance bound, applied to the RK4 leg
RK4_TOLERANCE = 1e-8
# float classify: |psi - exact| relative to its largest term
FLOAT_PSI_TOLERANCE = 1e-9


class CheckFailed(Exception):
    """The program's output disagrees with the recomputed expectation."""


def _reject_constant(token: str):
    raise CheckFailed(f"non-RFC 8259 JSON token {token}")


def strict_json(text: str):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"invalid JSON: {exc}") from exc


def _csv_rows(text: str, header: tuple) -> list:
    rows = list(csv.reader(text.splitlines()))
    if not rows or tuple(rows[0]) != header:
        raise CheckFailed(f"expected header {header}, got "
                          f"{rows[0] if rows else 'nothing'}")
    return rows[1:]


def _expect(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def _psi(mu) -> Fraction:
    p, e, f, k, y = mu
    return 2 * k * e - f * f + 2 * p * y


def _dimension(name: str) -> int:
    return 0 if name == "FIXED_POINT" else 2


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


# ------------------------------------------------------------- classify

def check_classify_json(text: str, points: list):
    """Rational leg: class, dimension, exact psi and input echo per point."""
    data = strict_json(text)
    _expect(data.get("backend") == "rational", "backend is not rational")
    entries = data.get("points", [])
    _expect(len(entries) == len(points),
            f"{len(entries)} points in output, {len(points)} in input")
    for index, ((name, mu), entry) in enumerate(zip(points, entries)):
        where = f"point {index}"
        _expect(entry["input"] == [str(c) for c in mu], f"{where}: input echo")
        _expect(entry["class"] == name,
                f"{where}: class {entry['class']}, built as {name}")
        _expect(entry["orbit_dimension"] == _dimension(name),
                f"{where}: orbit_dimension {entry['orbit_dimension']}")
        psi = Fraction(entry["invariants"]["psi"])
        _expect(psi == _psi(mu), f"{where}: psi {psi} != {_psi(mu)}")


CLASSIFY_CSV_HEADER = ("p", "e", "f", "k", "y", "class", "dimension", "psi",
                       "v", "s", "q", "tau", "u", "pi", "f_invariant")


def check_classify_csv(text: str, points: list):
    """Float leg: each class must equal the rational one.

    The rational leg is checked to give every point the class it was
    built for, so comparing with the built class is the same comparison.
    """
    rows = _csv_rows(text, CLASSIFY_CSV_HEADER)
    _expect(len(rows) == len(points),
            f"{len(rows)} rows in output, {len(points)} in input")
    for index, ((name, mu), row) in enumerate(zip(points, rows)):
        where = f"row {index + 1}"
        _expect([float(c) for c in row[:5]] == [float(c) for c in mu],
                f"{where}: input echo {row[:5]}")
        _expect(row[5] == name, f"{where}: class {row[5]}, built as {name}")
        _expect(row[6] == str(_dimension(name)),
                f"{where}: dimension {row[6]} at "
                f"{','.join(str(c) for c in mu)}, built as {name}")
        p, e, f, k, y = mu
        scale = float(max(1, abs(2 * k * e), f * f, abs(2 * p * y)))
        _expect(abs(float(row[7]) - float(_psi(mu)))
                <= FLOAT_PSI_TOLERANCE * scale, f"{where}: psi {row[7]}")


# ------------------------------------------------------------- simulate

def _exact_rows(text: str, header: tuple, rows_expected: int) -> list:
    rows = _csv_rows(text, header)
    _expect(len(rows) == rows_expected,
            f"{len(rows)} rows, expected {rows_expected}")
    return [[Fraction(c) for c in row] for row in rows]


def _exact_grid(stop, step) -> list:
    count = grid_length(stop, step)
    return [min(i * Fraction(step), Fraction(stop)) for i in range(count)]


def check_closed_form(text: str, spec: SimulateSpec):
    """Exact space-picture closed form: every row equals the formula."""
    grid = _exact_grid(spec.exact_stop, spec.exact_step)
    rows = _exact_rows(text, ("x", "tau", "e", "pi", "drift"), len(grid))
    k, y, tau0, e0 = spec.k, spec.y, spec.tau0, spec.e0
    s, f0 = k / y, y * tau0
    pi0 = e0 * s - y * tau0 * tau0 / 2
    for x, row in zip(grid, rows):
        tau = tau0 + s * x
        e = e0 + f0 * x + k * x * x / 2
        pi = e * s - y * tau * tau / 2
        _expect(row == [x, tau, e, pi, abs(pi - pi0)], f"row at x={x}: {row}")


def check_dual(text: str, spec: SimulateSpec):
    """Exact time-picture dual flow: every row equals the formula."""
    grid = _exact_grid(spec.exact_stop, spec.exact_step)
    rows = _exact_rows(text, ("t", "p", "e", "f", "psi", "drift"), len(grid))
    p0, e0, f0, k, y = spec.mu
    psi0 = _psi(spec.mu)
    for t, row in zip(grid, rows):
        p, f = p0 - f0 * t + y * t * t / 2, f0 - y * t
        psi = _psi((p, e0, f, k, y))
        _expect(row == [t, p, e0, f, psi, abs(psi - psi0)],
                f"row at t={t}: {row}")


def check_rk4(text: str, spec: SimulateSpec):
    """Float time-picture RK4 against the closed form.

    Every row must lie within the tolerance of the closed form and carry
    its own invariant; the final row is compared with the closed form
    evaluated exactly; drift may not exceed the tolerance anywhere.
    """
    rows = _csv_rows(text, ("t", "q", "p", "U", "drift"))
    count = grid_length(spec.rk4_stop, spec.rk4_step)
    _expect(len(rows) == count, f"{len(rows)} rows, expected {count}")
    k, y, q0, p0 = (float(c) for c in (spec.k, spec.y, spec.q0, spec.p0))
    v, h = y / k, float(spec.rk4_step)
    for index, row in enumerate(rows):
        t, q, p, u, drift = (float(c) for c in row)
        where = f"row {index + 1}"
        _expect(abs(t - index * h) <= 1e-9, f"{where}: parameter {t}")
        _expect(_rel_err(q, q0 - v * t) <= RK4_TOLERANCE
                and _rel_err(p, p0 - k * q0 * t + y * t * t / 2)
                <= RK4_TOLERANCE, f"{where}: state {row}")
        _expect(abs(u - (p * v - k * q * q / 2))
                <= 1e-12 * max(1.0, abs(p * v), abs(k * q * q)),
                f"{where}: invariant {u}")
        _expect(0 <= drift <= RK4_TOLERANCE, f"{where}: drift {drift}")
    stop = Fraction(spec.rk4_stop)
    q_end = spec.q0 - spec.y / spec.k * stop
    p_end = spec.p0 - spec.k * spec.q0 * stop + spec.y * stop * stop / 2
    t, q, p = (float(c) for c in rows[-1][:3])
    _expect(t == float(stop), f"final parameter {t}")
    _expect(_rel_err(q, float(q_end)) <= RK4_TOLERANCE
            and _rel_err(p, float(p_end)) <= RK4_TOLERANCE,
            f"final state ({q}, {p}), exact ({q_end}, {p_end})")


# ---------------------------------------------------------------- audit

def check_verify(text: str):
    lines = text.rstrip("\n").splitlines()
    _expect(bool(lines) and lines[-1] == "all checks passed",
            "verify did not report 'all checks passed'")
    failed = [line for line in lines if line.startswith("[FAIL]")]
    _expect(not failed, f"failed checks: {failed}")


def check_derive_law(text: str, samples: int):
    _expect(f"verified against the composition on {samples} fresh points"
            in text, "derive-law did not report its verification")


def check_errata(text: str):
    match = re.search(r"^findings: (\d+) \(", text, re.MULTILINE)
    _expect(match is not None, "errata printed no finding count")
    verdicts = re.findall(r"^\[(?:CONFIRMS|CONTRADICTS)\] ", text,
                          re.MULTILINE)
    _expect(len(verdicts) == int(match.group(1)),
            f"{len(verdicts)} findings listed, {match.group(1)} counted")
