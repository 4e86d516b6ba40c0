"""Dual space, coadjoint action, orbit invariants and classification.

Dual coordinates (p, e, f, k, y) are momentum, energy, force, Hooke
constant and yank, paired with algebra coefficients by

    <mu, X> = p X_P + e X_E + f X_F + k X_Lambda + y X_Y.

The action has a reference and a closed form.  ``coadjoint_matrix`` is
mu . Ad_{g^-1}, computed from the group-level adjoint matrices, so it is
correct by construction for the derived group law.  ``coadjoint_printed``
transcribes the closed formulas of the source text, and ``coadjoint``
evaluates them at g's (x, t, zeta).  ``verify`` proves on indeterminates
that the closed form and the reference are one polynomial map, as
``PRINTED_ACTION_CONVENTION`` records.

``invariant_pairs`` evaluates rational points on integer numerators and
denominators, and ``invariants`` reduces each value once; any other point
(a float coordinate, or a symbolic one in a proof) takes the formulas as
written, with the zero test, division and 1/2 that ``point_arithmetic``
picks for it once.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import partial
from itertools import repeat
from operator import truediv
from typing import NamedTuple, Optional

from .backend import EPS_CLASS, InputFormatError, Scalar, exact_div, is_zero
from .lie_core import AlgebraElement, GroupElement, adjoint_of_group, inverse

HALF = Fraction(1, 2)

# How coadjoint(g, mu) relates to coadjoint_printed(g.x, g.t, g.zeta, mu):
# they coincide with no inversion and no sign flips, an identity proved on
# indeterminates by verify's coadjoint-action-laws check.  Kept as data so
# downstream reports can cite it.
PRINTED_ACTION_CONVENTION = "identity"


class DualElement(NamedTuple):
    """Point of the dual space in pairing order (p, e, f, k, y)."""

    p: Scalar
    e: Scalar
    f: Scalar
    k: Scalar
    y: Scalar


class OrbitClass(Enum):
    GENERIC = "GENERIC"
    HOOKE_ONLY = "HOOKE_ONLY"
    YANK_ONLY = "YANK_ONLY"
    FORCE_ONLY = "FORCE_ONLY"
    FIXED_POINT = "FIXED_POINT"

    @property
    def dimension(self) -> int:
        """Orbit dimension of the family: 0 for a fixed point, else 2."""
        return 0 if self is OrbitClass.FIXED_POINT else 2


class InvariantSet(NamedTuple):
    """Orbit invariants; entries whose defining division fails are None.

    v = y/k and s = k/y are the invariant velocity and slowness; q = f/k
    and tau = f/y the chart positions; U and pi the internal energy and
    momentum; psi = 2ke - f^2 + 2py is defined everywhere.  f itself is
    invariant (and therefore echoed) exactly when k = y = 0.
    """

    k: Scalar
    y: Scalar
    psi: Scalar
    v: Optional[Scalar] = None
    s: Optional[Scalar] = None
    q: Optional[Scalar] = None
    tau: Optional[Scalar] = None
    u: Optional[Scalar] = None
    pi: Optional[Scalar] = None
    f: Optional[Scalar] = None

    def as_dict(self) -> dict:
        """{name: value} of the invariants present, in field order."""
        return {name: value for name, value in zip(self._fields, self)
                if value is not None}


def pair(mu: DualElement, element: AlgebraElement) -> Scalar:
    """Natural pairing; the result has the dimension of action."""
    return sum(c * a for c, a in zip(mu, element.coeffs))


def coadjoint(g: GroupElement, mu: DualElement) -> DualElement:
    """mu . Ad_{g^-1} in closed form: ``coadjoint_printed`` at (x, t, zeta).

    Left action: coadjoint(compose(g, h), mu) = coadjoint(g, coadjoint(h, mu)).
    The central coordinates (a, b) of g act trivially.
    """
    return coadjoint_printed(g.x, g.t, g.zeta, mu)


def coadjoint_matrix(g: GroupElement, mu: DualElement) -> DualElement:
    """mu . Ad_{g^-1}, via the transpose of the group adjoint matrix: the
    reference that ``coadjoint`` is proved equal to."""
    matrix = adjoint_of_group(inverse(g))
    return DualElement._make(matrix.transpose_apply(mu))


def coadjoint_printed(x: Scalar, t: Scalar, zeta: Scalar, mu: DualElement) -> DualElement:
    """The closed-form action transcribed from the source text.

    A genuine left action for the first-extension law on (x, t, zeta)
    with zeta'' = zeta + zeta' + x t'; k and y are untouched.
    """
    p, e, f, k, y = mu
    return DualElement(
        p + f * t + k * (zeta - x * t) + HALF * y * t * t,
        e - f * x + HALF * k * x * x - y * zeta,
        f - k * x + y * t,
        k,
        y,
    )


def _is_exact_zero(value: Scalar) -> bool:
    return value == 0


def point_arithmetic(values, tol: float = EPS_CLASS) -> tuple:
    """(zero test, a/b, 1/2) for the formulas at a point, decided once.

    On a point of floats a value is zero when |value| <= tol * max(1,
    largest |component|), so the test of scaled points is stable, and a/b
    and 1/2 are IEEE's.  On an exact point (rational or symbolic) zero is
    exact, a/b is ``exact_div`` and 1/2 is ``HALF``.  A point mixing both
    keeps ``exact_div`` and ``HALF`` and tests a float value relatively,
    an exact one exactly (``is_zero``).
    """
    floats = sum(map(isinstance, values, repeat(float)))
    if not floats:
        return _is_exact_zero, exact_div, HALF
    if floats == len(values):
        limit = tol * max(1.0, *map(abs, values))
        return (lambda value: abs(value) <= limit), truediv, 0.5
    scale = max(1, *map(abs, values))
    return partial(is_zero, tol=tol, scale=scale), exact_div, HALF


def classify(mu: DualElement, tol: float = EPS_CLASS) -> OrbitClass:
    """Orbit family of mu, split on (k, y, f) by ``point_arithmetic``'s
    zero test: exact on rationals, relative with tolerance ``tol`` to the
    largest component on floats."""
    zero = point_arithmetic(mu, tol)[0]
    k_zero, y_zero = zero(mu.k), zero(mu.y)
    if not k_zero:
        return OrbitClass.HOOKE_ONLY if y_zero else OrbitClass.GENERIC
    if not y_zero:
        return OrbitClass.YANK_ONLY
    return OrbitClass.FIXED_POINT if zero(mu.f) else OrbitClass.FORCE_ONLY


def invariants(mu: DualElement, tol: float = EPS_CLASS) -> InvariantSet:
    """All invariants defined at mu; see InvariantSet for the presence rules.

    A rational point's values are ``invariant_pairs`` reduced by one
    ``Fraction`` each; any other point takes the formulas as written.  A
    point mixing floats with exact values too large for them, whose float
    arithmetic overflows, is an ``InputFormatError``.
    """
    if not all(isinstance(c, (int, Fraction)) for c in mu):
        try:
            return _formula_invariants(mu, tol)
        except OverflowError as exc:
            raise InputFormatError(
                f"point ({', '.join(map(str, mu))}): a float invariant "
                f"overflows: {exc}") from exc
    return InvariantSet(**{name: Fraction(*pair)
                           for name, pair in invariant_pairs(mu).items()})


def invariant_pairs(mu: DualElement) -> dict:
    """{name: (numerator, denominator)} of each invariant defined at a
    rational point, in ``InvariantSet.as_dict`` order; a denominator may be
    negative, and no pair is reduced.

    The coordinates' numerators and denominators are read once, and each
    value is one integer numerator over one integer denominator.  U and pi
    keep their chart formulas e - kq^2/2 + pv and p - y tau^2/2 + es, so
    U = pi v stays a check between two computations.
    """
    (pn, pd), (en, ed), (fn, fd), (kn, kd), (yn, yd) = [
        (c.numerator, c.denominator) for c in mu]
    ke_d, ff_d, py_d = kd * ed, fd * fd, pd * yd
    pairs = {"k": (kn, kd), "y": (yn, yd),
             "psi": ((2 * kn * en * ff_d - fn * fn * ke_d) * py_d
                     + 2 * pn * yn * ke_d * ff_d, ke_d * ff_d * py_d)}
    if kn:
        q, v = (fn * kd, fd * kn), (yn * kd, yd * kn)
        u = _chart_value((en, ed), (kn, kd), q, (pn, pd), v)
    if yn:
        tau, s = (fn * yd, fd * yn), (kn * yd, kd * yn)
        pi = _chart_value((pn, pd), (yn, yd), tau, (en, ed), s)
    if kn and yn:
        pairs.update(v=v, s=s, q=q, tau=tau, u=u, pi=pi)
    elif kn:
        pairs.update(v=v, q=q, u=u)
    elif yn:
        pairs.update(s=s, tau=tau, pi=pi)
    else:
        pairs["f"] = (fn, fd)
    return pairs


def _chart_value(a: tuple, c: tuple, x: tuple, w: tuple, z: tuple) -> tuple:
    """a - c x^2/2 + w z for (numerator, denominator) pairs, as one pair."""
    (an, ad), (cn, cd), (xn, xd), (wn, wd), (zn, zd) = a, c, x, w, z
    sq_n, sq_d = cn * xn * xn, 2 * cd * xd * xd
    lin_n, lin_d = wn * zn, wd * zd
    return ((an * sq_d - sq_n * ad) * lin_d + lin_n * ad * sq_d,
            ad * sq_d * lin_d)


def psi_value(p: Scalar, e: Scalar, f: Scalar, k: Scalar, y: Scalar) -> Scalar:
    """psi = 2ke - f^2 + 2py, the invariant defined on every orbit."""
    return 2 * k * e - f * f + 2 * p * y


def _formula_invariants(mu: DualElement, tol: float) -> InvariantSet:
    """invariants by the formulas as written, with ``point_arithmetic``'s
    zero test, division and 1/2 at mu."""
    p, e, f, k, y = mu
    zero, div, half = point_arithmetic(mu, tol)
    k_zero, y_zero = zero(k), zero(y)
    v = s = q = tau = u = pi = f_echo = None
    if not k_zero:
        v = div(y, k)
        q = div(f, k)
        u = e - half * k * q * q + p * v
    if not y_zero:
        s = div(k, y)
        tau = div(f, y)
        pi = p - half * y * tau * tau + e * s
    if k_zero and y_zero:
        f_echo = f
    psi = psi_value(*mu)
    return InvariantSet(k=k, y=y, psi=psi, v=v, s=s, q=q, tau=tau, u=u, pi=pi, f=f_echo)


def coadjoint_generators(mu: DualElement) -> tuple:
    """Rows d/ds coadjoint(exp(s X), mu) at s = 0 for X in (P, E, F).

    Each component is a polynomial in s of degree at most two, so the
    centered difference (g(1) - g(-1))/2 is the exact derivative on both
    backends.  Central generators act trivially and contribute no rows.
    """
    rows = []
    for slot in range(3):
        plus = [0, 0, 0]
        minus = [0, 0, 0]
        plus[slot] = 1
        minus[slot] = -1
        forward = coadjoint_printed(*plus, mu)
        backward = coadjoint_printed(*minus, mu)
        rows.append(tuple(HALF * (a - b) for a, b in zip(forward, backward)))
    return tuple(rows)


def orbit_dimension(mu: DualElement, tol: float = EPS_CLASS) -> int:
    """Rank of the generator rows: their nonzero block is the antisymmetric
    [[0, -f, -k], [f, 0, y], [k, -y, 0]], so 2 unless classify's zero test
    finds f = k = y = 0, then 0."""
    return classify(mu, tol).dimension
