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

``invariants`` evaluates rational points on integer numerators and
denominators, one reduction per reported value; any other point (a float
coordinate, or a symbolic one in a proof) takes the formulas as written.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Optional

from .backend import EPS_CLASS, Scalar, exact_div, is_float_backed, is_zero
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
        out = {"k": self.k, "y": self.y, "psi": self.psi}
        for name in ("v", "s", "q", "tau", "u", "pi", "f"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out


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


def _zero_scale(mu: DualElement) -> Scalar:
    """The largest |component| (at least 1) on floats, 1 on rationals."""
    return max(1, *map(abs, mu)) if is_float_backed(*mu) else 1


def classify(mu: DualElement, tol: float = EPS_CLASS) -> OrbitClass:
    """Orbit family of mu, split on (k, y, f).

    Rational inputs are tested exactly; float inputs use a relative zero
    test with tolerance ``tol`` against the largest component (so the
    classification of scaled points is stable).
    """
    scale = _zero_scale(mu)
    k_zero = is_zero(mu.k, tol, scale)
    y_zero = is_zero(mu.y, tol, scale)
    if not k_zero and not y_zero:
        return OrbitClass.GENERIC
    if not k_zero:
        return OrbitClass.HOOKE_ONLY
    if not y_zero:
        return OrbitClass.YANK_ONLY
    if not is_zero(mu.f, tol, scale):
        return OrbitClass.FORCE_ONLY
    return OrbitClass.FIXED_POINT


def invariants(mu: DualElement, tol: float = EPS_CLASS) -> InvariantSet:
    """All invariants defined at mu; see InvariantSet for the presence rules.

    Each rational value is one integer numerator over one integer
    denominator, reduced by a single ``Fraction(num, den)``.  U and pi keep
    their chart formulas e - kq^2/2 + pv and p - y tau^2/2 + es, so
    U = pi v stays a check between two computations.
    """
    if not all(isinstance(c, (int, Fraction)) for c in mu):
        return _formula_invariants(mu, tol)
    (pn, pd), (en, ed), (fn, fd), (kn, kd), (yn, yd) = [
        (c.numerator, c.denominator) for c in mu]
    v = s = q = tau = u = pi = f_echo = None
    if kn:
        q_pair, v_pair = (fn * kd, fd * kn), (yn * kd, yd * kn)
        q, v = Fraction(*q_pair), Fraction(*v_pair)
        u = _chart_value((en, ed), (kn, kd), q_pair, (pn, pd), v_pair)
    if yn:
        tau_pair, s_pair = (fn * yd, fd * yn), (kn * yd, kd * yn)
        tau, s = Fraction(*tau_pair), Fraction(*s_pair)
        pi = _chart_value((pn, pd), (yn, yd), tau_pair, (en, ed), s_pair)
    if not kn and not yn:
        f_echo = mu.f
    ke_d, ff_d, py_d = kd * ed, fd * fd, pd * yd
    psi = Fraction((2 * kn * en * ff_d - fn * fn * ke_d) * py_d
                   + 2 * pn * yn * ke_d * ff_d, ke_d * ff_d * py_d)
    return InvariantSet(k=mu.k, y=mu.y, psi=psi, v=v, s=s, q=q, tau=tau,
                        u=u, pi=pi, f=f_echo)


def _chart_value(a: tuple, c: tuple, x: tuple, w: tuple, z: tuple) -> Fraction:
    """a - c x^2/2 + w z for (numerator, denominator) pairs, reduced once."""
    (an, ad), (cn, cd), (xn, xd), (wn, wd), (zn, zd) = a, c, x, w, z
    sq_n, sq_d = cn * xn * xn, 2 * cd * xd * xd
    lin_n, lin_d = wn * zn, wd * zd
    return Fraction((an * sq_d - sq_n * ad) * lin_d + lin_n * ad * sq_d,
                    ad * sq_d * lin_d)


def psi_value(p: Scalar, e: Scalar, f: Scalar, k: Scalar, y: Scalar) -> Scalar:
    """psi = 2ke - f^2 + 2py, the invariant defined on every orbit."""
    return 2 * k * e - f * f + 2 * p * y


def _formula_invariants(mu: DualElement, tol: float) -> InvariantSet:
    """invariants by the formulas as written, with classify's zero test:
    relative on a float point, exact on a symbolic one."""
    p, e, f, k, y = mu
    scale = _zero_scale(mu)
    k_zero = is_zero(k, tol, scale)
    y_zero = is_zero(y, tol, scale)

    v = s = q = tau = u = pi = f_echo = None
    if not k_zero:
        v = exact_div(y, k)
        q = exact_div(f, k)
        u = e - HALF * k * q * q + p * v
    if not y_zero:
        s = exact_div(k, y)
        tau = exact_div(f, y)
        pi = p - HALF * y * tau * tau + e * s
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
