"""Exact arithmetic for the 5-dimensional step-3 nilpotent algebra and its group.

The algebra is the second central extension of the (1+1) space-time
translation (Aristotle) algebra: generators P (space), E (time), F (first
extension), Lambda and Y (second extension), with nonzero brackets

    [P, E] = F,   [P, F] = Lambda,   [F, E] = Y.

All four-fold nested brackets vanish, so the Baker-Campbell-Hausdorff
series terminates after the 1/12 terms and every group-law computation
here is a finite exact polynomial.

Group elements are stored in second-kind coordinates (x, t, zeta, a, b),
meaning the ordered product

    exp(a*Lambda + b*Y) * exp(t*E + zeta*F) * exp(x*P).

The rightmost printed factor of this factorization names an undefined
symbol K in the source text; it is read as P throughout (the only
remaining generator, and the only reading whose center quotient
reproduces the first-extension law).  The errata report states this
assumption explicitly.

``compose_bch`` derives the group law by BCH factor shuffling; the closed
polynomials ``compose``, ``inverse`` and ``adjoint_of_group`` are checked
against it (Corwin & Greenleaf, section 1.2).  ``compose_printed`` copies
the source text's non-associative law verbatim, for the errata engine only.
"""

from __future__ import annotations

from enum import IntEnum
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from . import linalg
from .backend import HALF, Scalar

TWELFTH = Fraction(1, 12)

DIM = 5


class BasisIndex(IntEnum):
    """Fixed basis order for all matrix representations."""

    P = 0
    E = 1
    F = 2
    LAMBDA = 3
    Y = 4


class StructureTensor:
    """Bracket coefficients c[i][j][m] with [X_i, X_j] = sum_m c[i][j][m] X_m.

    The tensor is generic (any antisymmetric table can be loaded, e.g. for
    mutation testing), but the package is validated and shipped only for
    the 5-dimensional table above.
    """

    def __init__(self, c: Sequence[Sequence[Sequence[Scalar]]]):
        self.c = tuple(tuple(tuple(Fraction(x) if not isinstance(x, float) else x
                                   for x in row) for row in plane) for plane in c)
        # sparse view for fast bracket evaluation
        self.entries = tuple((i, j, m, self.c[i][j][m])
                             for i in range(DIM) for j in range(DIM) for m in range(DIM)
                             if self.c[i][j][m] != 0)

    @classmethod
    def from_brackets(cls, brackets: Iterable[tuple[int, int, int, Scalar]]) -> "StructureTensor":
        """Build from a list of (i, j, m, coeff) with antisymmetry filled in."""
        c = [[[Fraction(0)] * DIM for _ in range(DIM)] for _ in range(DIM)]
        for i, j, m, coeff in brackets:
            c[i][j][m] = Fraction(coeff)
            c[j][i][m] = -Fraction(coeff)
        return cls(c)

    @classmethod
    def default(cls) -> "StructureTensor":
        """The shipped table: [P,E] = F, [P,F] = Lambda, [F,E] = Y."""
        B = BasisIndex
        return cls.from_brackets([
            (B.P, B.E, B.F, 1),
            (B.P, B.F, B.LAMBDA, 1),
            (B.F, B.E, B.Y, 1),
        ])


DEFAULT_TENSOR = StructureTensor.default()


class AlgebraElement:
    """Coefficient vector over the (P, E, F, Lambda, Y) basis; immutable.

    Units are documented, not enforced: the pairing of a dual element with
    an algebra element has the dimension of action.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar]):
        coeffs = tuple(coeffs)
        if len(coeffs) != DIM:
            raise ValueError("algebra elements have exactly five coefficients")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError(f"AlgebraElement is immutable; cannot set {name!r}")

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"AlgebraElement(coeffs={self.coeffs!r})"

    @classmethod
    def basis(cls, index: BasisIndex) -> "AlgebraElement":
        return cls(tuple(1 if i == index else 0 for i in range(DIM)))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(tuple(-a for a in self.coeffs))

    def scaled(self, factor: Scalar) -> "AlgebraElement":
        return AlgebraElement(tuple(factor * a for a in self.coeffs))

    def __getitem__(self, index: BasisIndex) -> Scalar:
        return self.coeffs[index]

    def max_abs(self) -> Scalar:
        return max(abs(a) for a in self.coeffs)


P = AlgebraElement.basis(BasisIndex.P)
E = AlgebraElement.basis(BasisIndex.E)
F = AlgebraElement.basis(BasisIndex.F)
LAMBDA = AlgebraElement.basis(BasisIndex.LAMBDA)
Y = AlgebraElement.basis(BasisIndex.Y)


def bracket(a: AlgebraElement, b: AlgebraElement,
            tensor: StructureTensor = DEFAULT_TENSOR) -> AlgebraElement:
    """Bilinear antisymmetric expansion of [a, b] over the tensor."""
    out = [0] * DIM
    ca, cb = a.coeffs, b.coeffs
    for i, j, m, coeff in tensor.entries:
        if ca[i] != 0 and cb[j] != 0:
            out[m] += coeff * ca[i] * cb[j]
    return AlgebraElement(tuple(out))


def jacobi_residual(tensor: StructureTensor = DEFAULT_TENSOR) -> Scalar:
    """Max coefficient norm of the cyclic bracket sum over all basis triples.

    Zero means the tensor defines a Lie algebra.
    """
    basis = [AlgebraElement.basis(BasisIndex(i)) for i in range(DIM)]
    worst = Fraction(0)
    for i in range(DIM):
        for j in range(i + 1, DIM):
            for m in range(j + 1, DIM):
                a, b, c = basis[i], basis[j], basis[m]
                cyc = (bracket(a, bracket(b, c, tensor), tensor)
                       + bracket(b, bracket(c, a, tensor), tensor)
                       + bracket(c, bracket(a, b, tensor), tensor))
                worst = max(worst, cyc.max_abs())
    return worst


class AdjointMatrix(NamedTuple):
    """5x5 matrix acting on algebra coefficient vectors.

    For any group element the matrix is unipotent: (M - I)^3 = 0, and
    det M = 1.
    """

    rows: tuple

    def apply(self, element: AlgebraElement) -> AlgebraElement:
        return AlgebraElement(linalg.mat_vec(self.rows, element.coeffs))

    def __matmul__(self, other: "AdjointMatrix") -> "AdjointMatrix":
        return AdjointMatrix(linalg.mat_mul(self.rows, other.rows))

    def transpose_apply(self, covector: tuple) -> tuple:
        """Apply the transpose to a dual-coordinate vector (used by Ad*)."""
        return linalg.mat_vec(linalg.transpose(self.rows), covector)


def ad(a: AlgebraElement, tensor: StructureTensor = DEFAULT_TENSOR) -> AdjointMatrix:
    """Matrix of bracket(a, .) in the fixed basis; nilpotent of index <= 3."""
    cols = [bracket(a, AlgebraElement.basis(BasisIndex(j)), tensor).coeffs
            for j in range(DIM)]
    return AdjointMatrix(tuple(tuple(cols[j][i] for j in range(DIM)) for i in range(DIM)))


def exp_ad(a: AlgebraElement, tensor: StructureTensor = DEFAULT_TENSOR) -> AdjointMatrix:
    """exp(ad_a) = I + ad_a + ad_a^2/2, exact because ad_a^3 = 0."""
    m = ad(a, tensor).rows
    m2 = linalg.mat_mul(m, m)
    rows = tuple(tuple((1 if i == j else 0) + m[i][j] + HALF * m2[i][j]
                       for j in range(DIM)) for i in range(DIM))
    return AdjointMatrix(rows)


def bch(a: AlgebraElement, b: AlgebraElement,
        tensor: StructureTensor = DEFAULT_TENSOR) -> AlgebraElement:
    """Single exponential of exp(a)exp(b).

    a + b + [a,b]/2 + [a,[a,b]]/12 + [b,[b,a]]/12 -- exact, since every
    four-letter bracket vanishes on the shipped tensor.
    """
    ab = bracket(a, b, tensor)
    return (a + b
            + ab.scaled(HALF)
            + bracket(a, ab, tensor).scaled(TWELFTH)
            + bracket(b, bracket(b, a, tensor), tensor).scaled(TWELFTH))


class GroupElement(NamedTuple):
    """Second-kind coordinates (x, t, zeta, a, b); see the module docstring."""

    x: Scalar
    t: Scalar
    zeta: Scalar
    a: Scalar
    b: Scalar

    @classmethod
    def identity(cls) -> "GroupElement":
        return cls(0, 0, 0, 0, 0)


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    """Product in second-kind coordinates: the closed form of ``compose_bch``."""
    return GroupElement(
        g.x + h.x,
        g.t + h.t,
        g.zeta + h.zeta + g.x * h.t,
        g.a + h.a + g.x * h.zeta + HALF * g.x * g.x * h.t,
        g.b + h.b + HALF * (g.zeta * h.t - g.t * h.zeta - g.x * g.t * h.t),
    )


def compose_bch(g: GroupElement, h: GroupElement,
                tensor: StructureTensor = DEFAULT_TENSOR) -> GroupElement:
    """Product in second-kind coordinates, derived by BCH factor shuffling.

    Moves exp(x*P) rightward past exp(t'E + zeta'F) via conjugation by
    exp(ad), merges the E-F factors with ``bch``, and accumulates the
    central Lambda/Y corrections.  Associative by construction on the
    shipped tensor; another tensor gives another law.
    """
    # conjugate the second factor's E-F block past exp(x*P)
    v = E.scaled(h.t) + F.scaled(h.zeta)
    w = exp_ad(P.scaled(g.x), tensor).apply(v)
    if w[BasisIndex.P] != 0:
        raise ArithmeticError("conjugation by exp(x*P) produced a P component")
    # merge the two E-F blocks; only a central Y term can appear
    m = bch(E.scaled(g.t) + F.scaled(g.zeta),
            E.scaled(w[BasisIndex.E]) + F.scaled(w[BasisIndex.F]), tensor)
    return GroupElement(
        g.x + h.x,
        m[BasisIndex.E],
        m[BasisIndex.F],
        g.a + h.a + w[BasisIndex.LAMBDA] + m[BasisIndex.LAMBDA],
        g.b + h.b + w[BasisIndex.Y] + m[BasisIndex.Y],
    )


def compose_printed(g: GroupElement, h: GroupElement) -> GroupElement:
    """Verbatim transcription of the source text's multiplication law.

    Kept solely for the errata engine: its b component depends only on the
    second factor's coordinates and the law fails associativity.
    """
    return GroupElement(
        g.x + h.x,
        g.t + h.t,
        g.zeta + h.zeta + g.x * h.t,
        g.a + h.a + g.x * h.zeta + HALF * g.x * g.x * h.t,
        g.b + h.b + h.zeta * h.t + HALF * g.x * h.t * h.t,
    )


def to_single_exponential(g: GroupElement) -> AlgebraElement:
    """First-kind coordinates: the single exponent equal to the factor product."""
    central = LAMBDA.scaled(g.a) + Y.scaled(g.b)
    return bch(central, bch(E.scaled(g.t) + F.scaled(g.zeta), P.scaled(g.x)))


def from_single_exponential(element: AlgebraElement) -> GroupElement:
    """Refactor a single exponential into second-kind coordinates.

    Peels the P factor off the right, then the E-F block, leaving a purely
    central remainder that lands in (a, b).
    """
    x = element[BasisIndex.P]
    no_p = bch(element, P.scaled(-x))
    if no_p[BasisIndex.P] != 0:
        raise ArithmeticError("peeling exp(x*P) left a P component")
    t = no_p[BasisIndex.E]
    zeta = no_p[BasisIndex.F]
    central = bch(no_p, -(E.scaled(t) + F.scaled(zeta)))
    if any(central[i] != 0 for i in (BasisIndex.P, BasisIndex.E, BasisIndex.F)):
        raise ArithmeticError("peeling the E-F block left a non-central remainder")
    return GroupElement(x, t, zeta, central[BasisIndex.LAMBDA], central[BasisIndex.Y])


def inverse(g: GroupElement) -> GroupElement:
    """Closed form of from_single_exponential(-to_single_exponential(g))."""
    return GroupElement(-g.x, -g.t, g.x * g.t - g.zeta,
                        g.x * g.zeta - HALF * g.x * g.x * g.t - g.a, -g.b)


def adjoint_of_group(g: GroupElement) -> AdjointMatrix:
    """Ad_g in closed form, equal to exp_ad(tE + zeta F) @ exp_ad(xP).

    The central factor contributes the identity, so only (x, t, zeta)
    enter.  Homomorphism: Ad(compose(g, h)) = Ad(g) @ Ad(h).
    """
    return AdjointMatrix((
        (1, 0, 0, 0, 0),
        (0, 1, 0, 0, 0),
        (-g.t, g.x, 1, 0, 0),
        (-g.zeta, HALF * g.x * g.x, g.x, 1, 0),
        (HALF * g.t * g.t, g.zeta - g.x * g.t, -g.t, 0, 1),
    ))
