"""Value types: keyword construction, defaults, immutability, equality."""

from collections.abc import Hashable
from fractions import Fraction

import pytest

from aristotle_orbits.dynamics import (
    IntegratorConfig, OrbitParams, SpaceState, TimeState, Trajectory,
)
from aristotle_orbits.errata import ErrataFinding
from aristotle_orbits.lie_core import AdjointMatrix, AlgebraElement, GroupElement
from aristotle_orbits.orbits import DualElement, InvariantSet

HALF = Fraction(1, 2)
IDENTITY = tuple(tuple(int(i == j) for j in range(5)) for i in range(5))

# (type, keyword arguments, the defaults of the fields left out)
RECORDS = [
    (DualElement, dict(p=1, e=HALF, f=-2, k=3, y=4), {}),
    (InvariantSet, dict(k=1, y=2, psi=HALF),
     dict(v=None, s=None, q=None, tau=None, u=None, pi=None, f=None)),
    (GroupElement, dict(x=1, t=2, zeta=HALF, a=0, b=-1), {}),
    (AdjointMatrix, dict(rows=IDENTITY), {}),
    (AlgebraElement, dict(coeffs=(1, 0, HALF, 0, 2)), {}),
    (OrbitParams, dict(k=HALF, y=-3), {}),
    (TimeState, dict(q=1, p=2), dict(t=0)),
    (SpaceState, dict(tau=1, e=2), dict(x=0)),
    (IntegratorConfig, dict(step=HALF), dict(start=0, stop=10)),
    (ErrataFinding, dict(id="E1", verdict="CONFIRMS", printed="a", derived="a",
                         sample={"x": "1"}, residual=None), dict(note="")),
]


@pytest.mark.parametrize("cls, kwargs, defaults", RECORDS,
                         ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_record_construction_immutability_and_equality(cls, kwargs, defaults):
    record = cls(**kwargs)
    for name, value in {**kwargs, **defaults}.items():
        assert getattr(record, name) == value
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(record, name, kwargs[name])
    twin = cls(**kwargs)
    assert record == twin and not record != twin
    if all(isinstance(value, Hashable) for value in kwargs.values()):
        assert hash(record) == hash(twin)
    if isinstance(record, tuple):
        # named tuples unpack and compare equal to the plain tuple
        assert record == tuple(record) == tuple({**kwargs, **defaults}.values())


def test_trajectory_is_read_only_and_compares_by_identity():
    def row_factory():
        return iter([(0, 1, 2, 3, 0)])

    fields = dict(picture="time", columns=("t", "q", "p", "U", "drift"),
                  invariant_name="U", method="closed-form",
                  params={"k": 1, "y": 1}, row_factory=row_factory)
    trajectory, twin = Trajectory(**fields), Trajectory(**fields)
    assert trajectory == trajectory and trajectory != twin
    assert len({trajectory, twin}) == 2
    for name, value in fields.items():
        assert getattr(trajectory, name) is value
        with pytest.raises(AttributeError):
            setattr(trajectory, name, value)


@pytest.mark.parametrize("build", [
    lambda: IntegratorConfig(step=0),
    lambda: IntegratorConfig(step=-HALF),
    lambda: IntegratorConfig(start=1, stop=0),
    lambda: IntegratorConfig(0.1, 5, 4),
    lambda: IntegratorConfig()._replace(step=0),
    lambda: AlgebraElement((1, 2, 3, 4)),
    lambda: AlgebraElement((1, 2, 3, 4, 5, 6)),
], ids=["zero-step", "negative-step", "reversed-range",
        "reversed-positional", "replaced-step", "four-coefficients",
        "six-coefficients"])
def test_invalid_records_raise_value_error(build):
    with pytest.raises(ValueError):
        build()
