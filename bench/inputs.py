"""Seeded inputs for the benchmark workloads.

Everything the program sees is derived here from the workload seed: the
point file of ``classify-batch``, the parameters and initial states of
``simulate-long`` and the seeds of ``audit``.  The same seed always gives
the same inputs; the generator is ``random.Random`` seeded with an int,
whose sequence is fixed across platforms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# Orbit classes and their share of a classify batch, GENERIC the majority.
CLASS_MIX = (
    ("GENERIC", 6),
    ("HOOKE_ONLY", 1),
    ("YANK_ONLY", 1),
    ("FORCE_ONLY", 1),
    ("FIXED_POINT", 1),
)
POINTS = 1000
POINT_NUM_BOUND = 10**6
POINT_DEN_BOUND = 10**3

# Which of (f, k, y) are zero for each class; p and e are always free.
_ZERO_PATTERN = {
    "GENERIC": (False, False, False),
    "HOOKE_ONLY": (False, False, True),
    "YANK_ONLY": (False, True, False),
    "FORCE_ONLY": (False, True, True),
    "FIXED_POINT": (True, True, True),
}

# verify's and derive-law's sample counts.  Their defaults (1000) take
# ~15 s and ~1.5 s, too long for the many passes a steady median needs;
# derive-law's fixed reconstruction then dominates its cost, so the seed
# barely moves it.
VERIFY_SAMPLES = 50
DERIVE_LAW_SAMPLES = 50


def _rational(rng: random.Random, num_bound: int, den_bound: int,
              nonzero: bool = False) -> Fraction:
    while True:
        num = rng.randint(-num_bound, num_bound)
        if num or not nonzero:
            return Fraction(num, rng.randint(1, den_bound))


def classify_points(seed: int, count: int = POINTS) -> list:
    """[(class name, (p, e, f, k, y))] in a seeded order.

    Every coordinate that the class leaves free is drawn nonzero, so the
    class is fixed by the zero pattern alone.
    """
    rng = random.Random(seed)
    total = sum(weight for _name, weight in CLASS_MIX)
    labels = []
    for name, weight in CLASS_MIX:
        labels += [name] * (count * weight // total)
    labels += ["GENERIC"] * (count - len(labels))
    rng.shuffle(labels)
    points = []
    for name in labels:
        coords = [_rational(rng, POINT_NUM_BOUND, POINT_DEN_BOUND, True)
                  for _ in range(2)]
        for zero in _ZERO_PATTERN[name]:
            coords.append(Fraction(0) if zero else _rational(
                rng, POINT_NUM_BOUND, POINT_DEN_BOUND, True))
        points.append((name, tuple(coords)))
    return points


def points_csv(points: list) -> str:
    lines = ["p,e,f,k,y"]
    lines += [",".join(str(c) for c in mu) for _name, mu in points]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SimulateSpec:
    """Inputs of the three simulate legs.

    The RK4 leg runs the time picture on the float backend, the
    closed-form leg the space picture and the dual leg the time picture,
    both exact.  k and y are small and nonzero so that both charts exist
    and RK4 roundoff over the grid stays within verify's 1e-8 bound.
    The seed picks signs and small odd numerators over fixed
    denominators, so exact arithmetic costs about the same on every seed.
    """

    k: Fraction
    y: Fraction
    q0: Fraction
    p0: Fraction
    tau0: Fraction
    e0: Fraction
    mu: tuple
    rk4_stop: int = 3
    rk4_step: Fraction = Fraction(1, 10000)
    exact_stop: int = 5
    exact_step: Fraction = Fraction(1, 1000)


def simulate_spec(seed: int) -> SimulateSpec:
    rng = random.Random(seed)

    def draw(numerators, den):
        return Fraction(rng.choice((-1, 1)) * rng.choice(numerators), den)

    k, y = draw((3,), 2), draw((5,), 4)
    q0, p0, tau0, e0, p, e, f = (draw((1, 3, 5, 7), 4) for _ in range(7))
    return SimulateSpec(k=k, y=y, q0=q0, p0=p0, tau0=tau0, e0=e0,
                        mu=(p, e, f, k, y))


def grid_length(stop, step) -> int:
    """Rows of a grid 0, h, 2h, ... that ends exactly on stop."""
    whole, rest = divmod(Fraction(stop), Fraction(step))
    return int(whole) + (2 if rest else 1)
