"""Fixed reference work, run as a child next to the program's children.

It does what the program's children do, with code the program does not
share: start an interpreter, do exact and float arithmetic, hold the
rows in memory and write them as CSV.  Its median time in a run tracks
how fast the machine is during that run.
"""

import csv
import io
from fractions import Fraction

ROWS = 3500


def main():
    rows = []
    for i in range(ROWS):
        t = Fraction(i, 1000)
        x = Fraction(3, 2) - Fraction(7, 4) * t + t * t / 2
        q = 0.75 - 1.5 * (i * 1e-4)
        rows.append((t, x, x * x - t, q, q * q / 3))
    buffer = io.StringIO()
    csv.writer(buffer).writerows(
        [[repr(c) if isinstance(c, float) else str(c) for c in row]
         for row in rows])
    print(len(buffer.getvalue()))


if __name__ == "__main__":
    main()
