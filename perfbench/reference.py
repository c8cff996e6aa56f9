"""The reference workload that measured times are scaled by.

    python3 perfbench/reference.py

A fixed exact-arithmetic loop that calls no adictrop code, so its cost never
changes between commits.  On a shared machine the speed of the same code
drifts by up to 2x within seconds; the time of this loop, timed next to a
measured span, tracks that drift.  In-process requests are scaled by the
loop run in process; CLI requests and set-ups, which start an interpreter,
by this script run as a fresh process.
"""

from fractions import Fraction


def loop() -> None:
    for i in range(1, 2500):
        Fraction(i % 97, 7) * Fraction(3, i % 11 + 1) + Fraction(1, 5)


if __name__ == "__main__":
    loop()
