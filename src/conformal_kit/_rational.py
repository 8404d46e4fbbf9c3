"""Exact level arithmetic shared by the calibrators.

Rank formulas like ceil((1 - alpha) * (n + 1)) are defined for real alpha
but evaluated at floats, and the float image of a decimal alpha can sit a
few ulp off the grid point j/(n + 1) the caller had in mind.  Everything
here goes through Fraction, and ``on_grid`` moves a float level onto the
grid j/m it rounds from, so that e.g. alpha = 0.1, n = 9 lands on rank 9
rather than 10.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational

# A float level within this many units in the last place of a grid point
# j/m is taken to mean that grid point.  Rounding a decimal to a float
# moves it by at most half an ulp, and one ulp of x is at most |x| 2^-52,
# so the window on x m is SNAP_ULPS |x m| 2^-52: wide enough for a few
# rounding steps, and below half the grid spacing while |x m| < 2^49.
SNAP_ULPS = 4


def as_fraction(x) -> Fraction:
    """Convert a level or threshold to an exact rational.

    Rational inputs pass through unchanged; floats convert via their exact
    binary value.
    """
    if isinstance(x, Rational):
        return Fraction(x)
    return Fraction(float(x))


def on_grid(x, m: int) -> Fraction:
    """The level x as an exact rational, moved onto the grid j/m if float-borne.

    Rational inputs are returned exactly.  A float within SNAP_ULPS ulp of
    some j/m is returned as j/m, except that a float below 1 never becomes
    1: a level that close to 1 is still a level, and m/m would leave no
    rank to select.  Any other float keeps its binary value.

    Examples
    --------
    >>> on_grid(0.3, 10**9)
    Fraction(3, 10)
    >>> on_grid(Fraction(1, 3), 10)
    Fraction(1, 3)
    >>> on_grid(1 - 2**-53, 10) < 1
    True
    """
    if isinstance(x, Rational):
        return Fraction(x)
    scaled = Fraction(float(x)) * m
    nearest = round(scaled)
    if nearest == m and scaled < m:
        return scaled / m
    if abs(scaled - nearest) <= abs(scaled) * SNAP_ULPS / 2**52:
        return Fraction(nearest, m)
    return scaled / m
