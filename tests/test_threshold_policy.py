"""One threshold policy: float input on a staircase threshold decides like exact input."""

import math
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from zeromodes import (
    FieldSpec,
    Hole,
    RadialBump,
    count_zero_modes,
    disc_with_holes,
    index_vs_count,
    pi_flux,
    plane_with_holes,
)

Q_GRID = [Fraction(q) for q in
          ("0", "1/4", "-1/4", "1/3", "-1/3", "1/2", "1/6", "2/5", "-3/8")]
HOLES = [Hole(1.2 + 0.4j, 0.35), Hole(-1.0 - 1.1j, 0.35)]
DISC = disc_with_holes(3.0, HOLES)
PLANE = plane_with_holes(HOLES)


def fields(q, bump_pi, holes_pi):
    """The same grid point once with pi_flux values and once with floats."""
    exact = FieldSpec(bumps=[RadialBump(-0.8 + 0.3j, 0.6, pi_flux(bump_pi))],
                      hole_fluxes=[pi_flux(h) for h in holes_pi], q_shift=q)
    floats = FieldSpec(bumps=[RadialBump(-0.8 + 0.3j, 0.6, float(bump_pi) * math.pi)],
                       hole_fluxes=[float(h) * math.pi for h in holes_pi], q_shift=q)
    return exact, floats


quarter_pi = st.integers(min_value=-32, max_value=32).map(lambda k: Fraction(k, 4))
# a quarter-pi hole flux shifted by a multiple of 2 pi
hole_pi = st.builds(lambda k, m: Fraction(k, 4) + 2 * m,
                    st.integers(min_value=-4, max_value=3),
                    st.integers(min_value=-3, max_value=3))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(Q_GRID), quarter_pi, st.lists(hole_pi, min_size=2, max_size=2))
@example(Fraction(1, 4), Fraction(-5), [Fraction(-15, 4), Fraction(5, 4)])  # disc count
@example(Fraction(0), Fraction(5, 4), [Fraction(-15, 4), Fraction(5, 2)])  # plane count
def test_float_flux_decides_thresholds_like_exact_flux(q, bump_pi, holes_pi):
    exact, floats = fields(q, bump_pi, holes_pi)
    for domain in (DISC, PLANE):
        assert count_zero_modes(domain, floats) == count_zero_modes(domain, exact)
    for fld in (exact, floats):
        rep = index_vs_count(DISC, fld)
        assert abs(rep.assembly.raw - rep.signed_count) <= 1e-9
        assert rep.index == rep.signed_count
        assert rep.consistent
