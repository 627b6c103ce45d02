"""One threshold policy: float input on a staircase threshold decides like exact input."""

import math
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from zeromodes import (
    FieldSpec,
    Hole,
    KernelChoice,
    RadialBump,
    count_zero_modes,
    disc_with_holes,
    eta_closed,
    flat_problem,
    index_vs_count,
    normalize_flux,
    pi_flux,
    plane_with_holes,
)
from zeromodes.numutil import HALF, floor_strict, integer_at, threshold_sum

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
        assert count_zero_modes(flat_problem(domain, floats)) == \
            count_zero_modes(flat_problem(domain, exact))
    for fld in (exact, floats):
        rep = index_vs_count(flat_problem(DISC, fld))
        assert abs(rep.assembly.raw - rep.signed_count) <= 1e-9
        assert rep.index == rep.signed_count
        assert rep.consistent


# exact values with numerators and denominators past 2**53, plain ints and
# integer-valued Fractions among them
big = st.integers(min_value=-2**80, max_value=2**80)
exact = st.one_of(
    st.integers(min_value=-2**60, max_value=2**60),
    st.builds(Fraction, big, st.integers(min_value=1, max_value=2**70)),
    st.builds(Fraction, st.integers(min_value=-50, max_value=50),
              st.sampled_from([1, 2, 3, 8, 10**20 + 1])),
)


@settings(max_examples=500, deadline=None)
@given(exact, st.lists(exact, min_size=1, max_size=4))
@example(Fraction(2**60 + 1, 2), [Fraction(-1, 2), 3])
@example(-2, [Fraction(-7, 2)])
def test_integer_paths_agree_with_fraction_arithmetic(y, parts):
    k = round(y)
    assert integer_at(y) == (k if k == y else None)
    assert floor_strict(y) == math.floor(y) - (1 if y == math.floor(y) else 0)
    total = threshold_sum(*parts)
    assert type(total) is Fraction and total == sum(parts, Fraction(0))
    if y == math.floor(y):
        assert eta_closed(y) == 0.0
    else:
        assert eta_closed(y) == float(2 * (y - math.floor(y)) - 1)
    # one float part sends the sum down the float path
    assert threshold_sum(*parts, 0.5) == sum(float(p) for p in (*parts, 0.5))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=-64, max_value=64).map(lambda k: Fraction(k, 4)),
       st.sampled_from(Q_GRID), st.sampled_from(list(KernelChoice)))
@example(Fraction(1), Fraction(0), KernelChoice.DEFAULT)  # flux/2pi at -q + 1/2
@example(Fraction(-3, 2), Fraction(1, 4), KernelChoice.DEFAULT)  # at -q - 1/2
@example(Fraction(1), Fraction(0), KernelChoice.ALTERNATE)  # at +1/2
@example(Fraction(-1), Fraction(0), KernelChoice.ALTERNATE)  # at -1/2
def test_float_flux_ties_fold_like_exact_ties(m, q, kernel):
    # m*pi on the quarter grid puts flux/2pi on an end of the target interval
    # whenever m/2 + q + 1/2 (default) or m/2 - 1/2 (alternate) is an integer
    if kernel is KernelChoice.ALTERNATE:
        q = Fraction(0)
    exact = normalize_flux(pi_flux(m), q, kernel)
    assert normalize_flux(float(m) * math.pi, q, kernel).gauge_integer == exact.gauge_integer
    # the exact fold lands in the target interval, a tie on its closed end
    y = exact.value.over_2pi
    if kernel is KernelChoice.DEFAULT:
        assert -q - HALF <= y < -q + HALF
    else:
        assert -HALF < y <= HALF
