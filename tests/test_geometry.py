"""Domain validation and annulus probes."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zeromodes import (
    OUTER,
    FieldSpec,
    Hole,
    NoClearance,
    RadialBump,
    annulus_probe,
    disc_with_holes,
    plane_with_holes,
    projected_disc,
    sphere_with_holes,
    validate_domain,
    validate_field,
)


def test_valid_disc_with_two_holes():
    spec = disc_with_holes(10.0, [Hole(0.0, 1.0), Hole(5.0, 1.0)])
    assert validate_domain(spec).ok


def test_hole_not_contained_in_disc():
    result = validate_domain(disc_with_holes(2.0, [Hole(1.5, 1.0)]))
    assert not result.ok
    assert result.violations == ["hole 0 not contained"]


def test_tangent_hole_is_rejected():
    # strict containment: |w| + R == R_out is a violation
    result = validate_domain(disc_with_holes(2.0, [Hole(1.0, 1.0)]))
    assert not result.ok


def test_overlapping_holes_on_plane():
    result = validate_domain(plane_with_holes([Hole(0.0, 1.0), Hole(1.5, 1.0)]))
    assert not result.ok
    assert "holes 0,1 overlap" in result.violations


def test_touching_holes_rejected():
    result = validate_domain(plane_with_holes([Hole(0.0, 1.0), Hole(2.0, 1.0)]))
    assert not result.ok


def test_validation_is_permutation_invariant():
    holes = [Hole(0.0, 1.0), Hole(3.0, 0.5), Hole(1.8j, 0.6)]
    outcomes = {
        validate_domain(plane_with_holes(p)).ok for p in itertools.permutations(holes)
    }
    assert outcomes == {True}
    bad = [Hole(0.0, 1.0), Hole(1.2, 0.5), Hole(4.0, 0.6)]
    outcomes = {
        validate_domain(plane_with_holes(p)).ok for p in itertools.permutations(bad)
    }
    assert outcomes == {False}


def test_hole_radius_must_be_positive():
    with pytest.raises(ValueError):
        Hole(0.0, 0.0)


def test_annulus_probe_basic():
    spec = plane_with_holes([Hole(0.0, 1.0)])
    ann = annulus_probe(spec, 0, [3.0])
    assert (ann.inner, ann.outer) == (1.0, 3.0)


def test_annulus_probe_no_clearance():
    spec = plane_with_holes([Hole(0.0, 1.0)])
    with pytest.raises(NoClearance):
        annulus_probe(spec, 0, [1.0])


def test_outer_probe_on_disc():
    spec = disc_with_holes(5.0)
    ann = annulus_probe(spec, OUTER, [2.0])
    assert (ann.inner, ann.outer) == (2.0, 5.0)


def test_probe_avoids_other_holes():
    spec = plane_with_holes([Hole(0.0, 1.0), Hole(4.0, 0.5)])
    ann = annulus_probe(spec, 0, [10.0])
    assert ann.outer == pytest.approx(3.5)
    # sampled circles inside the annulus stay clear of the second hole
    phis = np.linspace(0, 2 * np.pi, 1000, endpoint=False)
    for r in np.linspace(ann.inner + 1e-9, ann.outer - 1e-9, 7):
        pts = r * np.exp(1j * phis)
        assert np.all(np.abs(pts - 4.0) > 0.5)


def test_sphere_needs_a_hole():
    with pytest.raises(ValueError):
        sphere_with_holes([])


def test_sphere_projected_containment():
    spec = sphere_with_holes([Hole(1.0, 0.4), Hole(0.0, 3.0)], omitted_hole=1)
    assert validate_domain(spec).ok
    bad = sphere_with_holes([Hole(2.8, 0.4), Hole(0.0, 3.0)], omitted_hole=1)
    assert not validate_domain(bad).ok


def _in_config(message, index):
    """A violation of the projected disc with each hole named by its config index."""
    return re.sub(r"(?<=hole )\d+|(?<=holes )\d+|(?<=,)\d+",
                  lambda m: str(index[int(m.group())]), message)


_coordinate = st.floats(-3.0, 3.0)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(_coordinate, _coordinate, st.floats(0.1, 1.5)), max_size=4),
    st.floats(1.0, 4.0),
    st.sampled_from([0j, 1e-13 + 0j, 0.3 - 0.2j, 2.0j]),  # the first two are centred
    st.integers(0, 4),
    st.tuples(_coordinate, _coordinate, st.floats(0.1, 1.0)),
)
def test_a_sphere_validates_as_its_projected_disc(inner, radius, centre, position, bump):
    # the designated hole sits anywhere in the list, not only last
    holes = [Hole(complex(x, y), r) for x, y, r in inner]
    om = min(position, len(holes))
    holes.insert(om, Hole(centre, radius))
    sphere = sphere_with_holes(holes, omitted_hole=om)
    index = [j for j in range(len(holes)) if j != om]
    fld = FieldSpec(bumps=[RadialBump(complex(bump[0], bump[1]), bump[2], 1.0)],
                    hole_fluxes=[0.0] * len(holes))
    try:
        disc = projected_disc(sphere)
    except ValueError as exc:
        assert abs(centre) > 1e-12
        assert validate_domain(sphere).violations == [str(exc)]
        assert validate_field(fld, sphere) == [str(exc)]
        return
    flat = validate_domain(disc)
    assert validate_domain(sphere).ok == flat.ok
    assert validate_domain(sphere).violations == [_in_config(v, index) for v in flat.violations]
    flat_fld = FieldSpec(bumps=fld.bumps, hole_fluxes=[0.0] * len(index))
    assert validate_field(fld, sphere) == \
        [_in_config(v, index) for v in validate_field(flat_fld, disc)]


def test_sphere_violations_name_config_holes():
    sphere = sphere_with_holes([Hole(0.0, 3.0), Hole(1.0, 0.4), Hole(2.8, 0.4)],
                               omitted_hole=0)
    assert validate_domain(sphere).violations == ["hole 2 not contained"]
    fld = FieldSpec(bumps=[RadialBump(2.0, 0.5, 1.0)], hole_fluxes=[0.0] * 3)
    assert validate_field(fld, sphere) == ["bump 0 support touches hole 2"]
    # an off-centre designated hole is refused at validation, as every command does
    off = sphere_with_holes([Hole(0.5, 3.0), Hole(1.0, 0.4)], omitted_hole=0)
    message = "the designated hole must be an origin-centred circle"
    assert message in validate_domain(off).violations[0]
    with pytest.raises(ValueError, match=message):
        projected_disc(off)
