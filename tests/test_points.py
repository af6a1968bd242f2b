"""ProjPoint, the one point type of P^1 and P^3, against the separate point
classes it replaced.

_P1Point, _P3Point, _normalized and _exact_key below are the earlier P^1
point, P^3 point, pair normalization and pair key, kept as references with
their scaling, keys and encodings unchanged: the merged class must give the
same coordinates, key, JSON and repr.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skewlines.fields import (
    MixedFields,
    cyclotomic_field,
    extension_field,
    prime_field,
    rational_field,
)
from skewlines.matrices import ProjPoint, ZeroVector

# ---------------------------------------------------------------------------
# the reference implementations


class _P1Point:
    """A point of P^1 as a canonical pair [x : y], first nonzero entry 1."""

    __slots__ = ("x", "y", "field")

    def __init__(self, x, y):
        field = x.field
        if not x and not y:
            raise ZeroVector("[0 : 0] is not a point")
        if x:
            inv = x.inv()
            x, y = field.one(), y * inv
        else:
            y = field.one()
        self.x, self.y, self.field = x, y, field

    def key(self) -> tuple:
        return (self.x.sort_key(), self.y.sort_key())

    def to_json(self) -> list:
        return [self.x.to_json(), self.y.to_json()]

    def __repr__(self):
        return f"[{self.x!r} : {self.y!r}]"


class _P3Point:
    """A point of P^3 scaled so its first nonzero coordinate is 1."""

    __slots__ = ("coords",)

    def __init__(self, x, y, z, w):
        coords = (x, y, z, w)
        lead = next((c for c in coords if not c.is_zero()), None)
        if lead is None:
            raise ValueError("a projective point needs a nonzero coordinate")
        if not lead.is_one():
            scale = lead.inv()
            coords = tuple(scale * c for c in coords)
        self.coords = coords

    def key(self) -> tuple:
        return tuple(c.sort_key() for c in self.coords)

    def to_json(self) -> list:
        return [c.to_json() for c in self.coords]

    def __repr__(self):
        return "[" + " : ".join(repr(c) for c in self.coords) + "]"


def _normalized(s, t) -> tuple:
    """The pair [s : t] scaled so that its first nonzero entry is exactly 1,
    with at most one inversion (ProjPoint's normalization)."""
    if not s:
        return s, t.field.one()
    if s.is_one():
        return s, t
    return s.field.one(), t * s.inv()


def _exact_key(v: tuple) -> tuple:
    x, y = v
    return x.sort_key(), y.sort_key()


# ---------------------------------------------------------------------------
# random points with leading zeros over five fields

FIELDS = {
    "F5": prime_field(5),
    "F25": extension_field(prime_field(5), [-2, 0, 1]),
    "Q": rational_field(),
    "Q(sqrt2)": extension_field(rational_field(), [-2, 0, 1]),
    "Q(zeta12)": cyclotomic_field(12),
}


def _element(f, coeffs, den):
    z = f.gen() if f.degree > 1 else None
    out = f.zero()
    for i, c in enumerate(coeffs[:f.degree]):
        out = out + (f.from_int(c) if i == 0 else c * z ** i)
    return out * f.from_fraction(Fraction(1, den))


@st.composite
def _elements(draw, f, nonzero=False):
    # denominators 1..3 are units in every field here, F_5 included
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=f.degree, max_size=f.degree))
    x = _element(f, coeffs, draw(st.integers(1, 3)))
    if nonzero:
        assume(x)
    return x


@st.composite
def _points(draw, dim):
    """(field, coordinates, a nonzero scalar): the first coordinates zero,
    the rest random, and not all of them zero."""
    f = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    lead = draw(st.integers(0, dim - 1))
    coords = [f.zero()] * lead + [draw(_elements(f)) for _ in range(dim - lead)]
    assume(any(coords))
    return f, tuple(coords), draw(_elements(f, nonzero=True))


def _same_point(p, ref):
    assert [c.sort_key() for c in p.coords] == [c.sort_key() for c in ref.coords]
    assert p.key() == ref.key()
    assert p.to_json() == ref.to_json()
    assert repr(p) == repr(ref)


@given(_points(2))
@settings(max_examples=150, deadline=None)
def test_p1_points_match_the_earlier_p1_point_and_pair_normalization(case):
    f, coords, lam = case
    p = ProjPoint(*coords)
    ref = _P1Point(*coords)
    assert p.field is f
    assert [c.sort_key() for c in p.coords] == [ref.x.sort_key(), ref.y.sort_key()]
    assert p.key() == ref.key() == _exact_key(_normalized(*coords))
    assert p.to_json() == ref.to_json()
    assert repr(p) == repr(ref)
    scaled = ProjPoint(*(lam * c for c in coords))
    assert scaled == p and hash(scaled) == hash(p)
    assert scaled.key() == p.key()


@given(_points(4))
@settings(max_examples=150, deadline=None)
def test_p3_points_match_the_earlier_p3_point(case):
    f, coords, lam = case
    p = ProjPoint(*coords)
    _same_point(p, _P3Point(*coords))
    scaled = ProjPoint(*(lam * c for c in coords))
    _same_point(scaled, _P3Point(*coords))
    assert scaled == p and hash(scaled) == hash(p)
    assert tuple(p) == p.coords


@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize("dim", [2, 4])
def test_the_zero_vector_is_no_point(name, dim):
    zero = FIELDS[name].zero()
    with pytest.raises(ZeroVector):
        ProjPoint(*([zero] * dim))
    # a zero seed is malformed input, as the earlier P^3 point's ValueError was
    assert issubclass(ZeroVector, ValueError)


def test_points_of_different_dimensions_or_fields_differ():
    Q, F5 = FIELDS["Q"], FIELDS["F5"]
    one, zero = Q.one(), Q.zero()
    assert ProjPoint(one, zero) != ProjPoint(one, zero, zero, zero)
    assert ProjPoint(one, zero) != ProjPoint(F5.one(), F5.zero())
    with pytest.raises(MixedFields):
        ProjPoint(one, F5.zero())
