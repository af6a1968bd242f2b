"""2x2 matrices over an exact field, canonical PGL2 representatives, points of
P^1, and eigenvalue/eigenvector extraction that never leaves the field.

Projective classes are deduplicated by a canonical representative whose first
nonzero entry (row-major) is 1; that single convention makes closure
enumeration a plain hash-set walk.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .fields import Field, FieldElement, MixedFields, UnsupportedField


class SingularMatrix(Exception):
    """A nonsingular matrix was required."""


class ZeroMatrix(Exception):
    """The zero matrix has no projective class."""


class ZeroVector(Exception):
    """The zero vector names no point of P^1 or P^3."""


def _same_field(*elts: FieldElement) -> Field:
    f = elts[0].field
    for e in elts[1:]:
        if e.field is not f and e.field.spec != f.spec:
            raise MixedFields("matrix entries lie in different fields")
    return f


class Mat2:
    """An immutable 2x2 matrix (a b / c d) over one field."""

    __slots__ = ("a", "b", "c", "d", "field")

    def __init__(self, a: FieldElement, b: FieldElement,
                 c: FieldElement, d: FieldElement):
        self.field = _same_field(a, b, c, d)
        self.a, self.b, self.c, self.d = a, b, c, d

    # -- constructors

    @staticmethod
    def from_rows(field: Field, rows: Sequence[Sequence]) -> "Mat2":
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("expected a 2x2 entry grid")
        ents = []
        for row in rows:
            for e in row:
                if isinstance(e, FieldElement):
                    if e.field.spec != field.spec:
                        raise MixedFields("entry from a different field")
                    ents.append(e)
                else:
                    ents.append(field.element_from_json(e))
        return Mat2(*ents)

    @staticmethod
    def identity(field: Field) -> "Mat2":
        one, zero = field.one(), field.zero()
        return Mat2(one, zero, zero, one)

    @staticmethod
    def zero(field: Field) -> "Mat2":
        z = field.zero()
        return Mat2(z, z, z, z)

    @staticmethod
    def diag(x: FieldElement, y: FieldElement) -> "Mat2":
        zero = x.field.zero()
        return Mat2(x, zero, zero, y)

    # -- scalar-valued maps

    def det(self) -> FieldElement:
        return self.a * self.d - self.b * self.c

    def trace(self) -> FieldElement:
        return self.a + self.d

    def discriminant(self) -> FieldElement:
        """tr^2 - 4 det, formed as (a - d)^2 + 4bc."""
        diff = self.a - self.d
        return diff * diff + 4 * (self.b * self.c)

    def entries(self) -> tuple[FieldElement, FieldElement, FieldElement, FieldElement]:
        return (self.a, self.b, self.c, self.d)

    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.d)

    def is_scalar(self) -> bool:
        return (not self.b) and (not self.c) and self.a == self.d

    def is_identity(self) -> bool:
        one = self.field.one()
        return self.a == one and self.d == one and not self.b and not self.c

    # -- algebra

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a + other.a, self.b + other.b,
                    self.c + other.c, self.d + other.d)

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a - other.a, self.b - other.b,
                    self.c - other.c, self.d - other.d)

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        if isinstance(other, Mat2):
            return Mat2(
                self.a * other.a + self.b * other.c,
                self.a * other.b + self.b * other.d,
                self.c * other.a + self.d * other.c,
                self.c * other.b + self.d * other.d,
            )
        if isinstance(other, (FieldElement, int)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (FieldElement, int)):
            return self.scale(other)
        return NotImplemented

    def scale(self, s) -> "Mat2":
        if isinstance(s, int):
            s = self.field.from_int(s)
        return Mat2(s * self.a, s * self.b, s * self.c, s * self.d)

    def adjugate(self) -> "Mat2":
        return Mat2(self.d, -self.b, -self.c, self.a)

    def inv(self) -> "Mat2":
        det = self.det()
        if not det:
            raise SingularMatrix("matrix has determinant 0")
        return self.adjugate().scale(det.inv())

    def __pow__(self, n: int) -> "Mat2":
        if n < 0:
            return self.inv() ** (-n)
        out = Mat2.identity(self.field)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def apply(self, v: tuple[FieldElement, FieldElement]):
        x, y = v
        return (self.a * x + self.b * y, self.c * x + self.d * y)

    # -- identity & encoding

    def key(self) -> tuple:
        return (self.a.sort_key(), self.b.sort_key(),
                self.c.sort_key(), self.d.sort_key())

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return ((self.field is other.field or self.field.spec == other.field.spec)
                and self.key() == other.key())

    def __hash__(self):
        return hash(self.key())

    def to_json(self) -> list:
        return [[self.a.to_json(), self.b.to_json()],
                [self.c.to_json(), self.d.to_json()]]

    @staticmethod
    def from_json(field: Field, obj) -> "Mat2":
        return Mat2.from_rows(field, obj)

    def __repr__(self):
        return f"[[{self.a!r}, {self.b!r}], [{self.c!r}, {self.d!r}]]"


def commutator(x: Mat2, y: Mat2) -> Mat2:
    """x*y - y*x."""
    return x * y - y * x


class ProjPoint:
    """A point of P^1 as a canonical pair [x : y], first nonzero entry 1."""

    __slots__ = ("x", "y", "field")

    def __init__(self, x: FieldElement, y: FieldElement):
        field = _same_field(x, y)
        if not x and not y:
            raise ZeroVector("[0 : 0] is not a point")
        if x:
            inv = x.inv()
            x, y = field.one(), y * inv
        else:
            y = field.one()
        self.x, self.y, self.field = x, y, field

    @staticmethod
    def from_pair(field: Field, x, y) -> "ProjPoint":
        return ProjPoint(field.element_from_json(x) if not isinstance(x, FieldElement) else x,
                         field.element_from_json(y) if not isinstance(y, FieldElement) else y)

    def key(self) -> tuple:
        return (self.x.sort_key(), self.y.sort_key())

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.field.spec == other.field.spec and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __iter__(self):
        return iter((self.x, self.y))

    def to_json(self) -> list:
        return [self.x.to_json(), self.y.to_json()]

    def __repr__(self):
        return f"[{self.x!r} : {self.y!r}]"


class ProjElem:
    """An element of PGL2: a nonsingular Mat2 scaled so its first nonzero
    entry (row-major) is 1.  Hash/equality use that canonical form."""

    __slots__ = ("rep",)

    def __init__(self, rep: Mat2):
        # trusted constructor: rep must already be canonical (use proj_normalize)
        self.rep = rep

    @property
    def field(self) -> Field:
        return self.rep.field

    def is_identity(self) -> bool:
        return self.rep.is_identity()

    def __mul__(self, other: "ProjElem") -> "ProjElem":
        if not isinstance(other, ProjElem):
            return NotImplemented
        if self.field is not other.field and self.field.spec != other.field.spec:
            raise MixedFields("cannot compose classes over different fields")
        return proj_normalize(self.rep * other.rep)

    def inv(self) -> "ProjElem":
        # the adjugate is det * inverse — the same projective class, no division
        return proj_normalize(self.rep.adjugate())

    def __pow__(self, n: int) -> "ProjElem":
        if n < 0:
            return self.inv() ** (-n)
        out = proj_identity(self.field)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def key(self) -> tuple:
        return self.rep.key()

    def __eq__(self, other):
        if not isinstance(other, ProjElem):
            return NotImplemented
        return ((self.field is other.field or self.field.spec == other.field.spec)
                and self.rep.key() == other.rep.key())

    def __hash__(self):
        return hash(self.rep.key())

    def to_json(self) -> list:
        return self.rep.to_json()

    def __repr__(self):
        return f"<{self.rep!r}>"


def proj_normalize(m: Mat2) -> ProjElem:
    """Canonical PGL2 representative: divide by the first nonzero entry."""
    if m.is_zero():
        raise ZeroMatrix("the zero matrix has no projective class")
    if not m.det():
        raise SingularMatrix("singular matrix does not lie in PGL2")
    for lead in m.entries():
        if lead:
            break
    if lead == m.field.one():
        return ProjElem(m)
    s = lead.inv()
    return ProjElem(m.scale(s))


def proj_identity(field: Field) -> ProjElem:
    return ProjElem(Mat2.identity(field))


def proj_order(g: ProjElem, bound: int = 120) -> Optional[int]:
    """Least n <= bound with g^n = identity in PGL2, or None."""
    x = g
    for n in range(1, bound + 1):
        if x.is_identity():
            return n
        x = x * g
    return None


def moebius_apply(g: ProjElem, p: ProjPoint) -> ProjPoint:
    if g.field.spec != p.field.spec:
        raise MixedFields("element and point lie over different fields")
    x, y = g.rep.apply((p.x, p.y))
    return ProjPoint(x, y)


def fixes_point(g: ProjElem, p) -> bool:
    """Whether g fixes p, decided without the inversion moebius_apply pays.

    With g = (a b / c d), g.[x:y] = [ax + by : cx + dy] equals [x:y] exactly
    when (ax + by) y - (cx + dy) x = 0, that is c x^2 + (d - a) x y - b y^2 = 0.
    The test is homogeneous, so p may be a ProjPoint or any nonzero pair
    (x, y) representing it.
    """
    m = g.rep
    x, y = p
    return (m.c * x + (m.d - m.a) * y) * x == m.b * y * y


def _kernel_line(m: Mat2) -> ProjPoint:
    """A nonzero kernel vector of a singular, nonzero 2x2 matrix."""
    if m.a or m.b:
        return ProjPoint(m.b, -m.a)
    return ProjPoint(m.d, -m.c)


def eigenvectors(m: Mat2) -> Optional[list[tuple[FieldElement, ProjPoint]]]:
    """The (eigenvalue, eigenline) pairs of m with eigenvalue in its own
    field, sorted by eigenvalue.

    [] means the characteristic polynomial provably has no root in the
    field; None means that could not be settled: Field.sqrt cannot decide
    the discriminant (a non-rational one in a cubic or degree >= 4
    extension of Q), or the field has characteristic 2 and more than 10^4
    elements.  In characteristic 2 the eigenvalues are found by trying
    every element, since there is no halving, so that scan keeps its cap.
    A scalar matrix, whose every line is an eigenline, gets the two
    coordinate lines.
    """
    f = m.field
    if m.is_scalar():
        return [(m.a, ProjPoint(f.one(), f.zero())),
                (m.a, ProjPoint(f.zero(), f.one()))]

    def line_for(lam: FieldElement) -> ProjPoint:
        return _kernel_line(m - Mat2.identity(f).scale(lam))

    if not m.c or not m.b:
        # triangular: eigenvalues sit on the diagonal
        lams = [m.a] if m.a == m.d else [m.a, m.d]
    elif f.characteristic == 2:
        # no halving in characteristic 2: try every element of a small field
        if not (f.is_finite and f.size <= 10**4):
            return None
        lams = [lam for lam in f.elements()
                if (m - Mat2.identity(f).scale(lam)).det() == f.zero()]
    else:
        tr = m.trace()
        try:
            w = f.sqrt(m.discriminant())
        except UnsupportedField:
            return None
        if w is None:
            return []
        half = f.from_int(2).inv()
        lams = [(tr + w) * half, (tr - w) * half] if w else [tr * half]
    return sorted(((lam, line_for(lam)) for lam in lams),
                  key=lambda t: t[0].sort_key())
