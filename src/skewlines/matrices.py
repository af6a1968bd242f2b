"""2x2 matrices over an exact field, canonical PGL2 representatives, points of
P^1 and P^3, and eigenvalue/eigenvector extraction that never leaves the field.

Projective classes and points are deduplicated by a canonical representative
whose first nonzero entry (row-major) is 1; that single convention makes
closure enumeration and orbit walks plain hash-set walks.  ProjPoint is the
one point type, of any dimension: a parameter [x : y] on a line and a point
[x : y : z : w] of P^3 share its constructor, key and encoding.

Every 2x2 product, of Mat2s or of ProjElems, forms each entry as one fused
Field._dot on the raw (nums, den) coefficient tuples.  One routine,
_canonical, turns raw entries into a class.  The zero and determinant checks
live in proj_normalize alone, for matrices from outside; a product or
adjugate of classes is nonsingular already and goes to _canonical directly,
as do the transport maps built from validated differences (proj_class).
"""

from __future__ import annotations

from typing import Optional, Sequence

from .fields import Field, FieldElement, MixedFields, UnsupportedField


class SingularMatrix(Exception):
    """A nonsingular matrix was required."""


class ZeroMatrix(Exception):
    """The zero matrix has no projective class."""


class ZeroVector(ValueError):
    """The zero vector names no point of P^1 or P^3."""


def _same_field(*elts: FieldElement) -> Field:
    f = elts[0].field
    for e in elts[1:]:
        if e.field is not f and e.field.spec != f.spec:
            raise MixedFields("entries lie in different fields")
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
        return self.a.is_one() and self.d.is_one() and not self.b and not self.c

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
            f = self.field
            return Mat2(*(FieldElement(f, n, d) for n, d in _product(self, other)))
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

    def apply(self, v) -> tuple[FieldElement, FieldElement]:
        """The image (ax + by, cx + dy) of the pair v = (x, y), each entry
        one fused Field._dot."""
        x, y = v
        f = _same_field(self.a, x, y)
        dot = f._dot
        a, b, c, d = self.a, self.b, self.c, self.d
        return (FieldElement(f, *dot(a.nums, a.den, x.nums, x.den,
                                     b.nums, b.den, y.nums, y.den)),
                FieldElement(f, *dot(c.nums, c.den, x.nums, x.den,
                                     d.nums, d.den, y.nums, y.den)))

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

    def __repr__(self):
        return f"[[{self.a!r}, {self.b!r}], [{self.c!r}, {self.d!r}]]"


def commutator(x: Mat2, y: Mat2) -> Mat2:
    """x*y - y*x."""
    return x * y - y * x


class ProjPoint:
    """A point of projective space by its coordinates, scaled so that the
    first nonzero one is exactly 1: [x : y] on P^1, [x : y : z : w] on P^3.
    Hash and equality use that canonical form."""

    __slots__ = ("coords", "field")

    def __init__(self, *coords: FieldElement):
        field = _same_field(*coords)
        for i, lead in enumerate(coords):
            if lead:
                break
        else:
            raise ZeroVector("the zero vector is not a point")
        if not lead.is_one():
            # the lead becomes 1; only the entries after it are scaled, by
            # one inversion, and a last lead needs none
            tail = coords[i + 1:]
            if tail:
                inv = lead.inv()
                tail = tuple([c * inv for c in tail])
            coords = coords[:i] + (field.one(),) + tail
        self.coords, self.field = coords, field

    def key(self) -> tuple:
        return tuple([c.sort_key() for c in self.coords])

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.field.spec == other.field.spec and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __iter__(self):
        return iter(self.coords)

    def to_json(self) -> list:
        return [c.to_json() for c in self.coords]

    def __repr__(self):
        return "[" + " : ".join([repr(c) for c in self.coords]) + "]"


class ProjElem:
    """An element of PGL2: a nonsingular Mat2 scaled so its first nonzero
    entry (row-major) is 1.  Hash/equality use that canonical form, whose
    key is formed once, on first use."""

    __slots__ = ("rep", "_key")

    def __init__(self, rep: Mat2):
        # trusted constructor: rep must already be canonical (use proj_normalize)
        self.rep = rep
        self._key = None

    @property
    def field(self) -> Field:
        return self.rep.field

    def is_identity(self) -> bool:
        return self.rep.is_identity()

    def __mul__(self, other: "ProjElem") -> "ProjElem":
        # a product of nonsingular classes is nonsingular: no determinant
        if not isinstance(other, ProjElem):
            return NotImplemented
        return _canonical(self.field, _product(self.rep, other.rep))

    def inv(self) -> "ProjElem":
        # the adjugate is det * inverse — the same projective class, no division
        return proj_class(self.rep.adjugate())

    def key(self) -> tuple:
        key = self._key
        if key is None:
            key = self._key = self.rep.key()
        return key

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, ProjElem):
            return NotImplemented
        return ((self.field is other.field or self.field.spec == other.field.spec)
                and self.key() == other.key())

    def __hash__(self):
        return hash(self.key())

    def to_json(self) -> list:
        return self.rep.to_json()

    def __repr__(self):
        return f"<{self.rep!r}>"


def _entries(m: Mat2) -> tuple:
    """The raw (nums, den) entries of m, row-major."""
    a, b, c, d = m.a, m.b, m.c, m.d
    return ((a.nums, a.den), (b.nums, b.den), (c.nums, c.den), (d.nums, d.den))


def _product(x: Mat2, y: Mat2) -> tuple:
    """The raw (nums, den) entries of x*y, row-major, each from one Field._dot."""
    f = x.field
    if y.field is not f and y.field.spec != f.spec:
        raise MixedFields("matrix factors lie in different fields")
    a, b, c, d = x.a, x.b, x.c, x.d
    A, B, C, D = y.a, y.b, y.c, y.d
    dot = f._dot
    return (dot(a.nums, a.den, A.nums, A.den, b.nums, b.den, C.nums, C.den),
            dot(a.nums, a.den, B.nums, B.den, b.nums, b.den, D.nums, D.den),
            dot(c.nums, c.den, A.nums, A.den, d.nums, d.den, C.nums, C.den),
            dot(c.nums, c.den, B.nums, B.den, d.nums, d.den, D.nums, D.den))


def _commutation(x: Mat2, y: Mat2) -> int:
    """1 when xy = yx, -1 when xy = -yx, else 0, from the raw entries of
    both products.  xy and yx have one determinant, so [xy] = [yx] means
    xy = l yx with l^2 = 1: the classes commute exactly when this is
    nonzero."""
    xy, yx = _product(x, y), _product(y, x)
    if xy == yx:
        return 1
    neg = x.field._neg_nums
    return -1 if xy == tuple((neg(n), d) for n, d in yx) else 0


def _canonical(f: Field, ents: tuple) -> ProjElem:
    """The class of a nonzero matrix from its raw (nums, den) entries,
    row-major: the first nonzero entry becomes exactly one and the later ones
    are scaled by its Field._inv.  The one canonicalization of PGL2."""
    i = 0
    while not any(ents[i][0]):
        i += 1
    nums, den = ents[i]
    if den != 1 or nums[0] != 1 or any(nums[1:]):
        inv_n, inv_d = f._inv(nums, den)
        mul = f._mul
        one = ((1,) + (0,) * (f.degree - 1), 1)
        ents = ents[:i] + (one,) + tuple(
            mul(n, d, inv_n, inv_d) if any(n) else (n, d) for n, d in ents[i + 1:])
    return ProjElem(Mat2(*(FieldElement(f, n, d) for n, d in ents)))


def proj_class(m: Mat2) -> ProjElem:
    """Canonical PGL2 representative of a matrix already known to be
    nonsingular, such as an adjugate or a product of nonsingular matrices:
    proj_normalize without its zero and determinant checks."""
    return _canonical(m.field, _entries(m))


def proj_normalize(m: Mat2) -> ProjElem:
    """Canonical PGL2 representative: divide by the first nonzero entry.

    The matrix is checked first, so untrusted input cannot yield a class.
    """
    if m.is_zero():
        raise ZeroMatrix("the zero matrix has no projective class")
    if not m.det():
        raise SingularMatrix("singular matrix does not lie in PGL2")
    return proj_class(m)


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
    return ProjPoint(*g.rep.apply(p.coords))


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


def _char2_eigenvalues(t: FieldElement, det: FieldElement) -> list[FieldElement]:
    """The roots in F_q, q = 2^k, of lam^2 + t lam + det.

    With t = 0 the one root is the square root det^(q/2).  Otherwise
    lam = t mu turns the polynomial into mu^2 + mu = c, c = det / t^2, which
    has a root exactly when the absolute trace Tr(c) is 0, and then the two
    roots mu and mu + 1.  For delta with Tr(delta) = 1,
        mu = sum_{i=1}^{k-1} (delta + delta^2 + ... + delta^(2^(i-1))) c^(2^i)
    satisfies mu^2 + mu = c + delta Tr(c): squaring shifts every power up
    one step, and the telescoped sums leave delta Tr(c).  So a root is
    found or refuted with O(k) products.  For odd k, delta = 1 and mu is
    the half-trace of c whenever Tr(c) = 0; for even k, delta is the first
    power-basis element of trace one, which exists because the trace is a
    nonzero linear form and Tr(1) = k = 0.
    """
    f = t.field
    if not t:
        return [det ** (f.size // 2)]
    c = det * (t * t).inv()
    delta = f.one()
    if f.degree % 2 == 0:
        delta = next(x for x in (f.gen() ** j for j in range(1, f.degree))
                     if _abs_trace(x))
    mu, partial, delta_pow, c_pow = f.zero(), f.zero(), delta, c
    for _ in range(1, f.degree):
        partial = partial + delta_pow
        delta_pow, c_pow = delta_pow * delta_pow, c_pow * c_pow
        mu = mu + partial * c_pow
    if mu * mu + mu != c:
        return []  # Tr(c) = 1: no root in the field
    return [t * mu, t * (mu + 1)]


def _abs_trace(x: FieldElement) -> FieldElement:
    """x + x^2 + x^4 + ... + x^(2^(k-1)), which lies in F_2, over F_(2^k)."""
    out, y = x, x
    for _ in range(1, x.field.degree):
        y = y * y
        out = out + y
    return out


def eigenvectors(m: Mat2) -> Optional[list[tuple[FieldElement, ProjPoint]]]:
    """The (eigenvalue, eigenline) pairs of m with eigenvalue in its own
    field, sorted by eigenvalue.

    [] means the characteristic polynomial provably has no root in the
    field; None means that could not be settled: Field.sqrt cannot decide
    the discriminant (a non-rational one in a cubic or degree >= 4
    extension of Q).  Characteristic 2 has no halving, so there the roots
    come from a trace formula instead (see _char2_eigenvalues).
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
        lams = _char2_eigenvalues(m.trace(), m.det())
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
