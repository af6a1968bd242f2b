"""Point orbits in P^3 under the configuration's group, and their certificate.

`orbit_full` enumerates the orbit of a seed by pushing the P^1 parameter of
each line around with the transport classes.  `orbit_geometric` certifies
that report from the lines' Pluecker coordinates and the listed points
alone: it reads no transport class, closure point id or matrix
parametrization.  Together they are the strongest correctness check the
package has.

An orbit is a collinearly complete set: the least set through the seed
that is closed under every projection of a line i onto a line j through a
third line k, which takes a point to the meet of line j with the plane
through the point and line k (Pottmann and Wallner, Computational Line
Geometry, 2001).  The certifier checks that property on the reported
lists: every listed point lies on its line, the seed is the first point of
its carrier, and the breadth-first walk over the projections from the seed
meets only listed points, reaching those of each line in listed order and
all of them.

The transport walk is breadth-first too, and names a point by its line and
its parameter there, since the lines are pairwise skew.  It continues the
closure's point table (groupoid._PointIds): it names parameters by the
closure's integer ids, reads the moves the closure made with each class,
and moves each id by each transport class at most once (Holt, Eick and
O'Brien, Handbook of Computational Group Theory, 2005, section 4.1),
imaging it only by the classes the closure's sift kept; a key hit there
costs one exact product.

The certifier meets each plane once: the plane through a point and a line
k meets every other line j, which is skew to k and so not in the plane, in
one point, and that point spans the same plane with k.  So each point
keeps, for each line k, the member map of its plane through k, one record
shared by the plane's points; the point that makes the record meets the
plane with every other line in its own turn, and a later member skips each
hop through it.  A point confirmed on a second plane through k breaks
this, and the certifier raises RuntimeError.

The certifier files each listed point by the key of the image of its
parameter under Field.reduction(), a ring map onto F_p, and keys each meet
over F_p from the images of the point and of the lines' Pluecker
coordinates, computed once, in integers mod p.  A key proposes and exact arithmetic confirms: a
point filed under the key is the meet when lam.x = 0 on the exact plane
lam, one fused Field._dot.  An undefined image, or a field with no
reduction, leaves the meet unkeyed; only then, or when no point is
confirmed, is the meet formed exactly, normalized and looked up by its
exact key.  Points of P^3 and their P^1 parameters are both
matrices.ProjPoint, with one normalization and one exact key.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache, partial
from typing import Optional, Sequence

from .configs import INF_LABEL, ZERO_LABEL, LineConfig
from .fields import Field, FieldElement, MixedFields, Reduction
from .groupoid import GeneratorSet, GroupClosure, IncompleteClosure
from .matrices import ProjPoint, fixes_point


class SeedNotOnConfiguration(Exception):
    """The seed point lies on none of the configuration's lines."""


class OracleMismatch(RuntimeError):
    """The plane oracle refused a reported orbit: its lists are not the
    orbit of its seed in the order of the walk."""


def p3_from_string(field: Field, text: str) -> ProjPoint:
    """Parse "[x:y:z:w]" (brackets optional) with exact field expressions."""
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    parts = body.split(":")
    if len(parts) != 4:
        raise ValueError("expected four colon-separated coordinates")
    return ProjPoint(*(field.parse(p) for p in parts))


# ---------------------------------------------------------------------------
# lines as Pluecker coordinates

_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _span_rows(cfg: LineConfig, label: str) -> tuple[tuple, tuple]:
    """Two points of P^3 spanning the given line."""
    f = cfg.field
    one, zero = f.one(), f.zero()
    if label == ZERO_LABEL:
        return (one, zero, zero, zero), (zero, one, zero, zero)
    if label == INF_LABEL:
        return (zero, zero, one, zero), (zero, zero, zero, one)
    m = cfg.matrix(label)
    return (one, zero, m.a, m.c), (zero, one, m.b, m.d)


def _plucker(a: tuple, b: tuple) -> tuple:
    """p_ij = a_i b_j - a_j b_i for ij in 01, 02, 03, 12, 13, 23.

    The graph of M = (a b / c d) has (1, b, d, -a, -c, det M); the zero line
    has p_01 = 1 and the infinity line p_23 = 1, all else 0 (Pottmann and
    Wallner, Computational Line Geometry, 2001).
    """
    return tuple(a[i] * b[j] - a[j] * b[i] for i, j in _PAIRS)


# coordinate c of the plane through a point x and a line pl (in the order
# of _PAIRS) is the sum of sign * pl[i] * x[j] over (sign, i, j) in
# _PLANE[c]: the line's dual Pluecker matrix applied to x
_PLANE = (
    ((1, 5, 1), (-1, 4, 2), (1, 3, 3)),
    ((1, 2, 2), (-1, 5, 0), (-1, 1, 3)),
    ((1, 4, 0), (-1, 2, 1), (1, 0, 3)),
    ((1, 1, 1), (-1, 3, 0), (-1, 0, 2)),
)


def _plane(pl: tuple, x: tuple) -> tuple:
    """The plane through the point x and the line pl, each coordinate one
    fused Field._dot of three products.  All four coordinates vanish when
    x is on the line."""
    f = x[0].field
    out = []
    for row in _PLANE:
        ops = []
        for sign, i, j in row:
            a, b = pl[i], x[j]
            ops += (a.nums if sign > 0 else f._neg_nums(a.nums), a.den, b.nums, b.den)
        out.append(FieldElement(f, *f._dot(*ops)))
    return tuple(out)


def _plane_at(pl: tuple, x: tuple) -> tuple:
    """_plane on the images of pl and x: integers, not reduced."""
    p01, p02, p03, p12, p13, p23 = pl
    x0, x1, x2, x3 = x
    return (
        p23 * x1 - p13 * x2 + p12 * x3,
        p03 * x2 - p23 * x0 - p02 * x3,
        p13 * x0 - p03 * x1 + p01 * x3,
        p02 * x1 - p12 * x0 - p01 * x2,
    )


def _dot(u: tuple, v: tuple) -> FieldElement:
    """u . v, one fused Field._dot."""
    f = u[0].field
    ops = []
    for x, y in zip(u, v):
        ops += (x.nums, x.den, y.nums, y.den)
    return FieldElement(f, *f._dot(*ops))


def _meet(span: tuple, lam: tuple) -> tuple:
    """[s : t] with s a + t b the point where the plane lam meets the line
    spanned by a and b.

    (lam.b) a - (lam.a) b lies on both; skewness keeps the line out of the
    plane, so the two dot products never vanish together.
    """
    a, b = span
    return _dot(lam, b), -_dot(lam, a)


def _on_plane(lam: tuple, x: ProjPoint) -> bool:
    """Whether the point x lies on the plane lam: lam.x = 0, one fused
    Field._dot of four products, and no meet."""
    return not _dot(lam, x.coords)


def _reduce(red: Optional[Reduction], xs: tuple) -> Optional[tuple]:
    """The images of the elements xs under red; None with no reduction or
    when an image is undefined."""
    if red is None:
        return None
    images = tuple(red.image(x.nums, x.den) for x in xs)
    return None if None in images else images


def _meet_key(red: Reduction, ab: Optional[tuple], lam: Sequence[int]) -> Optional[tuple]:
    """The key of _meet((a, b), lam) from the images of a + b and of lam:
    the meet formed over F_p.  None when the image of a + b is undefined."""
    if ab is None:
        return None
    p = red.p
    return red.key((sum(map(operator.mul, lam, ab[4:])) % p,
                    -sum(map(operator.mul, lam, ab)) % p))


def point_on_line(cfg: LineConfig, i, v) -> ProjPoint:
    """Embed the P^1 parameter v, a ProjPoint or a pair (x, y), as a point
    of line i in P^3.

    The zero and infinity lines occupy complementary coordinate pairs;
    every other line is the graph (v, M_i v) of its matrix.
    """
    label = str(i)
    x, y = v
    zero = cfg.field.zero()
    if label == ZERO_LABEL and cfg.include_zero:
        return ProjPoint(x, y, zero, zero)
    if label == INF_LABEL and cfg.include_infinity:
        return ProjPoint(zero, zero, x, y)
    mx, my = cfg.matrix(label).apply((x, y))
    return ProjPoint(x, y, mx, my)


def find_carrier(cfg: LineConfig, p: ProjPoint) -> Optional[str]:
    """The label of the first configuration line through p, or None.

    p is on a line exactly when the line's dual Pluecker matrix kills it.
    """
    return next((lab for lab in cfg.labels()
                 if not any(_plane(_plucker(*_span_rows(cfg, lab)), p.coords))),
                None)


def line_parameter(cfg: LineConfig, label: str, p: ProjPoint) -> ProjPoint:
    """The P^1 parameter of a point known to lie on the given line."""
    x, y, z, w = p.coords
    if label == INF_LABEL:
        return ProjPoint(z, w)
    return ProjPoint(x, y)


@dataclass
class OrbitReport:
    """A full orbit grouped by the line each point landed on."""

    seed: ProjPoint
    carrier: str
    total_size: int
    per_line_sizes: dict[str, int]
    stabilizer_order: int
    points: dict[str, list[ProjPoint]]

    def to_json(self) -> dict:
        return {
            "seed": self.seed.to_json(),
            "carrier": self.carrier,
            "total_size": self.total_size,
            "per_line_sizes": dict(self.per_line_sizes),
            "stabilizer_order": self.stabilizer_order,
            "points": {
                lab: [p.to_json() for p in pts]
                for lab, pts in self.points.items()
            },
            # schema 1 carries the key; a walk bounded by the group never truncates
            "truncated": False,
        }


def _hops(labels: list[str], lab: str) -> list[tuple[str, str]]:
    """The (target line j, third line k) of each step from line lab, in order."""
    return [(j, k) for j in labels if j != lab for k in labels if k not in (lab, j)]


def orbit_full(cfg: LineConfig, seed: ProjPoint, closure: GroupClosure,
               gens: GeneratorSet, carrier: Optional[str] = None) -> OrbitReport:
    """Orbit of seed under every transport map, via the matrix path.

    A point with parameter v on line i goes to the point with parameter
    F_ijk v on line j.  The walk visits (line, parameter id) pairs from the
    seed on the closure's point table (groupoid._PointIds).  F_jik =
    F_ijk^-1 is a class of gens whose adjugate is F_ijk up to a scalar, so
    a hop reads the moves the closure made with F_jik, and forms only a
    move they lack (groupoid._Moves: composed for a class the closure's
    sift derived, else imaged); that move m of n is also filed as the move
    of F_ijk that takes m back to n.  So each class maps each id at most
    once, and an F_{i,j,inf} = 1 hop keeps the id.  Each placed id becomes a
    ProjPoint once, and each (line, id) one P^3 point.  The transport
    classes are read from the provenance of gens, an all_triples generator
    set, and the closure gives the stabilizer count and the orbit bound,
    |G| / |Stab(v0)| points a line; an incomplete closure is refused.
    carrier, when given, must be find_carrier's label for the seed.
    """
    if gens.mode != "all_triples":
        raise ValueError("orbit_full reads every F_ijk: it needs an all_triples set")
    cfg.require_valid()
    if seed.field.spec != cfg.field.spec:
        raise MixedFields("seed lies over a different field")
    if carrier is None:
        carrier = find_carrier(cfg, seed)
    if carrier is None:
        raise SeedNotOnConfiguration(f"{seed!r} is on no line of the configuration")
    if closure.budget_hit:
        raise IncompleteClosure("orbit sizes and stabilizers need the complete group")
    f, ids = cfg.field, closure.points
    transport = {t: g for g, triples in gens.provenance.items() for t in triples}

    def hop(i: str, j: str, k: str) -> Optional[tuple]:
        """The moves of F_jik and of its inverse F_ijk; None for
        F_{i,j,inf} = 1."""
        g = transport[j, i, k]
        if g.is_identity():
            return None
        return ids.moves(g), ids.moves(transport[i, j, k]).made

    labels = cfg.labels()
    hops = {lab: [(j, hop(lab, j, k)) for j, k in _hops(labels, lab)]
            for lab in labels}
    v0 = line_parameter(cfg, carrier, seed)
    n0 = ids.intern(*((x.nums, x.den) for x in v0.coords))
    stab = sum(1 for g in closure.elements if fixes_point(g, v0))
    bound = closure.order // stab
    params = {n0: v0}  # each placed id's parameter, built once
    placed = {lab: {} for lab in labels}  # for each line, parameter id -> point
    placed[carrier][n0] = seed
    queue = [(carrier, n0)]
    for lab, n in queue:  # the queue grows while it is read
        for j, move in hops[lab]:
            m = n
            if move is not None:
                moves, back = move
                m = moves.made.get(n)
                if m is None:
                    m = moves[n]
                    back.setdefault(m, n)
            line = placed[j]
            if m not in line:
                if len(line) >= bound:
                    # each point has parameter g v0 for some g in G
                    raise RuntimeError(
                        f"line {j} reached more than |G|/|Stab| = {bound} orbit points")
                v = params.get(m)
                if v is None:
                    v = params[m] = ProjPoint(*(FieldElement(f, *c) for c in ids.points[m]))
                line[m] = point_on_line(cfg, j, v)
                queue.append((j, m))
    points = {lab: list(line.values()) for lab, line in placed.items()}
    return OrbitReport(seed=seed, carrier=carrier,
                       total_size=sum(map(len, points.values())),
                       per_line_sizes={lab: len(pts) for lab, pts in points.items()},
                       stabilizer_order=stab, points=points)


class _LinePoints:
    """The listed points of one line by place, each known by its parameter:
    the spanning points a and b of _span_rows have a_i = b_j = 1 and a_j =
    b_i = 0 where each is first nonzero, at i and j, so the point s a + t b
    has [s : t] there, with a leading 1 when the point is normalized.
    buckets files each place under the key of its parameter's image, None
    where it has none; exact, formed on first use, under the exact key of
    its parameter.  Both name the first place of a point listed twice."""

    __slots__ = ("points", "span", "ij", "buckets", "exact")

    def __init__(self, points: list[ProjPoint], images: list[Optional[tuple]],
                 span: tuple, red: Optional[Reduction]):
        self.points, self.span, self.exact = points, span, None
        i, j = self.ij = tuple(next(c for c, x in enumerate(v) if x) for v in span)
        self.buckets: dict[Optional[tuple], list[int]] = {}
        for m, x in enumerate(images):
            key = None if x is None else red.key((x[i], x[j]))
            self.buckets.setdefault(key, []).append(m)

    def holds(self, key: tuple, plane) -> Optional[int]:
        """The place of a point filed under key that lies on the candidate's
        exact plane, plane(), or None."""
        for m in self.buckets.get(key, ()):
            if _on_plane(plane(), self.points[m]):
                return m
        return None

    def meets(self, lam: tuple) -> Optional[int]:
        """The place of the point where the exact plane lam meets the line,
        or None: their meet (_meet), normalized, looked up by its key."""
        if self.exact is None:
            i, j = self.ij
            self.exact = {}
            for m, p in enumerate(self.points):
                self.exact.setdefault(ProjPoint(p.coords[i], p.coords[j]).key(), m)
        return self.exact.get(ProjPoint(*_meet(self.span, lam)).key())


def orbit_geometric(cfg: LineConfig, report: OrbitReport) -> OrbitReport:
    """Certify that report lists the orbit of its seed, line by line in the
    order of the walk, and return it; raise OracleMismatch otherwise.

    It reads the lines' Pluecker coordinates and the listed points alone,
    and checks:
    0. every listed point lies on its line: its plane with the line
       vanishes;
    1. the seed is the first point of its carrier;
    2. from each point reached, each hop (j, k): the plane through the
       point and line k meets line j at a listed point.  The plane's image
       under Field.reduction() keys the meet over F_p (_meet_key), and a
       point filed under that key is confirmed by lam.x = 0 on the exact
       plane (_LinePoints.holds).  With no key, or no point confirmed, the
       meet is formed exactly and looked up by its parameter
       (_LinePoints.meets);
    3. the first reach of each line is always the next entry of its list,
       and the walk reaches every listed point.
    Steps 1 and 2 make the points reached the least set through the seed
    closed under every projection, which is its orbit; step 3 makes that
    set the lists, in order, and leaves the second place of a point listed
    twice unreached.  A point makes its plane through each line k no
    earlier point put it on, and a hop through a plane an earlier point
    made is skipped: its member on line j is known.  A point confirmed on
    a second plane through k raises RuntimeError.
    """
    cfg.require_valid()
    labels, points = cfg.labels(), report.points
    if list(points) != labels:
        raise OracleMismatch(f"the report lists lines {list(points)}, not {labels}")
    spans = {lab: _span_rows(cfg, lab) for lab in labels}
    pluckers = {lab: _plucker(*spans[lab]) for lab in labels}
    red = cfg.field.reduction()
    plucker_images = {lab: _reduce(red, pl) for lab, pl in pluckers.items()}
    span_images = {lab: _reduce(red, a + b) for lab, (a, b) in spans.items()}
    images, lines = {}, {}
    for lab, pts in points.items():
        for m, p in enumerate(pts):
            if any(_plane(pluckers[lab], p.coords)):
                raise OracleMismatch(f"point {m} of line {lab} is not on it")
        images[lab] = [_reduce(red, p.coords) for p in pts]
        lines[lab] = _LinePoints(pts, images[lab], spans[lab], red)
    carrier = report.carrier
    if not points.get(carrier) or points[carrier][0] != report.seed:
        raise OracleMismatch(f"the seed is not the first point of line {carrier}")
    reached = dict.fromkeys(labels, 0)  # how many places of each line are reached
    reached[carrier] = 1
    planes = {lab: [{} for _ in pts] for lab, pts in points.items()}
    queue = [(carrier, 0)]
    for lab, n in queue:  # the queue grows while it is read
        # p makes its plane through each line k no earlier point put it on;
        # lams holds the images of the planes it makes
        p, image = points[lab][n], images[lab][n]
        mine, lams = planes[lab][n], {}
        for k in labels:
            if k != lab and k not in mine:
                mine[k] = {lab: n}
                lams[k] = None if image is None or plucker_images[k] is None \
                    else _plane_at(plucker_images[k], image)
        # the exact planes p makes, each formed on demand and once
        plane = cache(lambda k, x=p.coords: _plane(pluckers[k], x))
        for j, k in _hops(labels, lab):
            members = mine[k]
            if j in members:  # the plane meets line j at that member alone
                continue
            line, lam, exact = lines[j], lams[k], partial(plane, k)
            key = None if lam is None else _meet_key(red, span_images[j], lam)
            hit = None if key is None else line.holds(key, exact)
            if hit is None:
                hit = line.meets(exact())
            if hit is None:
                raise OracleMismatch(f"the plane through point {n} of line {lab} "
                                     f"and line {k} meets line {j} at no listed point")
            if hit > reached[j]:
                raise OracleMismatch(f"the walk reaches point {hit} of line {j} "
                                     f"before point {reached[j]}")
            if hit == reached[j]:
                reached[j] += 1
                queue.append((j, hit))
            elif k in planes[j][hit]:
                raise RuntimeError(
                    f"a point of line {j} lies on two planes through line {k}")
            members[j] = hit
            planes[j][hit][k] = members
    for lab, pts in points.items():
        if reached[lab] < len(pts):
            raise OracleMismatch(f"point {reached[lab]} of line {lab} is not "
                                 "in the orbit of the seed")
    return report
