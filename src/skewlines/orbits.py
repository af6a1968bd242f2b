"""Point orbits in P^3 under the configuration's group.

Two independent enumerations of the same orbit: `orbit_full` pushes the
P^1 parameter of each line around with the transport classes, while
`orbit_geometric` re-derives every step from scratch as "span a plane
through the point and one line, intersect it with another" — pure linear
algebra in four coordinates.  Agreement between them is the strongest
correctness check the package has.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from .configs import INF_LABEL, ZERO_LABEL, LineConfig
from .fields import Field, FieldElement, MixedFields
from .groupoid import (
    GroupClosure,
    IncompleteClosure,
    generator,
    generator_set,
    group_closure,
)
from .matrices import ProjPoint, fixes_point, moebius_apply


class SeedNotOnConfiguration(Exception):
    """The seed point lies on none of the configuration's lines."""


class P3Point:
    """A point of P^3 scaled so its first nonzero coordinate is 1."""

    __slots__ = ("coords",)

    def __init__(self, x: FieldElement, y: FieldElement,
                 z: FieldElement, w: FieldElement):
        coords = (x, y, z, w)
        f = x.field
        for c in coords:
            if c.field.spec != f.spec:
                raise MixedFields("coordinates lie over different fields")
        lead = next((c for c in coords if not c.is_zero()), None)
        if lead is None:
            raise ValueError("a projective point needs a nonzero coordinate")
        scale = lead.inv()
        self.coords = tuple(scale * c for c in coords)

    @property
    def field(self) -> Field:
        return self.coords[0].field

    def key(self) -> tuple:
        return tuple(c.sort_key() for c in self.coords)

    def __eq__(self, other):
        if not isinstance(other, P3Point):
            return NotImplemented
        return self.field.spec == other.field.spec and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def to_json(self) -> list:
        return [c.to_json() for c in self.coords]

    def __repr__(self):
        return "[" + " : ".join(repr(c) for c in self.coords) + "]"


def p3_from_string(field: Field, text: str) -> P3Point:
    """Parse "[x:y:z:w]" (brackets optional) with exact field expressions."""
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    parts = body.split(":")
    if len(parts) != 4:
        raise ValueError("expected four colon-separated coordinates")
    return P3Point(*(field.parse(p) for p in parts))


def point_on_line(cfg: LineConfig, i, v: ProjPoint) -> P3Point:
    """Embed the P^1 parameter v as a point of line i in P^3.

    The zero and infinity lines occupy complementary coordinate pairs;
    every other line is the graph (v, M_i v) of its matrix.
    """
    label = str(i)
    f = cfg.field
    zero = f.zero()
    if label == ZERO_LABEL and cfg.include_zero:
        return P3Point(v.x, v.y, zero, zero)
    if label == INF_LABEL and cfg.include_infinity:
        return P3Point(zero, zero, v.x, v.y)
    m = cfg.matrix(label)
    mx, my = m.apply((v.x, v.y))
    return P3Point(v.x, v.y, mx, my)


def find_carrier(cfg: LineConfig, p: P3Point) -> Optional[str]:
    """The label of the configuration line through p, or None."""
    x, y, z, w = p.coords
    if z.is_zero() and w.is_zero():
        return ZERO_LABEL if cfg.include_zero else None
    if x.is_zero() and y.is_zero():
        return INF_LABEL if cfg.include_infinity else None
    for label in cfg.matrix_labels():
        mx, my = cfg.matrix(label).apply((x, y))
        if mx == z and my == w:
            return label
    return None


def line_parameter(cfg: LineConfig, label: str, p: P3Point) -> ProjPoint:
    """The P^1 parameter of a point known to lie on the given line."""
    x, y, z, w = p.coords
    if label == INF_LABEL:
        return ProjPoint(z, w)
    return ProjPoint(x, y)


@dataclass
class OrbitReport:
    """A full orbit grouped by the line each point landed on."""

    seed: P3Point
    carrier: str
    total_size: int
    per_line_sizes: dict[str, int]
    stabilizer_order: int
    points: dict[str, list[P3Point]]
    truncated: bool

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
            "truncated": self.truncated,
        }


def _prepare(cfg: LineConfig, seed: P3Point,
             closure: Optional[GroupClosure]) -> tuple[str, GroupClosure]:
    cfg.require_valid()
    if seed.field.spec != cfg.field.spec:
        raise MixedFields("seed lies over a different field")
    carrier = find_carrier(cfg, seed)
    if carrier is None:
        raise SeedNotOnConfiguration(f"{seed!r} is on no line of the configuration")
    if closure is None:
        closure = group_closure(generator_set(cfg))
    if closure.budget_hit:
        raise IncompleteClosure(
            "orbit sizes and stabilizers need the complete group"
        )
    return carrier, closure


def _stabilizer_size(closure: GroupClosure, rep: ProjPoint) -> int:
    return sum(1 for g in closure.elements if fixes_point(g, rep))


def _orbit_bfs(cfg: LineConfig, seed: P3Point, carrier: str,
               closure: GroupClosure, budget: Optional[int],
               step) -> OrbitReport:
    if budget is None:
        budget = 10 * closure.order * max(len(cfg.labels()), 1)
    if budget < 1:
        raise ValueError("budget must be at least 1")
    labels = cfg.labels()
    points: dict[str, list[P3Point]] = {lab: [] for lab in labels}
    seen = {seed.key()}
    points[carrier].append(seed)
    queue = [(carrier, seed)]
    total = 1
    truncated = False
    idx = 0
    while idx < len(queue) and not truncated:
        lab, p = queue[idx]
        for nlab, np in step(lab, p):
            k = np.key()
            if k in seen:
                continue
            if total >= budget:
                truncated = True
                break
            seen.add(k)
            points[nlab].append(np)
            queue.append((nlab, np))
            total += 1
        idx += 1
    stab = _stabilizer_size(closure, line_parameter(cfg, carrier, seed))
    return OrbitReport(
        seed=seed,
        carrier=carrier,
        total_size=total,
        per_line_sizes={lab: len(pts) for lab, pts in points.items()},
        stabilizer_order=stab,
        points=points,
        truncated=truncated,
    )


def orbit_full(cfg: LineConfig, seed: P3Point, budget: Optional[int] = None,
               closure: Optional[GroupClosure] = None) -> OrbitReport:
    """Orbit of seed under every transport map, via the matrix path.

    A point with parameter v on line i goes to the point with parameter
    F_ijk v on line j.  The closure (computed here unless supplied) is
    needed for the stabilizer count and the default budget; an incomplete
    closure is refused.
    """
    carrier, closure = _prepare(cfg, seed, closure)
    labels = cfg.labels()
    gens: dict[tuple[str, str, str], object] = {}
    for i, j, k in itertools.permutations(labels, 3):
        gens[(i, j, k)] = generator(cfg, i, j, k)

    def step(lab: str, p: P3Point) -> Iterator[tuple[str, P3Point]]:
        v = line_parameter(cfg, lab, p)
        for j in labels:
            if j == lab:
                continue
            for k in labels:
                if k == lab or k == j:
                    continue
                image = moebius_apply(gens[(lab, j, k)], v)
                yield j, point_on_line(cfg, j, image)

    return _orbit_bfs(cfg, seed, carrier, closure, budget, step)


def orbit_on_line(cfg: LineConfig, G: GroupClosure,
                  seed: ProjPoint) -> tuple[int, int]:
    """Orbit size and stabilizer order of a P^1 parameter under G.

    The stabilizer comes from a direct count of fixing elements and is
    cross-checked against the orbit-stabilizer identity.
    """
    cfg.require_valid()
    if G.budget_hit:
        raise IncompleteClosure("orbit counting needs the complete group")
    if seed.field.spec != cfg.field.spec:
        raise MixedFields("seed lies over a different field")
    orbit = {moebius_apply(g, seed).key() for g in G.elements}
    size = len(orbit)
    stab = _stabilizer_size(G, seed)
    if size * stab != G.order:
        raise RuntimeError(
            f"orbit-stabilizer mismatch: {size} * {stab} != {G.order}"
        )
    return size, stab


# ---------------------------------------------------------------------------
# the geometric oracle


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


def _det3(r0, r1, r2) -> FieldElement:
    return (
        r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
        - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
        + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0])
    )


def _plane_through(p: tuple, q1: tuple, q2: tuple) -> tuple:
    """The linear functional vanishing on the span of three points."""
    lam = []
    sign = 1
    for i in range(4):
        cols = [c for c in range(4) if c != i]
        minor = _det3(
            tuple(p[c] for c in cols),
            tuple(q1[c] for c in cols),
            tuple(q2[c] for c in cols),
        )
        lam.append(minor if sign > 0 else -minor)
        sign = -sign
    return tuple(lam)


def _meet_line(cfg: LineConfig, label: str, lam: tuple) -> ProjPoint:
    """Intersect the plane with functional lam with the given line.

    Restricting lam to the line's parametrization leaves one linear
    condition c_x x + c_y y = 0 on the parameter; skewness guarantees the
    line is never contained in the plane, so (c_x, c_y) != (0, 0).
    """
    if label == ZERO_LABEL:
        cx, cy = lam[0], lam[1]
    elif label == INF_LABEL:
        cx, cy = lam[2], lam[3]
    else:
        m = cfg.matrix(label)
        cx = lam[0] + lam[2] * m.a + lam[3] * m.c
        cy = lam[1] + lam[2] * m.b + lam[3] * m.d
    if cx.is_zero() and cy.is_zero():
        raise RuntimeError("plane contains the target line; lines not skew?")
    return ProjPoint(cy, -cx)


def orbit_geometric(cfg: LineConfig, seed: P3Point,
                    budget: Optional[int] = None,
                    closure: Optional[GroupClosure] = None) -> OrbitReport:
    """The same orbit as orbit_full, but computed without transport classes.

    Each step spans the plane through the current point and a third line,
    then intersects it with the target line — four-coordinate linear
    algebra only, serving as an independent oracle for the matrix path.
    """
    carrier, closure = _prepare(cfg, seed, closure)
    labels = cfg.labels()
    spans = {lab: _span_rows(cfg, lab) for lab in labels}

    def step(lab: str, p: P3Point) -> Iterator[tuple[str, P3Point]]:
        for j in labels:
            if j == lab:
                continue
            for k in labels:
                if k == lab or k == j:
                    continue
                lam = _plane_through(p.coords, *spans[k])
                v = _meet_line(cfg, j, lam)
                yield j, point_on_line(cfg, j, v)

    return _orbit_bfs(cfg, seed, carrier, closure, budget, step)


# ---------------------------------------------------------------------------
# deterministic generic seeds


def generic_seed(cfg: LineConfig, closure: GroupClosure) -> ProjPoint:
    """The first canonical P^1 point with trivial stabilizer.

    Candidates are tried in the fixed order [1:0], [0:1], [1:1], then
    [1:c] along the field's element enumeration, so the choice is
    reproducible.  Each candidate is certified by the fixed-point test
    alone, and dropped at the first non-identity element that fixes it.
    """
    if closure.budget_hit:
        raise IncompleteClosure("seed construction needs the complete group")
    f = cfg.field
    movers = [g for g in closure.elements if not g.is_identity()]
    one, zero = f.one(), f.zero()
    candidates = itertools.chain(
        [ProjPoint(one, zero), ProjPoint(zero, one), ProjPoint(one, one)],
        (ProjPoint(one, c) for c in f.element_sequence()),
    )
    for p in candidates:
        if not any(fixes_point(g, p) for g in movers):
            return p
    raise RuntimeError("field exhausted before finding a generic point")
