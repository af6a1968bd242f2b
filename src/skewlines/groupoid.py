"""Groupoid generators F_ijk, group closure in PGL2, classification of the
finite groups that arise, and the eigenvalue-ratio finiteness test.

The generator set evaluates every F_ijk as a word in the difference
classes [D_ab] on integer class ids (_ClassIds): each [D_ab] is named once
per pair, each distinct class inverted once when a word first reads it,
and each product of two classes formed once (see generator_set).  A class
is found from its image mod p with exact confirmation, as a point is
below, so only a class met for the first time is canonicalized.  The closure is a breadth-first walk
with a hard element budget.  It knows an element by where its inverse
sends [1:0], [0:1] and [1:1], which PGL2 acting sharply 3-transitively on
P^1 makes exact, so it forms an exact product only for a new element (see
group_closure).  Those points have integer ids, found
from their images mod p with exact confirmation where Field.reduction()
exists (_PointIds), so a key is a triple of ints.  A generator the kept
ones before it already generate moves a point by composing their moves
(Dimino's rule), so only the kept ones image points.  The closure keeps
that table with each generator's moves: the commutation test reads them
(see GroupClosure.is_abelian), and the transport orbit walk continues them
(orbits.orbit_full).  Every downstream consumer (classifier, orbit
enumerator, CLI) works from its deterministic element list.

The classifier walks Dickson's list of the finite subgroups of PGL2(K)
and names a group only once its certificate holds (see classify).  It and
the ratio test read every order from tr^2/det of raw entries (_class_value)
and one trace recursion (_ratio_order), once per distinct value.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass, field as dc_field
from typing import Optional

from .configs import INF_LABEL, InvalidIndex, LineConfig
from .fields import Field, _factorize
from .matrices import (
    Mat2,
    ProjElem,
    _canonical,
    _entries,
    _product,
    eigenvectors,
    fixes_point,
    proj_class,
    proj_identity,
)

DEFAULT_BUDGET = 5000


class IndexCollision(Exception):
    """A generator triple must consist of three distinct line labels."""


class IncompleteClosure(Exception):
    """The closure hit its budget; downstream analysis would be unsound."""


def _transport(i: str, j: str, k: str, one, diff, adj, mul):
    """F_ijk from its closed forms in the differences D_ab = M_a - M_b:
    one when k is infinity, D_ik when j is, adj D_jk when i is, and
    adj(D_jk) D_ik otherwise (adjugate = det * inverse, no division).
    diff(a, b) and adj(a, b) give D_ab and adj D_ab, and mul multiplies
    two of them, all in one representation: exact matrices, or their
    classes.  Validation proved every D_ab nonsingular, so no determinant
    is checked."""
    if k == INF_LABEL:
        return one
    if j == INF_LABEL:
        return diff(i, k)
    if i == INF_LABEL:
        return adj(j, k)
    return mul(adj(j, k), diff(i, k))


def generator(cfg: LineConfig, i: str, j: str, k: str) -> ProjElem:
    """The class of (M_j - M_k)^(-1) (M_i - M_k), the map L_i -> L_j via L_k."""
    cfg.require_valid()
    i, j, k = str(i), str(j), str(k)
    if len({i, j, k}) < 3:
        raise IndexCollision(f"triple ({i},{j},{k}) repeats a line")
    for lab in (i, j, k):
        if not cfg.has_label(lab):
            raise InvalidIndex(f"no line labeled {lab!r}")
    return proj_class(_transport(
        i, j, k, Mat2.identity(cfg.field), cfg.difference,
        lambda a, b: cfg.difference(a, b).adjugate(), operator.mul))


@dataclass
class GeneratorSet:
    """Deduplicated canonical generators with the triples that produced them."""

    elements: list[ProjElem]
    provenance: dict[ProjElem, list[tuple[str, str, str]]]
    mode: str
    field: Field


def generator_set(cfg: LineConfig, mode: str = "all_triples") -> GeneratorSet:
    """Generators in one of two shapes.

    all_triples: F_ijk over every ordered triple of distinct lines.
    differences: the classes [D_ab] = [M_a - M_b] over ordered pairs of finite
    lines (M_0 = 0), which are the triples (a, inf, b).  F_ijk = [D_jk]^-1
    [D_ik], F_{i,inf,k} = [D_ik], F_{inf,j,k} = [D_jk]^-1 and F_{i,j,inf} = 1,
    so every F_ijk is a word in the [D_ab].  Conversely [D_ab] = F_{a,inf,b}
    lies in G when the infinity line is present, so then both sets generate
    G; without it the [D_ab] can generate more than G, and the mode is
    refused.

    The words are evaluated on classes, since the class of a product is the
    product of the classes, and on the integer ids of a class table
    (_ClassIds).  Each [D_ab] is named once per unordered pair, as D_ba =
    -D_ab lies in the same class, the inverse of each distinct class once,
    when a word first reads it (differences mode reads none), and each
    product [D_jk]^-1 [D_ik] once per pair of factor ids.  Only a
    class the table meets for the first time is canonicalized, so the
    inversions number at most the distinct classes met, and the exact
    products far fewer than the triples.  Provenance is collected by id
    and keyed by the canonical classes in the order the triples first
    meet them.
    """
    cfg.require_valid()
    if mode not in ("all_triples", "differences"):
        raise ValueError(f"unknown generator mode {mode!r}")
    if mode == "differences" and not cfg.include_infinity:
        raise ValueError("differences mode needs the infinity line")
    ids = _ClassIds(cfg.field)
    classes = ids.classes
    finite = [lab for lab in cfg.labels() if lab != INF_LABEL]
    diffs = {}
    for a, b in itertools.combinations(finite, 2):
        diffs[a, b] = diffs[b, a] = ids.intern(_entries(cfg.difference(a, b)))
    inverses: dict[int, int] = {}
    products: dict[tuple[int, int], int] = {}

    def inverse(a: str, b: str) -> int:
        i = diffs[a, b]
        j = inverses.get(i)
        if j is None:
            # the adjugate is det * inverse, the same class with no division
            j = inverses[i] = ids.intern(_entries(classes[i].rep.adjugate()))
        return j

    def mul(x: int, y: int) -> int:
        xy = products.get((x, y))
        if xy is None:
            xy = products[x, y] = ids.intern(_product(classes[x].rep, classes[y].rep))
        return xy

    ids_of = (ids.intern(_entries(Mat2.identity(cfg.field))),
              lambda a, b: diffs[a, b], inverse, mul)
    by_id: dict[int, list[tuple[str, str, str]]] = {}
    for t in itertools.permutations(cfg.labels(), 3):
        if mode == "differences" and t[1] != INF_LABEL:
            continue
        by_id.setdefault(_transport(*t, *ids_of), []).append(t)
    provenance = {classes[i]: ts for i, ts in by_id.items()}
    elements = sorted(provenance, key=lambda g: g.key())
    return GeneratorSet(elements=elements, provenance=provenance, mode=mode,
                        field=cfg.field)


class _ClassIds:
    """Integer ids for the classes of PGL2 a generator assembly meets, in
    order, found as _PointIds finds points.

    classes[i] is the class with id i, and exact maps its key(), the raw
    entries with the first nonzero one exactly 1, to i; a raw matrix whose
    first nonzero entry is exactly 1 is looked up there.  Any other is
    first looked up in buckets by Reduction.key of its entries' images,
    where Field.reduction() exists, and a hit is confirmed exactly with no
    inverse (_same_point: a class is a point of P^3).  Only on a miss is it
    canonicalized, looked up in exact and filed under the key.  So a class
    costs at most one inversion, and a collision mod p costs a refused
    confirmation, never a wrong id.
    """

    __slots__ = ("field", "one", "classes", "leads", "exact", "buckets")

    def __init__(self, f: Field):
        self.field = f
        self.one = ((1,) + (0,) * (f.degree - 1), 1)
        self.classes: list[ProjElem] = []
        self.leads: list[int] = []  # the index of each class's leading 1
        self.exact: dict[tuple, int] = {}
        self.buckets: dict[tuple, list[int]] = {}

    def intern(self, ents: tuple) -> int:
        """The id of the class of the nonsingular matrix with raw (nums,
        den) entries ents, row-major; a new class is added."""
        f = self.field
        lead = 0
        while not any(ents[lead][0]):
            lead += 1
        key = g = None
        if ents[lead] != self.one:
            red = f.reduction()
            if red is not None:
                key = red.key([red.image(*e) for e in ents])
            for j in self.buckets.get(key, ()):
                if _same_point(f, ents, self.classes[j].key(), self.leads[j]):
                    return j
            g = _canonical(f, ents)
            ents = g.key()
        j = self.exact.get(ents)
        if j is None:
            j = self.exact[ents] = len(self.classes)
            self.classes.append(_canonical(f, ents) if g is None else g)
            self.leads.append(lead)
        if key is not None:
            self.buckets.setdefault(key, []).append(j)
        return j


@dataclass
class GroupClosure:
    """Elements of the generated subgroup of PGL2 in BFS insertion order,
    with the non-identity generators the walk multiplied by, and the walk's
    point ids and moves (_PointIds), which an orbit walk continues."""

    elements: list[ProjElem]
    generators: list[ProjElem]
    budget_hit: bool
    budget: int
    points: Optional[_PointIds] = dc_field(default=None, compare=False, repr=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    def is_abelian(self) -> bool:
        """Whether the generators commute pairwise, read from point moves.

        The walk keys an element x by the ids of x^-1 [1:0], x^-1 [0:1]
        and x^-1 [1:1], and PGL2 acts sharply 3-transitively on P^1, so g
        and h commute exactly when gh and hg have one key.  The key of gh
        is h^-1 applied to the key of g: the moves of h (_Moves) of those
        of g.  A generator the closure's sift derived is a word in the kept
        generators before it, so they generate G, and commute pairwise
        exactly when all generators do; only they are tested.  The walk of
        a complete closure has moved every point of its keys by every kept
        generator, so the test does no field arithmetic.  Any other move,
        on a closure the budget stopped or one built by hand, is formed
        here, on a point table made for it when the closure has none.
        """
        if len(self.generators) < 2:
            return True
        if self.points is None:
            self.points = _PointIds(self.generators[0].field)
        points = self.points
        moves = [m for m in map(points.moves, self.generators) if m.word is None]

        def apply(move: _Moves, key: tuple) -> tuple:
            a, b, c = key
            return move[a], move[b], move[c]

        keys = [apply(move, _base_ids(points)) for move in moves]
        return all(apply(moves[j], keys[i]) == apply(moves[i], keys[j])
                   for i, j in itertools.combinations(range(len(moves)), 2))


def group_closure(gens: GeneratorSet, budget: int = DEFAULT_BUDGET) -> GroupClosure:
    """Breadth-first closure of the generators under right multiplication.

    The walk takes the elements in insertion order and tries x * g for every
    non-identity generator g.  It knows an element y by the images of the
    three points [1:0], [0:1] and [1:1] of P^1 under y^-1: PGL2(K) acts
    sharply 3-transitively on P^1(K), so these images name y exactly.  As
    (x * g)^-1 = g^-1 x^-1, the key of x * g is g^-1 applied to the key of
    x, three point moves with no walk and no product.  Points are named
    by integer ids in the order the walk meets them (_PointIds), so a key
    is a triple of ints.  Ids name points exactly, so the walk visits the
    elements in the order of a walk keyed by exact point tuples, and only
    a new element costs an exact product: |G| - 1 products, where one for
    every x * g would cost |G| k, for k generators.

    The generators are sifted first (Dimino's rule; Butler, Fundamental
    Algorithms for Permutation Groups, 1991): one whose key the group H of
    the kept ones before it holds is a word in them, and composes their
    moves (_Moves); any other is kept, and H is walked again with it, on
    keys alone.  A kept generator images a point by its adjugate, one
    fused Field._dot pair, and a point costs at most one inversion.  So
    the closure forms at most kept |S| images plus 3 per derived
    generator, for the set S of points met: |S| <= 3 |G|, and over F_q
    also |S| <= q + 1.  Sifted, H is G, and the walk stops at |H|
    elements: every pair left would meet a known key.  H may hold at most
    budget // k elements; the generators past that image exactly.

    The empty set closes to the trivial group: the walk starts from the
    identity and has nothing to multiply it by.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    mults = [g for g in gens.elements if not g.is_identity()]
    points = _PointIds(gens.field)
    order = _sift(points, mults, budget // max(len(mults), 1))
    elements, budget_hit = _walk(points, mults, budget, order)
    return GroupClosure(elements=elements, generators=mults,
                        budget_hit=budget_hit, budget=budget, points=points)


def _grow(points: _PointIds, gens: list[ProjElem], keys: list[tuple],
          seen: dict[tuple, int], via: list, limit: int,
          order: Optional[int] = None) -> bool:
    """Continue the breadth-first walk by the classes gens, from the first
    of keys, the keys met so far in order, which seen maps to their
    indices: file each new key of x * g, with (the index of x, the index
    of g) in via.  Return whether a new key was met once keys held limit,
    which stops the walk, as does reaching order keys."""
    moves = [points.moves(g) for g in gens]
    made = [m.made for m in moves]
    idx = 0
    while idx < len(keys):
        a, b, c = keys[idx]
        for i, move in enumerate(made):
            try:
                key = (move[a], move[b], move[c])
            except KeyError:
                move = moves[i]
                key = (move[a], move[b], move[c])
            if key not in seen:
                if len(keys) >= limit:
                    return True
                seen[key] = len(keys)
                keys.append(key)
                via.append((idx, i))
                if len(keys) == order:
                    return False
        idx += 1
    return False


def _sift(points: _PointIds, mults: list[ProjElem], cap: int) -> Optional[int]:
    """Sift mults in order, giving each derived one its word (see
    group_closure); return |G|, or None when the group of the kept ones
    outgrew cap elements before every generator was sifted.  A key's word
    is read up its parent chain in via."""
    base = _base_ids(points)
    keys, via, kept = [base], [None], []
    seen = {base: 0}
    for g in mults:
        moves = points.moves(g)
        at = seen.get(tuple(moves[q] for q in base))
        if at is not None:
            word = []
            while via[at] is not None:
                at, i = via[at]
                word.append(points.moves(kept[i]))
            moves.word = word[::-1]
            continue
        kept.append(g)
        if _grow(points, kept, keys, seen, via, cap):
            return None
    return len(keys)


def _walk(points: _PointIds, mults: list[ProjElem], budget: int,
          order: Optional[int]) -> tuple[list[ProjElem], bool]:
    """The elements of the closure in walk order, and whether the budget
    stopped it; order, when known, is |G| (see group_closure).  The walk
    is on keys alone, and the products follow it."""
    base = _base_ids(points)
    via: list[tuple[int, int]] = []
    budget_hit = _grow(points, mults, [base], {base: 0}, via, budget, order)
    elements = [proj_identity(points.field)]
    for idx, i in via:
        elements.append(elements[idx] * mults[i])
    return elements, budget_hit


def _base_ids(points: _PointIds) -> tuple[int, int, int]:
    """The ids of [1:0], [0:1] and [1:1], which no arithmetic normalizes."""
    one, zero = points.one, points.zero
    return points.intern(one, zero), points.intern(zero, one), points.intern(one, one)


class _PointIds:
    """Integer ids for the points of P^1 a closure meets, in order, and the
    moves of the classes it applies.

    A point is a pair of raw (nums, den) coordinates whose last nonzero one
    is exactly 1, [x : 1] or [1 : 0], so equal points are equal tuples, and
    exact maps each such pair to its id.  A pair [x : y] that is already
    normalized up to a free scaling (y = 0 or 1, or x = 0) is looked up
    there.  Any other would take an inversion to normalize, so where
    Field.reduction() exists (Q and Q(zeta_n)) it is first looked up by
    Reduction.key of its image: a ring map sends equal points whose images
    are defined and nonzero to one key.  A point filed under that key in
    buckets, always one [s : 1], is confirmed exactly with no inverse
    (_same_point).  Otherwise the pair is normalized and looked up in
    exact, and the point it names is filed under the key.  So
    a point costs at most one inversion, when a pair that needs one first
    names it, and a collision mod p costs a refused confirmation, never a
    wrong id.  An undefined or zero key, and a field with no reduction,
    take the exact lookup alone, and the reduction is built only when a
    pair needs it.

    moves(g) maps the id of each point the adjugate of the class g moves
    to the id of its image, formed on first read (_Moves): composed for a
    class the closure's sift derived, else imaged, so a closure forms at
    most kept |S| images plus 3 per derived class (see group_closure).
    Ids and moves are only ever added, so an orbit walk continues the
    closure's table on the same ids.
    """

    __slots__ = ("field", "one", "zero", "points", "exact", "buckets", "by_class")

    def __init__(self, f: Field):
        self.field = f
        self.one = ((1,) + (0,) * (f.degree - 1), 1)
        self.zero = ((0,) * f.degree, 1)
        self.points: list[tuple] = []
        self.exact: dict[tuple, int] = {}
        self.buckets: dict[tuple, list[int]] = {}
        self.by_class: dict[ProjElem, _Moves] = {}

    def moves(self, g: ProjElem) -> _Moves:
        """The moves of the class g, made empty on first request."""
        moves = self.by_class.get(g)
        if moves is None:
            moves = self.by_class[g] = _Moves(self, g)
        return moves

    def image(self, m: tuple, i: int) -> int:
        """The id of the image of the point with id i under the matrix with
        raw entries m, row-major."""
        f = self.field
        (an, ad), (bn, bd), (cn, cd), (dn, dd) = m
        (xn, xd), (yn, yd) = self.points[i]
        return self.intern(f._dot(an, ad, xn, xd, bn, bd, yn, yd),
                           f._dot(cn, cd, xn, xd, dn, dd, yn, yd))

    def intern(self, x: tuple, y: tuple) -> int:
        """The id of the point [x : y], raw coordinates not both zero; a
        new point is added."""
        f = self.field
        one, key = self.one, None
        if not any(y[0]):
            q = one, self.zero
        elif y == one or not any(x[0]):
            q = x, one
        else:
            red = f.reduction()
            if red is not None:
                key = red.key((red.image(*x), red.image(*y)))
            for j in self.buckets.get(key, ()):
                if _same_point(f, (x, y), self.points[j], 1):
                    return j
            q = f._mul(*x, *f._inv(*y)), one
        j = self.exact.get(q)
        if j is None:
            j = self.exact[q] = len(self.points)
            self.points.append(q)
        if key is not None:
            self.buckets.setdefault(key, []).append(j)
        return j


class _Moves:
    """The moves of one class g on a point table: made maps the id of each
    point the adjugate of g (g^-1) has moved to the id of its image.
    Reading a point by [], the one place a move is made, files the image
    made lacks: composed from word, the moves of the kept classes a
    derived g is the product of, in the order they act, or else imaged
    exactly.  Hot loops read made, a plain dict, and fall back to [] on a
    miss."""

    __slots__ = ("made", "points", "adj", "word")

    def __init__(self, points: _PointIds, g: ProjElem):
        self.made: dict[int, int] = {}
        self.points, self.adj = points, _entries(g.rep.adjugate())
        self.word: Optional[list[_Moves]] = None

    def __getitem__(self, q: int) -> int:
        r = self.made.get(q)
        if r is None:
            if self.word is None:
                r = self.points.image(self.adj, q)
            else:
                r = q
                for letter in self.word:
                    made = letter.made
                    r = made[r] if r in made else letter[r]
            self.made[q] = r
        return r


def _same_point(f: Field, xs: tuple, q: tuple, lead: int) -> bool:
    """Whether xs, raw coordinates, name the projective point q, whose
    coordinate at lead is exactly 1: whether xs = s q for s = xs[lead],
    coordinate by coordinate, with a product only where q is nonzero.  It
    confirms a point [x : y] of P^1 and a class of PGL2, a point of P^3."""
    s = xs[lead]
    for e, (x, r) in enumerate(zip(xs, q)):
        if e != lead and (x != f._mul(*s, *r) if any(r[0]) else any(x[0])):
            return False
    return True


@dataclass
class Classification:
    """Which finite Moebius group the closure is."""

    label: str
    order: int
    census: dict[int, int]
    abelian: bool
    invariant_factors: Optional[list[int]] = None
    witnesses: Optional[dict] = None
    theorem_violation: bool = False

    def to_json(self) -> dict:
        out = {
            "label": self.label,
            "order": self.order,
            "order_census": {str(k): v for k, v in sorted(self.census.items())},
            "abelian": self.abelian,
        }
        if self.invariant_factors is not None:
            out["invariant_factors"] = list(self.invariant_factors)
        if self.witnesses is not None:
            out["witnesses"] = self.witnesses
        if self.theorem_violation:
            out["theorem_violation"] = True
        return out


def _class_value(f: Field, m: tuple) -> tuple:
    """tr^2/det, as a raw pair, of the nonsingular matrix with raw (nums,
    den) entries m, row-major: the class function (Beauville, "Finite
    subgroups of PGL2(K)", 2010) every order here is read from.  It is 4
    exactly when tr^2 = 4 det: for the identity and the unipotent classes."""
    a, b, c, d = m
    tr = f._add(*a, *d)
    det = f._dot(*a, *d, f._neg_nums(b[0]), b[1], *c)
    return f._mul(*f._mul(*tr, *tr), *f._inv(*det))


def _ratio_order(f: Field, value: tuple, bound: int) -> Optional[int]:
    """Least n <= bound with rho^n = 1, or None, for the eigenvalue ratio
    rho of a class with tr^2/det = value, via the trace recursion.

    With s_k = rho^k + rho^(-k): s_0 = 2, s_1 = value - 2, and
    s_{k+1} = s_1 s_k - s_{k-1}, one fused Field._dot on raw pairs; rho^n = 1
    exactly when s_n = 2.  Everything stays inside the ground field even
    when the eigenvalues do not.
    """
    two, minus_one = (f.from_int(2).nums, 1), (f.from_int(-1).nums, 1)
    s1 = f._add(*value, f.from_int(-2).nums, 1)
    s_prev, s_cur = two, s1
    for n in range(1, bound + 1):
        if s_cur == two:
            return n
        s_prev, s_cur = s_cur, f._dot(*s1, *s_cur, *minus_one, *s_prev)
    return None


def _orders(elements: list[ProjElem],
            bound: int) -> tuple[list[Optional[int]], dict[tuple, Optional[int]]]:
    """The order of every element (None above bound), and that of the
    non-identity classes at each value of tr^2/det met, evaluated once per
    value.  The identity, whose value 4 the unipotent classes share, has
    order 1; a unipotent class has order p in characteristic p and infinite
    order in characteristic 0; any other that of its eigenvalue ratio."""
    by_value: dict[tuple, Optional[int]] = {}
    orders: list[Optional[int]] = []
    for g in elements:
        if g.is_identity():
            orders.append(1)
            continue
        f = g.field
        value = _class_value(f, _entries(g.rep))
        if value not in by_value:
            p, unipotent = f.characteristic, value == (f.from_int(4).nums, 1)
            by_value[value] = ((p if 0 < p <= bound else None) if unipotent
                               else _ratio_order(f, value, bound))
        orders.append(by_value[value])
    return orders, by_value


def ratio_order(g: ProjElem, bound: int) -> Optional[int]:
    """Least n <= bound with (lam1/lam2)^n = 1, or None (see _ratio_order)."""
    return _ratio_order(g.field, _class_value(g.field, _entries(g.rep)), bound)


# label, census, and the orders of r, s and r s in a witness pair
_POLYHEDRAL = {
    12: ("A4", {1: 1, 2: 3, 3: 8}, (3, 2, 3)),
    24: ("S4", {1: 1, 2: 9, 3: 8, 4: 6}, (3, 2, 4)),
    60: ("A5", {1: 1, 2: 15, 3: 20, 5: 24}, (3, 5, 2)),
}


def _try_polyhedral(G: GroupClosure, census: dict[int, int], orders: list[int],
                    by_value: dict[tuple, Optional[int]]) -> Optional[Classification]:
    """A4, S4 or A5 from the census and a witness pair (r, s).

    r, s and their product have the exact orders (3, 2, 3), (3, 2, 4) or
    (3, 5, 2), so <r, s> is a quotient of the von Dyck group (2, 3, n),
    which is A4, S4 or A5 (Coxeter and Moser, Generators and Relations for
    Discrete Groups).  No proper quotient of these keeps all three orders,
    so <r, s> has order |G|, and being inside G it is G: the first pair that
    passes the relation generates, and no closure needs to check it.  r s
    lies in G and is not the identity, as ord r != ord s, so its order is
    by_value's at the tr^2/det of the raw product: no class is formed.
    """
    blueprint = _POLYHEDRAL.get(G.order)
    if blueprint is None:
        return None
    label, want_census, (ord_r, ord_s, ord_rs) = blueprint
    if census != want_census:
        return None
    f = G.elements[0].field
    rs_cands = [g for g, o in zip(G.elements, orders) if o == ord_r]
    ss_cands = [g for g, o in zip(G.elements, orders) if o == ord_s]
    for r in rs_cands:
        for s in ss_cands:
            if by_value.get(_class_value(f, _product(r.rep, s.rep))) == ord_rs:
                wit = {
                    "r": r.to_json(),
                    "s": s.to_json(),
                    "orders": [ord_r, ord_s],
                }
                return Classification(
                    label=label, order=G.order, census=census,
                    abelian=False, witnesses=wit,
                )
    return None


def _try_affine(G: GroupClosure, census: dict[int, int]) -> Optional[Classification]:
    """A non-abelian G fixing a point of P^1: (C_p)^m x| C_n.

    The certificate is an eigenline of the first non-identity element that
    every element fixes.  The elements fixing a point form a subgroup, so
    the test reads only G.generators and relies on them generating
    G.elements, as a closure's do.  G then lies in that point's Borel
    subgroup, so the identity and the elements of order p form a normal
    subgroup of order p^m with cyclic quotient.  In characteristic 0 such a
    finite G is cyclic.
    """
    p = G.elements[0].field.characteristic
    if p == 0:
        return None
    first = next(g for g in G.elements if not g.is_identity())
    fixed = next((v for _, v in eigenvectors(first.rep) or ()
                  if all(fixes_point(g, v) for g in G.generators)), None)
    if fixed is None:
        return None
    p_part = census[1] + census.get(p, 0)
    return Classification(
        label=f"affine({p_part},{G.order // p_part})", order=G.order, census=census,
        abelian=False, witnesses={"fixed_point": fixed.to_json()},
    )


def _try_dihedral(G: GroupClosure, census: dict[int, int]) -> Optional[Classification]:
    """dihedral(h), flagged, for |G| = 2h with h >= 3 and an element of
    order h.  That element spans a cyclic subgroup C of index 2, which holds
    one involution when h is even and none when h is odd.  So every element
    outside C is an involution, and G is dihedral, exactly when the census
    counts h + (h even) involutions, whichever element of order h spans C."""
    h, odd = divmod(G.order, 2)
    if odd or h < 3 or not census.get(h) or census.get(2) != h + (h % 2 == 0):
        return None
    return Classification(label=f"dihedral({h})", order=G.order, census=census,
                          abelian=False, theorem_violation=True)


def classify(G: GroupClosure) -> Classification:
    """Name the group by Dickson's list of the finite subgroups of PGL2(K)
    (Beauville, Contemp. Math. 522, 2010), in its order: trivial; cyclic(n)
    for an abelian group with an element of order n; elementary_abelian(p,e)
    for any other abelian group, whose census the list forces to be
    {1: 1, p: n - 1} (any other is an invariant violation); then affine,
    A4/S4/A5 and a flagged dihedral, each on its certificate; and unknown,
    which takes PSL2(F_q) and PGL2(F_q).  The order of every element is
    read into one list, evaluated once per value of tr^2/det (a class
    function), and the census and every branch read that list.
    """
    if G.budget_hit:
        raise IncompleteClosure(
            f"closure stopped at budget {G.budget}; classification needs a "
            "complete element list"
        )
    n = G.order
    orders, by_value = _orders(G.elements, n)
    census = dict(Counter(orders))
    if n == 1:
        return Classification(label="trivial", order=1, census=census, abelian=True)
    if G.is_abelian():
        if census.get(n):
            return Classification(
                label=f"cyclic({n})", order=n, census=census,
                abelian=True, invariant_factors=[n],
            )
        p = max(census)
        if census != {1: 1, p: n - 1}:
            raise RuntimeError(f"abelian census {census} is not on Dickson's list")
        e = _factorize(n)[p]
        return Classification(
            label=f"elementary_abelian({p},{e})", order=n, census=census,
            abelian=True, invariant_factors=[p] * e,
        )
    return (_try_affine(G, census) or _try_polyhedral(G, census, orders, by_value)
            or _try_dihedral(G, census)
            or Classification(label="unknown", order=n, census=census, abelian=False))


@dataclass
class _RatioEntry:
    """One generator's ratio analysis; its JSON is formed only when read."""

    element: ProjElem
    triples: list[tuple[str, str, str]]
    ratio_order: Optional[int]
    status: str
    semisimple: bool

    def to_json(self) -> dict:
        return {
            "element": self.element.to_json(),
            "triples": [list(t) for t in self.triples],
            "ratio_order": self.ratio_order,
            "status": self.status,
            "semisimple": self.semisimple,
        }


@dataclass
class RatioReport:
    """Eigenvalue-ratio orders of the generators.

    Any generator whose ratio provably fails to be a root of unity certifies
    an infinite group.  The scan is complete within the field: a quadratic
    extension can only hold roots of unity up to a provable cap, so a miss
    below the cap is a proof, not a timeout.  Unipotent generators report
    ratio order 1 with semisimple=False (their own order is p or infinite,
    which the ratio cannot see).  The verdicts are kept per generator, and
    entries forms their JSON on each read.
    """

    _rows: list[_RatioEntry] = dc_field(default_factory=list)
    cap: int = 0

    @property
    def infinite_witness(self) -> bool:
        return any(r.status == "not_root_of_unity" for r in self._rows)

    @property
    def entries(self) -> list[dict]:
        return [r.to_json() for r in self._rows]

    def to_json(self) -> dict:
        return {
            "entries": self.entries,
            "cap": self.cap,
            "infinite_witness": self.infinite_witness,
        }


def eigratio_check(gens: GeneratorSet, bound: Optional[int] = None) -> RatioReport:
    """Ratio analysis of every element of a generator set, scanned once per
    value of tr^2/det; a unipotent class (value 4, not the identity) is not
    semisimple.

    A bound below the field's cap stops the scan early, and a ratio it
    misses is then undetermined rather than proved of infinite order.
    """
    f = gens.field
    cap = f.root_of_unity_bound()
    effective = cap if bound is None else min(bound, cap)
    report = RatioReport(cap=cap)
    ratios: dict[tuple, Optional[int]] = {}
    for g in gens.elements:
        value = _class_value(f, _entries(g.rep))
        if value not in ratios:
            ratios[value] = _ratio_order(f, value, effective)
        n = ratios[value]
        if n is not None:
            status = "root_of_unity"
        elif effective == cap:
            status = "not_root_of_unity"
        else:
            status = "undetermined"
        report._rows.append(_RatioEntry(
            element=g, triples=gens.provenance[g], ratio_order=n, status=status,
            semisimple=g.is_identity() or value != (f.from_int(4).nums, 1)))
    return report
