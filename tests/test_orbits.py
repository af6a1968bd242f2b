"""P^3 points, line membership, orbit enumeration, and the geometric oracle."""

import functools
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skewlines import groupoid, orbits
from skewlines.configs import InvalidIndex, LineConfig
from skewlines.families import (
    a4_example,
    a5_example,
    affine,
    c3_scaled,
    cyclic_4line,
    elementary_abelian,
    s4_example,
    standard_construction,
)
from skewlines.fields import (
    MixedFields,
    cyclotomic_field,
    Reduction,
    prime_field,
    rational_field,
    reduction_at,
)
from skewlines.groupoid import IncompleteClosure, generator_set, group_closure
from skewlines.matrices import (
    Mat2,
    ProjPoint,
    ZeroVector,
    eigenvectors,
    fixes_point,
    moebius_apply,
)
from skewlines.orbits import (
    OracleMismatch,
    OrbitReport,
    SeedNotOnConfiguration,
    find_carrier,
    line_parameter,
    orbit_full,
    orbit_geometric,
    p3_from_string,
    point_on_line,
)

Q = rational_field()
F3 = prime_field(3)
F5 = prime_field(5)
F7 = prime_field(7)


def pipeline(cfg, budget=5000):
    """The all_triples set and its closure, each built once as analyze()
    builds them."""
    gens = generator_set(cfg)
    return gens, group_closure(gens, budget=budget)


def run(walk, cfg, seed, G, gens):
    """orbit_full's report from seed on the pipeline's artifacts; under
    orbit_geometric, that report once the plane oracle has certified it."""
    report = orbit_full(cfg, seed, G, gens)
    return report if walk is orbit_full else orbit_geometric(cfg, report)


def line_orbit(cfg, G, gens, v):
    """The size of the orbit of the parameter v on the infinity line, and
    its stabilizer order, from the orbit_full report of its point."""
    report = orbit_full(cfg, point_on_line(cfg, "inf", v), G, gens)
    return report.per_line_sizes["inf"], report.stabilizer_order


def generic_parameter(cfg, G):
    """The first of [1:0], [0:1], [1:1] and [1:c] fixed by no non-identity
    element of G, or None: c runs over the field's elements over F_q and
    over the integers from 2 over a number field."""
    f = cfg.field
    one, zero = f.one(), f.zero()
    cs = f.elements() if f.is_finite else map(f.from_int, itertools.count(2))
    candidates = itertools.chain(
        [ProjPoint(one, zero), ProjPoint(zero, one), ProjPoint(one, one)],
        (ProjPoint(one, c) for c in cs))
    movers = [g for g in G.elements if not g.is_identity()]
    return next((v for v in candidates if not any(fixes_point(g, v) for g in movers)),
                None)


def diag_config(field, *entries):
    mats = [Mat2.identity(field)]
    mats += [Mat2.diag(field.parse(str(a)), field.parse(str(d)))
             for a, d in entries]
    return LineConfig(field, mats)


def affine_f5_config():
    """Translation-plus-dilation lines with everything inside F_5."""
    return LineConfig(F5, [
        Mat2.identity(F5),
        Mat2.from_rows(F5, [["-1", "1"], ["0", "-1"]]),
        Mat2.diag(F5.parse("2"), F5.parse("3")),
    ])


def points_by_key(report: OrbitReport) -> dict:
    return {lab: {p.key() for p in pts} for lab, pts in report.points.items()}


def fixed_pairs_agree(G, points) -> int:
    """Check fixes_point against moebius_apply on every (g, v); count fixed pairs."""
    fixed = 0
    for g in G.elements:
        for v in points:
            moved = moebius_apply(g, v)
            assert fixes_point(g, v) == (moved == v), (g, v, moved)
            fixed += moved == v
    return fixed


# ---------------------------------------------------------------------------
# P^3 points


def test_p3_point_canonical_scaling():
    p = p3_from_string(Q, "[0:2:4:2]")
    assert p == p3_from_string(Q, "[0:1:2:1]")
    assert p.coords[1] == Q.one()


def test_p3_point_needs_a_nonzero_coordinate():
    z = Q.zero()
    with pytest.raises(ValueError):
        ProjPoint(z, z, z, z)


def test_p3_point_rejects_mixed_fields():
    with pytest.raises(MixedFields):
        ProjPoint(Q.one(), Q.zero(), F5.one(), F5.zero())


def test_p3_parsing_variants():
    assert p3_from_string(Q, "1:0:0:0") == p3_from_string(Q, "[ 1 : 0 : 0 : 0 ]")
    with pytest.raises(ValueError):
        p3_from_string(Q, "[1:2:3]")
    blob = p3_from_string(Q, "[0:0:0:1]").to_json()
    assert isinstance(blob, list) and len(blob) == 4


def test_p3_point_hashable():
    a = p3_from_string(Q, "[1:2:3:4]")
    b = p3_from_string(Q, "[2:4:6:8]")
    assert len({a, b}) == 1


# ---------------------------------------------------------------------------
# line membership


def test_point_on_special_lines():
    cfg = diag_config(Q, (2, 7))
    one, zero = Q.one(), Q.zero()
    assert point_on_line(cfg, "0", ProjPoint(one, zero)) == p3_from_string(Q, "[1:0:0:0]")
    assert point_on_line(cfg, "inf", ProjPoint(zero, one)) == p3_from_string(Q, "[0:0:0:1]")
    assert point_on_line(cfg, "1", ProjPoint(one, one)) == p3_from_string(Q, "[1:1:1:1]")


def test_point_on_matrix_line_is_graph():
    cfg = diag_config(Q, (2, 7))
    v = ProjPoint(Q.one(), Q.from_int(2))
    assert point_on_line(cfg, "2", v) == p3_from_string(Q, "[1:2:2:14]")


def test_point_on_line_bad_labels():
    cfg = LineConfig(Q, [Mat2.identity(Q), Mat2.diag(Q.from_int(2), Q.from_int(7))],
                     include_zero=False)
    v = ProjPoint(Q.one(), Q.zero())
    with pytest.raises(InvalidIndex):
        point_on_line(cfg, "0", v)
    with pytest.raises(InvalidIndex):
        point_on_line(diag_config(Q, (2, 7)), "9", v)


def test_find_carrier_roundtrip():
    cfg = diag_config(Q, (2, 7), (3, 11))
    v = ProjPoint(Q.from_int(3), Q.from_int(5))
    for lab in cfg.labels():
        p = point_on_line(cfg, lab, v)
        assert find_carrier(cfg, p) == lab
        assert line_parameter(cfg, lab, p) == v


def test_find_carrier_misses():
    cfg = diag_config(Q, (2, 7))
    assert find_carrier(cfg, p3_from_string(Q, "[1:1:1:2]")) is None


def singular_line_config(field):
    """Lines inf, I and diag(2, 0): allowed without line 0, and skew since
    I - diag(2, 0) = diag(-1, 1) is nonsingular (2 != 1 in Q and F_5)."""
    return LineConfig(field, [Mat2.identity(field),
                              Mat2.diag(field.from_int(2), field.zero())],
                      include_zero=False)


def _on_line_by_parameter(cfg, lab, p) -> bool:
    # reference membership through the matrix parametrization: read the
    # parameter off p and embed it again
    try:
        return point_on_line(cfg, lab, line_parameter(cfg, lab, p)) == p
    except ZeroVector:
        return False


def test_find_carrier_matches_parametrization_on_all_of_p3_f5():
    # every one of the 156 points of P^3(F_5), on three configurations
    elements = list(F5.elements())
    one, zero = F5.one(), F5.zero()
    points = []
    for lead in range(4):
        for tail in itertools.product(elements, repeat=3 - lead):
            points.append(ProjPoint(*([zero] * lead + [one] + list(tail))))
    assert len(points) == 156
    for cfg in (diag_config(F5, (2, 3)), affine_f5_config(), singular_line_config(F5)):
        on_some_line = 0
        for p in points:
            want = next((lab for lab in cfg.labels()
                         if _on_line_by_parameter(cfg, lab, p)), None)
            assert find_carrier(cfg, p) == want, (p, want)
            on_some_line += want is not None
        # the lines are pairwise skew and each holds |P^1(F_5)| = 6 points
        assert on_some_line == 6 * len(cfg.labels())


def test_singular_line_seed_is_found_and_orbited():
    cfg = singular_line_config(Q)
    seed = p3_from_string(Q, "[0:1:0:0]")  # (v, D v) with v = [0:1], D v = 0
    assert find_carrier(cfg, seed) == "2"
    gens, G = pipeline(cfg)
    fast = orbit_full(cfg, seed, G, gens)
    assert orbit_geometric(cfg, fast) is fast
    assert (fast.carrier, fast.total_size, fast.stabilizer_order) == ("2", 3, 2)


def test_orbit_full_reads_a_supplied_set_and_refuses_differences():
    cfg = a4_example().config
    seed = p3_from_string(cfg.field, "[0:0:0:1]")
    gens, G = pipeline(cfg)
    report = orbit_full(cfg, seed, G, gens)
    assert orbit_geometric(cfg, report) is report
    with pytest.raises(ValueError, match="all_triples"):
        orbit_full(cfg, seed, G, generator_set(cfg, mode="differences"))


@pytest.mark.parametrize("name", ["a4", "a5", "affine5"])
def test_a_closure_of_the_differences_gives_the_all_triples_orbit(name):
    # that closure applied only the classes [D_ab], so the transport walk
    # starts the moves of every other F_jik afresh on the closure's table;
    # the orbit section is still the all_triples one, and the oracle agrees
    from skewlines.analyze import analyze

    cfg = _MODULAR_KEY_CONFIGS[name]()
    f = cfg.field
    differences = generator_set(cfg, mode="differences")
    fresh = set(generator_set(cfg).provenance) - set(differences.elements)
    assert any(not g.is_identity() for g in fresh)
    for text in ("[0:0:0:1]", "[0:0:1:7]"):
        seed = p3_from_string(f, text)
        want, got = (analyze(cfg, mode=mode, seed=seed, oracle=True).orbit
                     for mode in ("all_triples", "differences"))
        assert got == want and got["oracle_agrees"]


def test_orbit_geometric_uses_no_matrix_parametrization(monkeypatch):
    cases = [(a4_example().config, "[0:0:0:1]"),
             (affine_f5_config(), "[0:0:0:1]"),
             (singular_line_config(Q), "[0:1:0:0]")]
    reports = []
    for cfg, text in cases:
        gens, G = pipeline(cfg)
        reports.append((cfg, orbit_full(cfg, p3_from_string(cfg.field, text), G, gens)))

    def forbidden(*args, **kwargs):
        raise AssertionError("the plane oracle used the matrix parametrization")

    # ProjPoint is the point type the walk and the oracle share; the
    # transport walk's matrix step is the closure's point table (_PointIds),
    # which maps and names its ids, and orbits binds neither moebius_apply
    # nor generator_set.  Each report is made before the patches, and the
    # oracle certifies it under them
    assert not hasattr(orbits, "moebius_apply") and not hasattr(orbits, "generator_set")
    for name in ("point_on_line", "line_parameter"):
        monkeypatch.setattr(orbits, name, forbidden)
    for name in ("image", "intern"):
        monkeypatch.setattr(groupoid._PointIds, name, forbidden)
    monkeypatch.setattr(Mat2, "apply", forbidden)
    for cfg, report in reports:
        assert orbit_geometric(cfg, report) is report


# ---------------------------------------------------------------------------
# orbits: worked examples


def test_icosahedral_orbits():
    cfg = a5_example().config
    f = cfg.field
    gens, G = pipeline(cfg)
    rep = orbit_full(cfg, p3_from_string(f, "[0:0:0:1]"), G, gens)
    assert rep.carrier == "inf"
    assert rep.total_size == 150
    assert set(rep.per_line_sizes.values()) == {30}
    assert rep.stabilizer_order == 2
    assert rep.per_line_sizes["inf"] * rep.stabilizer_order == G.order

    seed = generic_parameter(cfg, G)
    gen_rep = orbit_full(cfg, point_on_line(cfg, "inf", seed), G, gens)
    assert gen_rep.total_size == 300
    assert gen_rep.stabilizer_order == 1

    # the inversion-free fixed-point test agrees with moebius_apply on every
    # element.  The eigenlines visible in Q(zeta_20) are the fixed points of 7
    # of the 15 involutions (the other rotations need a square root the field
    # lacks or cannot decide): 14 edge points, each fixed by one involution
    # and the identity.  The coordinate points and [1:1] are among them, and
    # the generic seed is fixed by the identity alone.
    points = {v.key(): v for g in G.elements if not g.is_identity()
              for _, v in eigenvectors(g.rep) or ()}
    for v in (ProjPoint(f.one(), f.zero()), ProjPoint(f.zero(), f.one()),
              ProjPoint(f.one(), f.one()), seed):
        points.setdefault(v.key(), v)
    assert len(points) == 15
    assert fixed_pairs_agree(G, points.values()) == 14 * 2 + 1


def test_octahedral_orbits():
    cfg = s4_example(cyclotomic_field(12)).config
    f = cfg.field
    gens, G = pipeline(cfg)
    assert G.order == 24

    seed = generic_parameter(cfg, G)
    assert orbit_full(cfg, point_on_line(cfg, "inf", seed), G, gens).total_size == 120

    i = f.parse("z^3")
    sqrt3 = f.parse("z + z^11")
    assert sqrt3 * sqrt3 == f.from_int(3)
    w = (f.one() - i) * (f.one() + sqrt3) / f.from_int(2)
    mid = ProjPoint(f.zero(), f.zero(), -f.one(), w)
    rep = orbit_full(cfg, mid, G, gens)
    assert rep.total_size == 40
    assert rep.stabilizer_order == 3

    special = orbit_full(cfg, p3_from_string(f, "[0:0:0:1]"), G, gens)
    assert special.total_size == 30
    assert special.stabilizer_order == 4


def test_tetrahedral_orbits_and_equianharmonic_points():
    cfg = a4_example().config  # a = 1 over the 12th cyclotomic field
    f = cfg.field
    gens, G = pipeline(cfg)
    rep = orbit_full(cfg, p3_from_string(f, "[0:0:0:1]"), G, gens)
    assert rep.total_size == 20
    assert set(rep.per_line_sizes.values()) == {4}
    assert rep.stabilizer_order == 3

    # the four points on the infinity line: in the z/w coordinate they sit
    # at {oo, 0, eps*a, a*(eps-1)}; dividing w by z instead relabels them
    # as {oo, 1/(eps*a), 0, -eps/a} — the same four points either way
    eps = f.parse("z^2")
    want = {
        p3_from_string(f, "[0:0:1:0]"),
        p3_from_string(f, "[0:0:0:1]"),
        point_on_line(cfg, "inf", ProjPoint(eps, f.one())),
        point_on_line(cfg, "inf", ProjPoint(eps - f.one(), f.one())),
    }
    assert set(rep.points["inf"]) == want
    relabeled = {
        p3_from_string(f, "[0:0:0:1]"),
        p3_from_string(f, "[0:0:1:0]"),
        ProjPoint(f.zero(), f.zero(), f.one(), (eps * f.one()).inv()),
        ProjPoint(f.zero(), f.zero(), f.one(), -eps),
    }
    assert set(rep.points["inf"]) == relabeled

    mid = orbit_full(cfg, p3_from_string(f, "[0:0:-1:z^3]"), G, gens)
    assert mid.total_size == 30
    assert mid.stabilizer_order == 2

    seed = generic_parameter(cfg, G)
    assert orbit_full(cfg, point_on_line(cfg, "inf", seed), G, gens).total_size == 60


def test_affine_orbits_inside_prime_field():
    cfg = affine_f5_config()
    gens, G = pipeline(cfg)
    assert G.order == 20
    assert line_orbit(cfg, G, gens, ProjPoint(F5.one(), F5.zero())) == (1, 20)
    assert line_orbit(cfg, G, gens, ProjPoint(F5.zero(), F5.one())) == (5, 4)
    rep = orbit_full(cfg, p3_from_string(F5, "[0:0:0:1]"), G, gens)
    assert rep.total_size == 25
    assert set(rep.per_line_sizes.values()) == {5}


def test_fixes_point_agrees_on_affine_f25_closure():
    # affine(5): t -> u t + v over F_25, |G| = 200 with u of order 8.  On all
    # 26 points of P^1(F_25): infinity is fixed by all 200 elements, and each
    # t in F_25 by its stabilizer of order 200 / 25 = 8
    cfg = affine(5).config
    f = cfg.field
    gens, G = pipeline(cfg)
    assert G.order == 200
    points = [ProjPoint(f.zero(), f.one())]
    points += [ProjPoint(f.one(), c) for c in f.elements()]
    # canonical [1:c] is the point t = 1/c, [0:1] is t = 0 and [1:0] is infinity
    assert fixed_pairs_agree(G, points) == 200 + 25 * 8


def test_translation_group_orbits():
    cfg = elementary_abelian(3).config
    f = cfg.field
    gens, G = pipeline(cfg)
    assert line_orbit(cfg, G, gens, ProjPoint(f.one(), f.zero())) == (1, 9)
    assert line_orbit(cfg, G, gens, ProjPoint(f.zero(), f.one())) == (9, 1)


def test_generic_seed_has_trivial_stabilizer():
    # a parameter fixed by no non-identity element has |G| points a line
    for fam in (a5_example(), s4_example(), elementary_abelian(3)):
        cfg = fam.config
        gens, G = pipeline(cfg)
        seed = generic_parameter(cfg, G)
        assert line_orbit(cfg, G, gens, seed) == (G.order, 1)


# ---------------------------------------------------------------------------
# orbit mechanics


def test_orbit_rejects_foreign_or_stray_seeds():
    cfg = diag_config(F5, (2, 3))
    gens, G = pipeline(cfg)
    with pytest.raises(SeedNotOnConfiguration):
        orbit_full(cfg, p3_from_string(F5, "[1:1:1:2]"), G, gens)
    with pytest.raises(MixedFields):
        orbit_full(cfg, p3_from_string(Q, "[0:0:0:1]"), G, gens)


# every family, the ones with parameters at small ones
_FAMILIES = (a4_example, s4_example, a5_example, lambda: standard_construction(6),
             lambda: c3_scaled(4), lambda: cyclic_4line(3, 4),
             lambda: elementary_abelian(3), lambda: affine(5))


def test_orbit_lines_hold_at_most_the_orbit_of_the_seed_parameter():
    # each point of line j has parameter g.v0 for some g in G, so no line
    # holds more than |G| / |Stab(v0)| points, and the walk reaches them all:
    # F_{i,j,inf} = 1 puts all of G.v0 on every line, so orbit size times
    # stabilizer order is |G| on each.  The seeds are [0:0:1:0], [0:0:0:1]
    # and a point with trivial stabilizer, where one exists: over F_25 every
    # parameter of affine(5) is fixed by a dilation
    for family in _FAMILIES:
        cfg = family().config
        f = cfg.field
        gens, G = pipeline(cfg)
        generic = generic_parameter(cfg, G)
        assert (generic is None) == (family is _FAMILIES[-1])
        params = [ProjPoint(f.one(), f.zero()), ProjPoint(f.zero(), f.one())]
        params += [generic] if generic is not None else []
        for v in params:
            seed = point_on_line(cfg, "inf", v)
            for walk in (orbit_full, orbit_geometric):
                rep = run(walk, cfg, seed, G, gens)
                assert set(rep.per_line_sizes) == set(cfg.labels())
                for lab, size in rep.per_line_sizes.items():
                    assert size * rep.stabilizer_order == G.order, (cfg, v, lab)
                assert rep.total_size == G.order // rep.stabilizer_order * len(cfg.labels())
                assert v is not generic or rep.stabilizer_order == 1


def _fresh_points(f):
    """Distinct P^1 parameters [1 : n], none repeated: a walk that follows
    them never closes up."""
    counter = itertools.count(1)
    return lambda *_: ProjPoint(f.one(), f.from_int(next(counter)))


def test_orbit_walk_off_the_orbit_is_an_invariant_violation(monkeypatch):
    cfg = a4_example().config
    f = cfg.field
    gens, G = pipeline(cfg)
    # the closure never met [1 : 7], so the walk images its ids afresh, and
    # every image it forms is a new parameter [1 : n]; from [0:0:0:1] it
    # would form none
    seed = p3_from_string(f, "[0:0:1:7]")
    fresh = _fresh_points(f)
    monkeypatch.setattr(groupoid._PointIds, "image", lambda self, m, i: self.intern(
        *((x.nums, x.den) for x in fresh())))
    with pytest.raises(RuntimeError, match=r"more than \|G\|/\|Stab\| = 12"):
        orbit_full(cfg, seed, G, gens)


_FORGERIES = ("dropped", "added", "duplicated", "swapped", "moved", "seed removed")


def _forged(cfg, report, forgery) -> OrbitReport:
    """report with one forgery on line 0, which is not the carrier of
    [0:0:0:1]: a point dropped, a point of the line off the orbit added, a
    point listed twice, two entries swapped, or a point moved off the line;
    or the seed removed from its carrier.  The sizes count the new lists."""
    f = cfg.field
    points = {lab: list(pts) for lab, pts in report.points.items()}
    line = points["0"]
    if forgery == "dropped":
        del line[2]
    elif forgery == "added":
        listed = set(line)
        off = (point_on_line(cfg, "0", ProjPoint(f.one(), f.from_int(c))) for c in range(9))
        line.append(next(p for p in off if p not in listed))
    elif forgery == "duplicated":
        line.insert(2, line[1])
    elif forgery == "swapped":
        line[1], line[2] = line[2], line[1]
    elif forgery == "moved":
        x = line[2].coords
        line[2] = ProjPoint(*x[:3], x[3] + f.one())
    else:
        del points[report.carrier][0]
    return OrbitReport(seed=report.seed, carrier=report.carrier,
                       total_size=sum(map(len, points.values())),
                       per_line_sizes={lab: len(pts) for lab, pts in points.items()},
                       stabilizer_order=report.stabilizer_order, points=points)


_FORGED_CONFIGS = {
    "a4": lambda: a4_example().config,
    "a5": lambda: a5_example().config,
    "elementary_abelian5_f25": lambda: elementary_abelian(5).config,
}


@functools.cache
def _orbit_of_0001(name):
    cfg = _FORGED_CONFIGS[name]()
    gens, G = pipeline(cfg)
    return cfg, orbit_full(cfg, p3_from_string(cfg.field, "[0:0:0:1]"), G, gens)


@pytest.mark.parametrize("forgery", _FORGERIES)
@pytest.mark.parametrize("name", list(_FORGED_CONFIGS))
def test_a_forged_report_is_an_oracle_mismatch(name, forgery):
    # the oracle certifies the transport walk's report and refuses each
    # forgery of it, over Q(zeta_12), Q(zeta_20) and F_25, which has no
    # reduction, so there every meet is formed exactly
    cfg, report = _orbit_of_0001(name)
    assert orbit_geometric(cfg, report) is report
    forged = _forged(cfg, report, forgery)
    assert forged.points != report.points
    with pytest.raises(OracleMismatch):
        orbit_geometric(cfg, forged)


@pytest.mark.parametrize("family", [a4_example, a5_example])
def test_a_forged_certificate_is_caught_by_the_transport_walk(monkeypatch, family):
    # every point and every meet keyed alike, and every key hit's exact test
    # forged to pass: each hop names the first point of its target line, so
    # the walk reaches one point a line, and the oracle refuses the
    # transport walk's report, which lists more
    cfg = family().config
    gens, G = pipeline(cfg)
    report = orbit_full(cfg, p3_from_string(cfg.field, "[0:0:0:1]"), G, gens)
    monkeypatch.setattr(Reduction, "key", lambda self, image: (0,))
    monkeypatch.setattr(orbits, "_on_plane", lambda lam, x: True)
    hits = _key_hits(monkeypatch)
    with pytest.raises(OracleMismatch, match="is not in the orbit of the seed"):
        orbit_geometric(cfg, report)
    assert hits and all(hits)


def test_a_point_on_two_planes_through_one_line_is_an_invariant_violation(monkeypatch):
    # the seed makes its plane through every line but its own, and a point
    # confirmed on a plane through a line lies on no other plane through
    # it.  Every point and every meet keyed alike, and an exact test forged
    # to accept the seed alone, break that: a point of line 0 makes its own
    # plane through line 2, and that plane's lookup on the seed's line
    # names the seed again
    cfg = a5_example().config
    gens, G = pipeline(cfg)
    seed = p3_from_string(cfg.field, "[0:0:0:1]")
    report = orbit_full(cfg, seed, G, gens)
    monkeypatch.setattr(Reduction, "key", lambda self, image: (0,))
    monkeypatch.setattr(orbits, "_on_plane", lambda lam, x: x is seed)
    hits = _key_hits(monkeypatch)
    with pytest.raises(RuntimeError, match="lies on two planes through line 2"):
        orbit_geometric(cfg, report)
    assert hits and all(hits)


def test_orbit_refuses_incomplete_closure():
    cfg = diag_config(Q, (4, 2))  # infinite group
    gens, G = pipeline(cfg, budget=50)
    assert G.budget_hit
    seed = p3_from_string(Q, "[0:0:0:1]")
    with pytest.raises(IncompleteClosure):
        orbit_full(cfg, seed, G, gens)


def test_orbit_points_are_group_stable():
    from skewlines.groupoid import generator
    from skewlines.matrices import moebius_apply

    cfg = a4_example().config
    f = cfg.field
    gens, G = pipeline(cfg)
    rep = orbit_full(cfg, p3_from_string(f, "[0:0:0:1]"), G, gens)
    keys = {k for pts in rep.points.values() for p in pts for k in [p.key()]}
    labels = cfg.labels()
    for lab, pts in rep.points.items():
        for p in pts:
            v = line_parameter(cfg, lab, p)
            for j in labels:
                for k in labels:
                    if len({lab, j, k}) < 3:
                        continue
                    image = moebius_apply(generator(cfg, lab, j, k), v)
                    assert point_on_line(cfg, j, image).key() in keys


def test_orbit_report_json_shape():
    cfg = diag_config(F5, (2, 3))
    gens, G = pipeline(cfg)
    rep = orbit_full(cfg, p3_from_string(F5, "[0:0:0:1]"), G, gens)
    blob = rep.to_json()
    assert blob["carrier"] == "inf"
    assert blob["total_size"] == sum(blob["per_line_sizes"].values())
    assert set(blob["points"]) == set(cfg.labels())
    assert blob["truncated"] is False


# ---------------------------------------------------------------------------
# the geometric oracle


def test_oracle_matches_matrix_path_on_goldens():
    # the oracle certifies the transport walk's report, and a walk that
    # meets every plane (_reference_orbit) finds its points
    for cfg, seed_text in [
        (a4_example().config, "[0:0:0:1]"),
        (s4_example().config, "[0:0:0:1]"),
        (affine_f5_config(), "[0:0:0:1]"),
    ]:
        f = cfg.field
        seed = p3_from_string(f, seed_text)
        gens, G = pipeline(cfg)
        fast = orbit_full(cfg, seed, G, gens)
        assert orbit_geometric(cfg, fast) is fast
        slow = _reference_orbit(cfg, seed, G, orbit_geometric)
        assert points_by_key(fast) == points_by_key(slow)
        assert fast.total_size == slow.total_size
        assert fast.stabilizer_order == slow.stabilizer_order


def test_oracle_matches_on_small_finite_configs():
    configs = [
        LineConfig(F3, [Mat2.identity(F3), Mat2.from_rows(F3, [["1", "1"], ["1", "2"]])]),
        LineConfig(F3, [Mat2.identity(F3), Mat2.from_rows(F3, [["2", "1"], ["1", "1"]])]),
        diag_config(F5, (2, 3), (3, 2)),
    ]
    for cfg in configs:
        f = cfg.field
        gens, G = pipeline(cfg)
        seed = point_on_line(cfg, "1", generic_parameter(cfg, G))
        fast = orbit_full(cfg, seed, G, gens)
        assert orbit_geometric(cfg, fast) is fast
        slow = _reference_orbit(cfg, seed, G, orbit_geometric)
        assert points_by_key(fast) == points_by_key(slow)


def test_oracle_respects_membership():
    # a report whose seed is on no line is refused: its carrier's first
    # point, which the oracle finds on that line, is another point
    cfg = affine_f5_config()
    gens, G = pipeline(cfg)
    report = orbit_full(cfg, p3_from_string(F5, "[0:0:0:1]"), G, gens)
    report.seed = p3_from_string(F5, "[1:1:1:2]")
    assert find_carrier(cfg, report.seed) is None
    with pytest.raises(OracleMismatch, match="seed"):
        orbit_geometric(cfg, report)


# ---------------------------------------------------------------------------
# keyed walks: the reports of a walk that builds every candidate point


def _pairs(labels, lab):
    """The (target j, through k) pairs a step from line lab visits, in order."""
    return itertools.permutations([x for x in labels if x != lab], 2)


def _reference_orbit(cfg, seed, G, walk) -> OrbitReport:
    """The walk that builds and normalizes a P^3 ProjPoint for every candidate
    and knows each point by its whole key."""
    carrier = find_carrier(cfg, seed)
    labels = cfg.labels()
    if walk is orbit_full:
        transport = {t: g for g, ts in generator_set(cfg).provenance.items()
                     for t in ts}

        def step(lab, p):
            v = line_parameter(cfg, lab, p)
            for j, k in _pairs(labels, lab):
                yield j, point_on_line(cfg, j, moebius_apply(transport[lab, j, k], v))
    else:
        spans = {lab: orbits._span_rows(cfg, lab) for lab in labels}
        pluckers = {lab: orbits._plucker(*spans[lab]) for lab in labels}

        def step(lab, p):
            planes = {k: orbits._plane(pluckers[k], p.coords)
                      for k in labels if k != lab}
            for j, k in _pairs(labels, lab):
                a, b = spans[j]
                la, lb = orbits._dot(planes[k], a), orbits._dot(planes[k], b)
                yield j, ProjPoint(*(lb * ai - la * bi for ai, bi in zip(a, b)))

    points = {lab: [] for lab in labels}
    points[carrier].append(seed)
    seen = {seed.key()}
    queue = [(carrier, seed)]
    for lab, p in queue:
        for nlab, np in step(lab, p):
            if np.key() not in seen:
                seen.add(np.key())
                points[nlab].append(np)
                queue.append((nlab, np))
    v0 = line_parameter(cfg, carrier, seed)
    return OrbitReport(
        seed=seed, carrier=carrier, total_size=len(seen),
        per_line_sizes={lab: len(pts) for lab, pts in points.items()},
        stabilizer_order=sum(1 for g in G.elements if fixes_point(g, v0)),
        points=points)


def _f25_dilation_in_f5_config():
    """Criterion 5 (b): lines I, [[-1, 1], [0, -1]], diag(2, 3) over F_25."""
    f = affine(5).config.field
    return LineConfig(f, [Mat2.identity(f),
                          Mat2.from_rows(f, [["-1", "1"], ["0", "-1"]]),
                          Mat2.diag(f.parse("2"), f.parse("3"))])


_KEYED_WALK_CONFIGS = {
    "a4": lambda: a4_example().config,
    "s4": lambda: s4_example().config,
    "a5": lambda: a5_example().config,
    "affine5_f25": lambda: affine(5).config,
    "f25_dilation_in_f5": _f25_dilation_in_f5_config,
    "elementary_abelian5": lambda: elementary_abelian(5).config,
    "standard6": lambda: standard_construction(6).config,
    "singular_line": lambda: singular_line_config(Q),
}


@pytest.mark.parametrize("name", list(_KEYED_WALK_CONFIGS))
def test_keyed_walks_match_the_point_keyed_reference(name):
    # a point is named by its line and its parameter there, so the walk
    # visits the same points in the same order as one keyed by its P^3 point
    cfg = _KEYED_WALK_CONFIGS[name]()
    f = cfg.field
    gens, G = pipeline(cfg)
    for lab in cfg.labels():
        seed = point_on_line(cfg, lab, ProjPoint(f.zero(), f.one()))
        for walk in (orbit_full, orbit_geometric):
            assert run(walk, cfg, seed, G, gens).to_json() == \
                _reference_orbit(cfg, seed, G, walk).to_json(), (lab, walk)


@pytest.mark.parametrize("walk", [orbit_full, orbit_geometric])
def test_keyed_walks_build_one_point_per_orbit_point(monkeypatch, walk):
    built = []

    class Counted(ProjPoint):
        __slots__ = ()

        def __init__(self, *coords):
            if len(coords) == 4:  # a point of P^3, not a line parameter
                built.append(coords)
            super().__init__(*coords)

    monkeypatch.setattr(orbits, "ProjPoint", Counted)
    for cfg in (a4_example().config, affine(5).config, singular_line_config(Q)):
        f = cfg.field
        gens, G = pipeline(cfg)
        built.clear()
        # one P^3 point for the seed and one for each other orbit point: a
        # candidate already seen is never built, and the oracle builds none
        seed = point_on_line(cfg, "inf", ProjPoint(f.zero(), f.one()))
        rep = run(walk, cfg, seed, G, gens)
        assert len(built) == rep.total_size > 1


# ---------------------------------------------------------------------------
# modular keys: the walk keyed exactly by each candidate's normalized parameter


def _exact_key_orbit(cfg, seed, G, walk) -> OrbitReport:
    """The walk that normalizes every candidate (one inversion each) and
    knows it by that exact key: the transport walk by the P^1 point
    moebius_apply returns, the oracle by the meet scaled to a leading 1."""
    carrier = find_carrier(cfg, seed)
    labels = cfg.labels()
    if walk is orbit_full:
        transport = {t: g for g, ts in generator_set(cfg).provenance.items()
                     for t in ts}

        def step(lab, p, v):
            for j, k in _pairs(labels, lab):
                image = moebius_apply(transport[lab, j, k], v)
                yield j, image.key(), image

        def build(j, v):
            return point_on_line(cfg, j, v)

        v0 = line_parameter(cfg, carrier, seed)
        key0 = v0.key()
    else:
        spans = {lab: orbits._span_rows(cfg, lab) for lab in labels}
        pluckers = {lab: orbits._plucker(*spans[lab]) for lab in labels}

        def span_key(s, t):
            return (1, (t * s.inv()).sort_key()) if s else (0,)

        def step(lab, p, v):
            planes = {k: orbits._plane(pluckers[k], p.coords)
                      for k in labels if k != lab}
            for j, k in _pairs(labels, lab):
                st = orbits._meet(spans[j], planes[k])
                yield j, span_key(*st), st

        def build(j, st):
            (s, t), (a, b) = st, spans[j]
            return ProjPoint(*(s * ai + t * bi for ai, bi in zip(a, b)))

        v0 = line_parameter(cfg, carrier, seed)
        key0 = span_key(*v0)

    points = {lab: [] for lab in labels}
    points[carrier].append(seed)
    seen = {(carrier, key0)}
    queue = [(carrier, seed, v0)]
    for lab, p, v in queue:
        for nlab, k, nv in step(lab, p, v):
            if (nlab, k) in seen:
                continue
            seen.add((nlab, k))
            np = build(nlab, nv)
            points[nlab].append(np)
            queue.append((nlab, np, nv))
    return OrbitReport(
        seed=seed, carrier=carrier, total_size=len(seen),
        per_line_sizes={lab: len(pts) for lab, pts in points.items()},
        stabilizer_order=sum(1 for g in G.elements if fixes_point(g, v0)),
        points=points)


def _seeded_orbit_point(cfg, seed: int):
    """A point of the orbit of [0:0:0:1]: two to four seeded transport moves."""
    from skewlines.groupoid import generator

    rng = random.Random(seed)
    f = cfg.field
    label, v = "inf", ProjPoint(f.zero(), f.one())
    labels = cfg.labels()
    for _ in range(rng.randint(2, 4)):
        j = rng.choice([lab for lab in labels if lab != label])
        k = rng.choice([lab for lab in labels if lab not in (label, j)])
        v = moebius_apply(generator(cfg, label, j, k), v)
        label = j
    return point_on_line(cfg, label, v)


_MODULAR_KEY_CONFIGS = {
    "a4": lambda: a4_example().config,
    "s4": lambda: s4_example().config,
    "a5": lambda: a5_example().config,
    "elementary_abelian5": lambda: elementary_abelian(5).config,
    "affine5": lambda: affine(5).config,
    "standard6": lambda: standard_construction(6).config,
}


def _assert_walks_match_exact_keys(cfg, seed, G, gens):
    for walk in (orbit_full, orbit_geometric):
        got = run(walk, cfg, seed, G, gens)
        want = _exact_key_orbit(cfg, seed, G, walk)
        assert got.points == want.points  # every point, in walk order
        assert got.total_size == want.total_size
        assert got.per_line_sizes == want.per_line_sizes
        assert got.stabilizer_order == want.stabilizer_order
        assert got.to_json() == want.to_json()


@pytest.mark.parametrize("name", list(_MODULAR_KEY_CONFIGS))
def test_modular_keys_match_the_exact_key_walk(name):
    cfg = _MODULAR_KEY_CONFIGS[name]()
    gens, G = pipeline(cfg)
    seeds = [p3_from_string(cfg.field, "[0:0:0:1]")]
    seeds += [_seeded_orbit_point(cfg, n) for n in (1, 2)]
    for seed in seeds:
        _assert_walks_match_exact_keys(cfg, seed, G, gens)


def _without_lines(cfg, zero: bool, infinity: bool) -> LineConfig:
    return LineConfig(cfg.field, [cfg.matrix(lab) for lab in cfg.matrix_labels()],
                      include_zero=zero, include_infinity=infinity)


@pytest.mark.parametrize("zero, infinity", [(True, False), (False, True),
                                            (False, False)])
@pytest.mark.parametrize("name", ["a4", "s4", "a5"])
def test_walks_match_without_the_zero_or_infinity_line(name, zero, infinity):
    # with no infinity line there is no F_{i,j,inf} = 1 hop, and a line's
    # parameters need not be all of G.v0; the walk still matches both
    # exactly keyed references, and the oracle certifies it
    cfg = _without_lines(_MODULAR_KEY_CONFIGS[name](), zero, infinity)
    f = cfg.field
    gens, G = pipeline(cfg)
    labels = cfg.labels()
    for lab, v in ((labels[0], ProjPoint(f.zero(), f.one())),
                   (labels[-1], generic_parameter(cfg, G))):
        seed = point_on_line(cfg, lab, v)
        _assert_walks_match_exact_keys(cfg, seed, G, gens)


def _small_elements(f):
    """Over F_p every element; over Q(zeta_n) a + b zeta with |a|, |b| <= 2."""
    if f.is_finite:
        return list(f.elements())
    z = f.gen()
    return [f.from_int(a) + f.from_int(b) * z
            for a in range(-2, 3) for b in range(-2, 3)]


# the fields of the random configurations, each number field with the
# finite configuration a draw conjugates; over F_q every group is finite
_RANDOM_CHARTS = [(F5, None), (F7, None),
                  (cyclotomic_field(4), lambda f, a: s4_example(f)),
                  (cyclotomic_field(3), lambda f, a: a4_example(a, f))]


@st.composite
def _finite_group_configs(draw):
    """{0, inf, I, M_1[, M_2]}, at will without the zero or the infinity line
    (but with three lines at least), whose closure is finite: over F_5 and
    F_7 any matrices that keep the lines skew; over Q(i) the s4 lines and
    over Q(zeta_3) the a4 lines with a drawn parameter, each conjugated by a
    drawn A, which keeps the lines 0, inf and I, and with a matrix line
    dropped at will."""
    field, example = draw(st.sampled_from(_RANDOM_CHARTS))
    element = st.sampled_from(_small_elements(field))
    zero, infinity = draw(st.sampled_from([(True, True), (True, False),
                                           (False, True), (False, False)]))
    count = 2 if not (zero or infinity) else draw(st.integers(1, 2))
    if example is None:
        mats = [Mat2(*(draw(element) for _ in range(4))) for _ in range(count)]
    else:
        base = example(field, draw(st.sampled_from(["1", "2", "-1", "1/3"]))).config
        a = Mat2(*(draw(element) for _ in range(4)))
        assume(a.det())
        ai = a.inv()
        mats = [a * base.matrix(lab) * ai for lab in base.matrix_labels()[1:]]
        mats = draw(st.permutations(mats))[:count]
    mats = [Mat2.identity(field), *mats]
    # pairwise skew: each M_i - M_j invertible, and each M_i beside line 0
    dets = [(m - n).det() for m, n in itertools.combinations(mats, 2)]
    if zero:
        dets += [m.det() for m in mats]
    assume(all(dets))
    return LineConfig(field, mats, include_zero=zero, include_infinity=infinity)


@given(_finite_group_configs(), st.data())
@settings(max_examples=100, deadline=None)
def test_walks_agree_on_random_configurations(cfg, data):
    # the oracle meets each plane from the point that made it, which rests
    # on skewness alone, so on every chart it certifies the transport walk's
    # lists as the seed's orbit, point for point and in order
    f = cfg.field
    gens, G = pipeline(cfg)
    lab = data.draw(st.sampled_from(cfg.labels()))
    v = data.draw(st.sampled_from([ProjPoint(f.zero(), f.one())] +
                                  [ProjPoint(f.one(), x) for x in _small_elements(f)]))
    full = orbit_full(cfg, point_on_line(cfg, lab, v), G, gens)
    assert orbit_geometric(cfg, full) is full


def test_without_the_infinity_line_lines_hold_less_than_the_orbit():
    # no F_{i,j,inf} = 1 hop: the parameters on a line need not be all of
    # G.v0, so per_line_sizes times stabilizer_order need not be |G|.  a5 on
    # lines 0, 1, 2, 3 from [1 : 7] on line 3 reaches 5 points a line, where
    # |G| / |Stab(v0)| = 60
    from skewlines.analyze import analyze

    cfg = _without_lines(a5_example().config, True, False)
    f = cfg.field
    seed = point_on_line(cfg, "3", ProjPoint(f.one(), f.from_int(7)))
    orbit = analyze(cfg, seed=seed, oracle=True).orbit
    assert (orbit["group_order"], orbit["stabilizer_order"]) == (60, 1)
    assert orbit["per_line_sizes"] == {lab: 5 for lab in ("0", "1", "2", "3")}
    assert orbit["oracle_agrees"]


def _recording(fn, outcomes):
    def wrapper(*args):
        ok = fn(*args)
        outcomes.append(ok)
        return ok
    return wrapper


def _key_hits(monkeypatch) -> list:
    """The number of _on_plane tests of each key hit of the oracle, a
    lookup that finds points filed under the candidate's key, recorded as
    the oracle runs.  Installed over any earlier patch of _on_plane."""
    hits, tests = [], []
    on_plane, holds = orbits._on_plane, orbits._LinePoints.holds
    monkeypatch.setattr(orbits, "_on_plane",
                        lambda lam, x: tests.append(1) or on_plane(lam, x))

    def recorded(self, key, plane):
        before = len(tests)
        got = holds(self, key, plane)
        if key in self.buckets:
            hits.append(len(tests) - before)
        return got

    monkeypatch.setattr(orbits._LinePoints, "holds", recorded)
    return hits


@pytest.mark.parametrize("name, p", [("a5", 41), ("a4", 13), ("s4", 5)])
def test_key_collisions_at_a_small_prime_fail_the_exact_check(monkeypatch, name, p):
    # at a split prime this small, distinct orbit points share a key (the
    # orbit of a5 through [1 : 1/41] has 60 points a line, P^1(F_41) only
    # 42), so some key hits must be refused by the exact check; images that
    # vanish or are undefined take the exact path, and the seed [1 : 1/p]
    # has no image of its own.  Both walks confirm every key hit exactly:
    # the transport walk by groupoid._same_point, the oracle by _on_plane
    cfg = _MODULAR_KEY_CONFIGS[name]()
    f = cfg.field
    gens, G = pipeline(cfg)
    one = f.one()
    seeds = [p3_from_string(f, "[0:0:0:1]"),
             point_on_line(cfg, "inf", ProjPoint(one, one / p))]
    walks = (orbit_full, orbit_geometric)
    want = [_exact_key_orbit(cfg, seed, G, walk).to_json()
            for seed in seeds for walk in walks]
    assert [run(walk, cfg, seed, G, gens).to_json()
            for seed in seeds for walk in walks] == want
    # the transport walk keeps its images in the closure, so the walks at
    # the small prime start from a closure made at the field's own prime
    gens, G = pipeline(cfg)
    monkeypatch.setattr(f, "reduction", lambda: reduction_at(f, p))
    outcomes = {"_same_point": [], "_on_plane": []}
    for module, fn in ((groupoid, "_same_point"), (orbits, "_on_plane")):
        monkeypatch.setattr(module, fn, _recording(getattr(module, fn), outcomes[fn]))
    hits = _key_hits(monkeypatch)
    assert [run(walk, cfg, seed, G, gens).to_json()
            for seed in seeds for walk in walks] == want
    for seen in outcomes.values():
        assert False in seen and True in seen
    # every key hit of the oracle is tested exactly, and only key hits are
    assert hits and all(hits) and sum(hits) == len(outcomes["_on_plane"])


def test_seed_with_denominator_p_is_looked_up_exactly():
    # [1 : 1/p] on the carrier has an undefined image at the field's own
    # prime, so its line keeps the exact scan; the walk is unchanged
    cfg = a4_example().config
    f = cfg.field
    gens, G = pipeline(cfg)
    p = f.reduction().p
    seed = point_on_line(cfg, "1", ProjPoint(f.one(), f.one() / p))
    _assert_walks_match_exact_keys(cfg, seed, G, gens)
    assert orbit_full(cfg, seed, G, gens).total_size == G.order * len(cfg.labels())


def test_seeded_analysis_counts_the_stabilizer_once(monkeypatch):
    # the transport walk counts the stabilizer, one fixes_point test per
    # element, and the oracle, which certifies its lists, counts none
    from skewlines.analyze import analyze

    cfg = a5_example().config
    seed = p3_from_string(cfg.field, "[0:0:0:1]")
    calls = []
    fixes = orbits.fixes_point
    monkeypatch.setattr(orbits, "fixes_point",
                        lambda g, v: calls.append(1) or fixes(g, v))
    report = analyze(cfg, seed=seed, oracle=True)
    assert report.orbit["oracle_agrees"] and report.orbit["stabilizer_order"] == 2
    assert len(calls) == report.group["order"] == 60


@pytest.mark.parametrize("name", ["a4", "s4", "a5"])
def test_walks_invert_at_most_twice_per_built_point(monkeypatch, name):
    # the oracle, on a report it accepts, forms no meet and inverts nothing
    cfg = _MODULAR_KEY_CONFIGS[name]()
    f = cfg.field
    gens, G = pipeline(cfg)
    seed = p3_from_string(f, "[0:0:0:1]")
    carrier = find_carrier(cfg, seed)
    calls = []
    inv = type(f)._inv
    monkeypatch.setattr(type(f), "_inv", lambda self, *a: calls.append(1) or inv(self, *a))
    full = orbit_full(cfg, seed, closure=G, gens=gens, carrier=carrier)
    assert 0 < len(calls) <= 2 * (full.total_size - 1)
    calls.clear()
    monkeypatch.setattr(orbits, "_meet", lambda *a: calls.append(1))
    assert orbit_geometric(cfg, full) is full
    assert not calls


@pytest.mark.parametrize("name", ["a4", "s4", "a5"])
def test_walks_multiply_per_built_point_not_per_candidate(monkeypatch, name):
    # exact products, by hand, outside the stabilizer count (fixes_point:
    # five products an element):
    # - transport walk, per parameter but the seed's (|G.v0| - 1 of them):
    #   at most an image F_ijk v (two fused products) and its normalization
    #   (one); from [0:0:0:1] the closure's moves hold every image, so only
    #   its ProjPoint costs one; per point of a matrix line: its P^3 point
    #   (two), |G.v0| points on each such line;
    # - oracle, per listed point: its incidence test (its plane with its
    #   own line, four fused coordinates) and the planes it makes (four
    #   fused coordinates each); per hop tested, one fused lam.x = 0 on a plane
    #   already formed; and two products for each of the six Pluecker
    #   coordinates of each line.  A plane through line k holds one orbit
    #   point of every other line, so there are as many planes as points.
    # The oracle meets each plane through a line once, from the point that
    # made it, with every other line: on a5, 150 planes and 450 tests.
    cfg = _MODULAR_KEY_CONFIGS[name]()
    f = cfg.field
    gens, G = pipeline(cfg)
    seed = p3_from_string(f, "[0:0:0:1]")
    carrier = find_carrier(cfg, seed)
    calls = []
    for kernel in ("_mul", "_dot"):
        fn = getattr(type(f), kernel)
        monkeypatch.setattr(type(f), kernel,
                            lambda self, *a, _fn=fn: calls.append(1) or _fn(self, *a))
    hits = _key_hits(monkeypatch)
    full = orbit_full(cfg, seed, closure=G, gens=gens, carrier=carrier)
    full_calls = len(calls)
    assert orbit_geometric(cfg, full) is full
    oracle_calls = len(calls) - full_calls
    orbit = G.order // full.stabilizer_order
    assert full_calls <= (3 * (orbit - 1) + 2 * len(cfg.matrix_labels()) * orbit
                          + 5 * G.order)
    # at the field's own prime no two of these points share a key, so each
    # hit takes one test
    assert hits and sum(hits) == len(hits)
    assert oracle_calls <= 8 * full.total_size + len(hits) + 12 * len(cfg.labels())
    if name == "a5":
        # 150 points; the oracle's bound above is 8 * 150 + 450 + 12 * 5 =
        # 1 710, the transport walk's 3 * 29 + 2 * 3 * 30 + 5 * 60 = 567
        assert len(hits) == 450
        assert full_calls + oracle_calls <= 2277


def _counted(monkeypatch, owner, names, calls):
    """Count the calls of owner's functions names in the Counter calls."""
    for name in names:
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _fn=fn, _name=name:
                            calls.update([_name]) or _fn(*a))


@pytest.mark.parametrize("family, text, most", [
    (a5_example, "[0:0:0:1]", {"_meet_key": 450, "_plane": 300, "_on_plane": 450,
                               "_meet": 0, "_inv": 0, "products": 1710}),
    (a5_example, "[0:0:1:7]", {"_plane": 600, "_on_plane": 900, "_meet": 0, "_inv": 0,
                               "products": 3360}),
    (lambda: elementary_abelian(5), "[0:0:0:1]", {"_plane": 200, "_meet": 200}),
], ids=["a5", "a5_generic", "elementary_abelian5"])
def test_oracle_meets_each_plane_from_the_point_that_made_it(monkeypatch, family,
                                                             text, most):
    # the plane through a point and line k meets every other line j in one
    # point, which spans the same plane with k, so the oracle files the
    # plane's members once and meets it from the point that made it alone.
    # On a5 from [0:0:0:1] the 120 points off each line lie on 30 planes
    # through it: 150 planes, each met with three lines, so 450 keys, each
    # confirmed by one _on_plane test on its plane, with no exact meet and
    # no inversion; each point's incidence test forms its plane with its
    # own line, and a point met its every plane in four times as many keys.  Over
    # F_25, which has no reduction, every meet is formed exactly.  Class
    # kernels count the products: Q(zeta_20) binds none on the instance
    cfg = family().config
    f = cfg.field
    gens, G = pipeline(cfg)
    report = orbit_full(cfg, p3_from_string(f, text), G, gens)
    calls = Counter()
    _counted(monkeypatch, orbits, ["_meet_key", "_plane", "_on_plane", "_meet"], calls)
    _counted(monkeypatch, type(f), ["_mul", "_dot", "_inv"], calls)
    assert orbit_geometric(cfg, report) is report
    calls["products"] = calls["_mul"] + calls["_dot"]
    over = {name: calls[name] for name, bound in most.items() if calls[name] > bound}
    assert not over, over
    assert all(calls[name] for name, bound in most.items() if bound)


@pytest.mark.parametrize("name, classes, orbit", [
    ("a4", 10, 4), ("s4", 13, 6), ("a5", 17, 30), ("elementary_abelian5", 7, 25),
    ("affine5", 20, 25)])
def test_transport_walk_moves_each_parameter_once_per_class(monkeypatch, name,
                                                           classes, orbit):
    # the closure's point table holds the orbits of [1:0], [0:1] and [1:1],
    # and every generator the sift kept has moved every point in it; every
    # other one is a word in the kept ones, and composes their moves.  So
    # from [0:0:0:1] (the parameter [0:1] on the infinity line) the
    # transport walk forms no image.  From [0:0:1:7] it images each
    # parameter id by each kept class at most once; it inverts once to
    # name a new parameter and once for the ProjPoint of each parameter it
    # places, so at most twice a new parameter.  Over F_25 the table
    # already holds all 26 points of P^1
    cfg = _MODULAR_KEY_CONFIGS[name]()
    f = cfg.field
    gens, G = pipeline(cfg)
    assert len(gens.provenance) == classes
    ids = G.points
    met = len(ids.points)
    moves = [ids.moves(g) for g in G.generators]
    kept = [m for m in moves if m.word is None]
    assert 0 < len(kept) < len(moves)
    assert all(set(m.made) == set(range(met)) for m in kept)
    for m in moves:
        if m.word is not None:
            for q, r in m.made.items():
                for letter in m.word:
                    q = letter[q]
                assert q == r
    images, inversions = [], []
    image = groupoid._PointIds.image
    monkeypatch.setattr(groupoid._PointIds, "image",
                        lambda self, *a: images.append(1) or image(self, *a))
    inv = f._inv
    monkeypatch.setattr(f, "_inv", lambda *a: inversions.append(1) or inv(*a))
    report = orbit_full(cfg, p3_from_string(f, "[0:0:0:1]"), G, gens)
    assert set(report.per_line_sizes.values()) == {orbit}
    assert not images and len(ids.points) == met
    inversions.clear()
    report = orbit_full(cfg, p3_from_string(f, "[0:0:1:7]"), G, gens)
    generic = G.order // report.stabilizer_order
    assert set(report.per_line_sizes.values()) == {generic}
    assert len(images) <= len(kept) * generic
    assert len(inversions) <= generic + len(ids.points) - met
    assert bool(images) == (not f.is_finite)


def test_transport_walk_images_by_the_kept_classes_alone(monkeypatch):
    # from [0:0:1:7] on a5 the walk names 60 parameters the closure never
    # met; the two kept classes image each at most once, and the 14 derived
    # ones compose their moves, where every class imaged them before the
    # sift: 480 images and 1 328 _dot
    cfg = a5_example().config
    gens, G = pipeline(cfg)
    calls = Counter()
    _counted(monkeypatch, groupoid._PointIds, ["image"], calls)
    _counted(monkeypatch, type(cfg.field), ["_dot"], calls)
    report = orbit_full(cfg, p3_from_string(cfg.field, "[0:0:1:7]"), G, gens)
    assert report.total_size == 300
    assert calls["image"] <= 113 and calls["_dot"] <= 594, calls


def _conjugated(cfg, n: str) -> LineConfig:
    """cfg moved by the projectivity diag(A, A) of P^3, A = diag(1, n): the
    lines become the graphs of A M A^-1, the same group up to conjugation,
    with entries and Pluecker coordinates of height about n."""
    f = cfg.field
    a = Mat2.diag(f.one(), f.parse(n))
    ai = a.inv()
    return LineConfig(f, [a * cfg.matrix(lab) * ai for lab in cfg.matrix_labels()],
                      cfg.include_zero, cfg.include_infinity)


@pytest.mark.parametrize("name, height", [("a4", "2^21 + 1"), ("s4", "2^20 + 1"),
                                          ("a5", "2^61 + 1")], ids=["a4", "s4", "a5"])
def test_high_heights_leave_hits_to_the_exact_check(monkeypatch, name, height):
    # at the field's own prime, with heights of 2^20 to 2^61 on the entries,
    # each key hit is tested exactly on its plane, and the walk matches both
    # exactly keyed references
    cfg = _conjugated(_MODULAR_KEY_CONFIGS[name](), height)
    f = cfg.field
    gens, G = pipeline(cfg)
    seed = p3_from_string(f, "[0:0:0:1]")
    assert orbit_full(cfg, seed, G, gens).to_json() == \
        _exact_key_orbit(cfg, seed, G, orbit_full).to_json()
    want = _exact_key_orbit(cfg, seed, G, orbit_geometric).to_json()
    outcomes = []
    monkeypatch.setattr(orbits, "_on_plane", _recording(orbits._on_plane, outcomes))
    hits = _key_hits(monkeypatch)
    assert run(orbit_geometric, cfg, seed, G, gens).to_json() == want
    assert hits and all(hits) and sum(hits) == len(outcomes)
    assert True in outcomes


def _plane_by_operators(pl, x):
    """The plane through x and the line pl as formed before it was fused:
    twelve FieldElement products and eight additions."""
    p01, p02, p03, p12, p13, p23 = pl
    x0, x1, x2, x3 = x
    return (
        p23 * x1 - p13 * x2 + p12 * x3,
        p03 * x2 - p23 * x0 - p02 * x3,
        p13 * x0 - p03 * x1 + p01 * x3,
        p02 * x1 - p12 * x0 - p01 * x2,
    )


_PLANE_FIELDS = [cyclotomic_field(5), cyclotomic_field(12),
                 affine(5).config.field]  # F_25


@st.composite
def _plane_operands(draw):
    field = draw(st.sampled_from(_PLANE_FIELDS))
    if field.characteristic:
        coeff = st.integers(0, field.characteristic - 1)
    else:
        coeff = st.fractions(min_value=-6, max_value=6, max_denominator=5)
    coeffs = st.lists(coeff, min_size=field.degree, max_size=field.degree)
    elts = [field.zero() if draw(st.integers(0, 4)) == 0
            else field.from_coeffs(draw(coeffs)) for _ in range(10)]
    return field, tuple(elts[:6]), tuple(elts[6:])


@given(_plane_operands())
@settings(max_examples=150, deadline=None)
def test_fused_plane_matches_the_operator_formula(operands):
    field, pl, x = operands
    lam = orbits._plane(pl, x)
    assert lam == _plane_by_operators(pl, x)
    red = field.reduction()
    if red is None:
        return
    # and its image is _plane_at on the operands' images
    at = orbits._plane_at(orbits._reduce(red, pl), orbits._reduce(red, x))
    assert [v % red.p for v in at] == [red.image(e.nums, e.den) for e in lam]
