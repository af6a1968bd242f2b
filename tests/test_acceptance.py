"""Acceptance gate: one test per shipping criterion, exact values throughout.

Each test prints a `CRITERION n: PASS/FAIL` line with the mismatches, then
asserts them.  Every required value is derived by hand in a comment beside
its check, from the construction's matrices rather than from the program's
output; a failing check prints the analysis that explains what it means.
"""

import itertools
import json
import random
import time
from math import lcm

import pytest

from skewlines.cli import main
from skewlines.configs import LineConfig, predict_abelian
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
from skewlines.fields import cyclotomic_field, prime_field, rational_field
from skewlines.groupoid import (
    classify,
    eigratio_check,
    generator,
    generator_set,
    group_closure,
)
from skewlines.matrices import Mat2, ProjElem, ProjPoint, fixes_point, proj_order
from skewlines.orbits import (
    OracleMismatch,
    orbit_full,
    orbit_geometric,
    p3_from_string,
    point_on_line,
)

Q = rational_field()
F3 = prime_field(3)
F5 = prime_field(5)


def _report(num, title, checks, analysis=None):
    bad = [(what, want, got) for what, want, got in checks if want != got]
    print(f"CRITERION {num}: {'PASS' if not bad else 'FAIL'} - {title}")
    for what, want, got in bad:
        print(f"  {what}: required {want!r}, computed {got!r}")
    if bad and analysis:
        print(f"  analysis: {analysis}")
    detail = "; ".join(f"{what}: required {want!r}, computed {got!r}"
                       for what, want, got in bad)
    if analysis and bad:
        detail += f" || {analysis}"
    assert not bad, f"criterion {num} ({title}): {detail}"


def _pipeline(cfg, budget=5000):
    """The all_triples set and its closure, as analyze() builds them."""
    gens = generator_set(cfg)
    return gens, group_closure(gens, budget=budget)


def _closure(cfg, budget=5000):
    return group_closure(generator_set(cfg), budget=budget)


def _line_orbit(cfg, G, gens, v):
    """(orbit size, stabilizer order) of the parameter v on the infinity
    line, from the orbit_full report of its point."""
    rep = orbit_full(cfg, point_on_line(cfg, "inf", v), G, gens)
    return rep.per_line_sizes["inf"], rep.stabilizer_order


def _generic_parameter(cfg, G):
    """The first of [1:0], [0:1], [1:1] and [1:c] fixed by no non-identity
    element of G: c runs over the field's elements over F_q and over the
    integers from 2 over a number field."""
    f = cfg.field
    one, zero = f.one(), f.zero()
    cs = f.elements() if f.is_finite else map(f.from_int, itertools.count(2))
    candidates = itertools.chain(
        [ProjPoint(one, zero), ProjPoint(zero, one), ProjPoint(one, one)],
        (ProjPoint(one, c) for c in cs))
    movers = [g for g in G.elements if not g.is_identity()]
    return next(v for v in candidates if not any(fixes_point(g, v) for g in movers))


def _affine_f5_variant():
    """Order-20 affine realization with the dilation square inside F_5."""
    return LineConfig(F5, [
        Mat2.identity(F5),
        Mat2.from_rows(F5, [["-1", "1"], ["0", "-1"]]),
        Mat2.diag(F5.parse("2"), F5.parse("3")),
    ])


def _element_pool(f, span=2):
    z = f.gen()
    return [f.from_int(a) + f.from_int(b) * z
            for a in range(-span, span + 1) for b in range(-span, span + 1)]


def _det_tr_one_config(f, rng, pool):
    """Random 4-line configuration {0, inf, I, M} with det M = tr M = 1."""
    one = f.one()
    while True:
        a, b = rng.choice(pool), rng.choice(pool)
        if b.is_zero():
            continue
        c = (a * (one - a) - one) / b
        m = Mat2(a, b, c, one - a)
        return LineConfig(f, [Mat2.identity(f), m])


def _f3_matrix_pool():
    ident = Mat2.identity(F3)
    pool = []
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    m = Mat2.from_rows(F3, [[str(a), str(b)], [str(c), str(d)]])
                    if m.det().is_zero() or (m - ident).det().is_zero():
                        continue
                    pool.append(m)
    return pool


def _random_4line_corpus(seed, f3_count=30, cyclo_count=20):
    """50 random valid 4-line configurations with |G| <= 24.

    Over F_3 the whole ambient group PGL2(F_3) has order 24, so any valid
    matrix qualifies; the cyclotomic samples have det = tr = 1, which pins
    the group order to 3.
    """
    rng = random.Random(seed)
    f3_pool = _f3_matrix_pool()
    configs = [LineConfig(F3, [Mat2.identity(F3), rng.choice(f3_pool)])
               for _ in range(f3_count)]
    f = cyclotomic_field(3)
    pool = _element_pool(f)
    configs += [_det_tr_one_config(f, rng, pool) for _ in range(cyclo_count)]
    return configs


def _golden_corpus():
    fams = [
        standard_construction(3),
        standard_construction(4),
        c3_scaled(2),
        cyclic_4line(3, 3),
        elementary_abelian(2),
        elementary_abelian(3),
        affine(3),
        a4_example(),
        s4_example(),
        a5_example(),
    ]
    return [fam.config for fam in fams] + [_affine_f5_variant()]


def _certified(cfg, rep) -> bool:
    """Whether the plane oracle certifies the transport walk's report."""
    try:
        return orbit_geometric(cfg, rep) is rep
    except OracleMismatch:
        return False


# ---------------------------------------------------------------------------


def test_criterion_01_icosahedral_group():
    started = time.monotonic()
    cfg = a5_example().config
    f = cfg.field
    gens, G = _pipeline(cfg)
    cls = classify(G)
    r = ProjElem(cfg.matrix("2"))
    s = ProjElem(cfg.matrix("3"))
    special_size, special_stab = _line_orbit(cfg, G, gens, ProjPoint(f.zero(), f.one()))
    seed = _generic_parameter(cfg, G)
    gen_rep = orbit_full(cfg, point_on_line(cfg, "inf", seed), G, gens)
    elapsed = time.monotonic() - started
    _report(1, "icosahedral example", [
        ("closure order", 60, G.order),
        ("classification", "A5", cls.label),
        ("order of r = [M2]", 3, proj_order(r, 100)),
        ("order of s = [M3]", 5, proj_order(s, 100)),
        ("order of rs", 2, proj_order(r * s, 100)),
        ("orbit of [0:0:0:1] on its carrier line", 30, special_size),
        ("stabilizer of [0:0:0:1]", 2, special_stab),
        ("generic orbit across the five lines", 300, gen_rep.total_size),
        ("generic stabilizer", 1, gen_rep.stabilizer_order),
        ("runtime below 10 s", True, elapsed < 10.0),
    ])


def test_criterion_02_octahedral_group():
    cfg = s4_example().config  # over Q(i)
    f = cfg.field
    m2, m3 = cfg.matrix("2"), cfg.matrix("3")
    comm_det = (m2 * m3 - m3 * m2).det()
    gens, G = _pipeline(cfg)
    cls = classify(G)
    r = generator(cfg, "2", "0", "1")
    s = r * generator(cfg, "3", "0", "1")
    special = orbit_full(cfg, p3_from_string(f, "[0:0:0:1]"), G, gens)
    gen_rep = orbit_full(cfg, point_on_line(cfg, "inf", _generic_parameter(cfg, G)),
                         G, gens)

    # the second listed seed involves sqrt(3) as well as i; the smallest
    # cyclotomic field containing both is the 12th (i = z^3, sqrt3 = z + z^11)
    f12 = cyclotomic_field(12)
    big = s4_example(f12).config
    gens12, G12 = _pipeline(big)
    i = f12.parse("z^3")
    sqrt3 = f12.parse("z + z^11")
    w = (f12.one() - i) * (f12.one() + sqrt3) / f12.from_int(2)
    mid = orbit_full(big, ProjPoint(f12.zero(), f12.zero(), -f12.one(), w),
                     G12, gens12)
    print("criterion 2 field recorded for the middle seed: "
          "12th cyclotomic field (conductor 12, i = z^3, sqrt(3) = z + z^11)")
    _report(2, "octahedral example", [
        ("det of the additive commutator", f.from_int(2), comm_det),
        ("closure order", 24, G.order),
        ("classification", "S4", cls.label),
        ("order of r", 3, proj_order(r, 100)),
        ("order of s", 2, proj_order(s, 100)),
        ("order of rs", 4, proj_order(r * s, 100)),
        ("generic orbit", 120, gen_rep.total_size),
        ("middle-seed orbit", 40, mid.total_size),
        ("orbit of [0:0:0:1]", 30, special.total_size),
        ("recorded field conductor", 12, f12.conductor),
        ("i^2 in the recorded field", f12.from_int(-1), i * i),
        ("sqrt(3)^2 in the recorded field", f12.from_int(3), sqrt3 * sqrt3),
    ])


def test_criterion_03_tetrahedral_group():
    cfg = a4_example().config  # a = 1 over the 12th cyclotomic field
    f = cfg.field
    gens, G = _pipeline(cfg)
    cls = classify(G)
    A, B = cfg.matrix("2"), cfg.matrix("3")
    r = ProjElem(A)
    s = ProjElem(A * B)
    special = orbit_full(cfg, p3_from_string(f, "[0:0:0:1]"), G, gens)
    mid = orbit_full(cfg, p3_from_string(f, "[0:0:-1:z^3]"), G, gens)
    gen_rep = orbit_full(cfg, point_on_line(cfg, "inf", _generic_parameter(cfg, G)),
                         G, gens)

    # the four special points on the infinity line, written with the line
    # parameter w/z: infinity, 1/(eps*a), 0, -eps/a (here a = 1, eps = z^2)
    eps = f.parse("z^2")
    zero, one = f.zero(), f.one()
    harmonic = {
        ProjPoint(zero, zero, zero, one),        # w/z = infinity
        ProjPoint(zero, zero, one, eps.inv()),   # w/z = 1/(eps*a)
        ProjPoint(zero, zero, one, zero),        # w/z = 0
        ProjPoint(zero, zero, one, -eps),        # w/z = -eps/a
    }
    _report(3, "tetrahedral example", [
        ("closure order", 12, G.order),
        ("classification", "A4", cls.label),
        ("order of s", 2, proj_order(s, 100)),
        ("order of r", 3, proj_order(r, 100)),
        ("order of sr", 3, proj_order(s * r, 100)),
        ("generic orbit", 60, gen_rep.total_size),
        ("orbit of [0:0:-1:i*a]", 30, mid.total_size),
        ("orbit of [0:0:0:1]", 20, special.total_size),
        ("infinity-line points of the small orbit", harmonic,
         set(special.points["inf"])),
    ])


def test_criterion_04_translation_planes():
    checks = []
    for p in (3, 5):
        fam = elementary_abelian(p)
        G = _closure(fam.config)
        cls = classify(G)
        checks.append((f"closure order for p={p}", p * p, G.order))
        checks.append((f"classification for p={p}",
                       f"elementary_abelian({p},2)", cls.label))
    _report(4, "translation planes of order p^2", checks)


def test_criterion_05_affine_example():
    # Every generator (M_j - M_k)^-1 (M_i - M_k) is a product of the classes
    # D_ab = [M_a - M_b] (M_0 = 0) and their inverses, and F_{i,inf,k} = D_ik
    # is one of them, so G = <D_ab>.  All matrices below are upper
    # triangular: [[u, v], [0, w]] acts as t -> (u/w) t + v/w and fixes
    # t = infinity.  The paper's abstract does not say which configuration
    # is its "affine example", so both realisations are checked.

    # (a) affine(5): lines I, M2 = [[-1, 1], [0, -1]], M3 = diag(a, 1/a)
    # over F_25 = F_5[a]/(a^2 - 2); 2 is the least primitive root mod 5.
    fam = affine(5)
    cfg = fam.config
    f = cfg.field
    gens, G = _pipeline(cfg)
    cls = classify(G)
    t_inf = _line_orbit(cfg, G, gens, ProjPoint(f.one(), f.zero()))
    t_zero = _line_orbit(cfg, G, gens, ProjPoint(f.zero(), f.one()))
    t_one = _line_orbit(cfg, G, gens, ProjPoint(f.one(), f.one()))

    # (b) the dilation-in-F_5 lines I, M2, diag(2, 3), built over the same
    # F_25 so that points outside F_5 are available as seeds.
    small = LineConfig(f, [
        Mat2.identity(f),
        Mat2.from_rows(f, [["-1", "1"], ["0", "-1"]]),
        Mat2.diag(f.parse("2"), f.parse("3")),
    ])
    gens_s, Gs = _pipeline(small)
    cls_s = classify(Gs)
    s_inf = _line_orbit(small, Gs, gens_s, ProjPoint(f.one(), f.zero()))
    s_zero = _line_orbit(small, Gs, gens_s, ProjPoint(f.zero(), f.one()))
    s_gen = _line_orbit(small, Gs, gens_s, ProjPoint(f.gen(), f.one()))

    _report(5, "affine examples over F_25", [
        # (a) D_{M2,0}: t -> t - 1.  D_{M3,0}: t -> a^2 t = 2t.
        # D_{M2,I} = [[-2, 1], [0, -2]]: t -> t + 2.
        # D_{M3,I} = diag(a-1, 1/a-1): t -> -a t, as (a-1)/(1/a-1) = -a.
        # D_{M3,M2} = [[a+1, -1], [0, 1/a+1]]: t -> a t - a/(a+1).
        # Multipliers: <2, -a, a> = <-a>, since (-a)^2 = 2, (-a)^4 = 4 = -1
        # and a = (-a)^5; -a has order 2(p-1) = 8.  Conjugating t -> t - 1
        # by t -> u t gives t -> t - u, so the translations contain 1 and
        # -a, whose F_5-span is all of F_25.  Hence G = F_25 x| C_8:
        # |G| = 25 * 8 = 200.
        ("affine(5): closure order p^2 * 2(p-1)", 200, G.order),
        # unipotent elements (tr^2 = 4 det) are the 25 translations and the
        # quotient is 200 / 25 = 8
        ("affine(5): classification", "affine(25,8)", cls.label),
        # every element fixes t = infinity
        ("affine(5): orbit of t=infinity", 1, t_inf[0]),
        # the translations act transitively on F_25, which holds t = 0 and
        # t = 1; each stabiliser has order 200 / 25 = 8
        ("affine(5): orbit of t=0 ([0:0:0:1] on its line)", 25, t_zero[0]),
        ("affine(5): stabiliser of t=0", 8, t_zero[1]),
        ("affine(5): orbit of t=1", 25, t_one[0]),
        ("affine(5): stabiliser of t=1", 8, t_one[1]),
        # (b) D_{M2,0}: t -> t - 1.  D_{M3,0} = diag(2, 3): t -> 2/3 t = 4t.
        # D_{M2,I}: t -> t + 2.  D_{M3,I} = diag(1, 2): t -> t/2 = 3t.
        # D_{M3,M2} = [[3, -1], [0, 4]]: t -> 2t + 1.  All lie in
        # AGL_1(F_5) = {t -> u t + v : u in F_5^*, v in F_5}, of order 20,
        # and t -> t - 1 with t -> 3t (3 is a primitive root mod 5)
        # generates it: |G| = p(p-1) = 20.
        ("diag(2,3) lines: closure order p(p-1)", 20, Gs.order),
        # 5 translations, quotient 20 / 5 = 4
        ("diag(2,3) lines: classification", "affine(5,4)", cls_s.label),
        ("diag(2,3) lines: orbit of t=infinity", 1, s_inf[0]),
        # AGL_1(F_5) is transitive on F_5, which holds t = 0
        ("diag(2,3) lines: orbit of t=0 ([0:0:0:1] on its line)", 5,
         s_zero[0]),
        # t -> u t + v fixes t = z only if (u - 1) z = -v; u != 1 would put
        # z = -v/(u-1) in F_5, and u = 1 forces v = 0, so the stabiliser is
        # trivial and the orbit has |G| = 20 points (z = a, outside F_5)
        ("diag(2,3) lines: generic per-line orbit, t=z", 20, s_gen[0]),
    ], analysis=(
        "affine(5) takes its dilation a = sqrt(2) outside F_5: the difference "
        "class t -> -a t has order 2(p-1) = 8 and conjugates the translations "
        "through all of F_25, so |G| = 200 with label affine(25,8). The "
        "diag(2,3) lines keep every multiplier and translation inside F_5, so "
        "their group is AGL_1(F_5) of order 20, acting freely on the points "
        "of F_25 outside F_5."
    ))


def test_criterion_06_standard_construction():
    # G is generated by the classes D_ab = [M_a - M_b] (see criterion 5).
    # The lines are 0, inf and R_j = diag(e^j, e^-j) for j = 0..n-1, with e a
    # primitive nth root of unity.  D_{R_j,0} = [R_j] is t -> e^(2j) t, and
    # for j != k D_{R_j,R_k} is t -> -e^(j+k) t, since
    # (e^j - e^k) / (e^-j - e^-k) = -e^(j+k).
    # n = 2: e = -1, the lines are 0, inf, I, -I and every class is t -> t,
    # so G is trivial of order 1.
    # n >= 3: D_{R_0,R_1} = -e and D_{R_0,R_2} = -e^2 give e (their
    # quotient) and then -1, and every generator lies in <-1, e>, so
    # G = <-1, e>, cyclic of order lcm(2, n).
    checks = []
    for n in range(2, 9):
        fam = standard_construction(n)
        G = _closure(fam.config)
        expected = lcm(2, n) if n >= 3 else 1
        checks.append((f"closure order for n={n}", expected, G.order))
    _report(6, "standard construction over the nth cyclotomic field", checks,
            analysis=(
                "for n >= 3 the difference classes t -> -e^(j+k) t generate "
                "<-1, e> of order lcm(2, n); for n = 2 the lines are 0, inf, "
                "I and -I, all scalar, so every projection is the identity "
                "and the closure is trivial."
            ))


def test_criterion_07_scaled_triangles():
    fam = c3_scaled(2)  # scale factor s = -1, second triangle at t = -1/2
    cfg = fam.config
    f = cfg.field
    G = _closure(cfg)
    scale = cfg.matrix("4")
    _report(7, "two triangles of lines at scale -1/2", [
        ("closure order lcm(3, ord(s)) with ord(s)=2", 6, G.order),
        ("classification", "cyclic(6)", classify(G).label),
        ("second triangle sits at t = -1/2",
         Mat2.diag(f.parse("-1/2"), f.parse("-1/2")).key(), scale.key()),
    ])


def test_criterion_08_order_three_criterion():
    f = cyclotomic_field(3)
    one = f.one()
    pool = _element_pool(f)
    rng = random.Random(88)

    matching_orders = []
    seen = set()
    while len(matching_orders) < 20:
        cfg = _det_tr_one_config(f, rng, pool)
        key = cfg.matrix("2").key()
        if key in seen:
            continue
        seen.add(key)
        matching_orders.append(_closure(cfg, budget=100).order)

    violating_orders = []
    seen.clear()
    ident = Mat2.identity(f)
    while len(violating_orders) < 20:
        m = Mat2(rng.choice(pool), rng.choice(pool),
                 rng.choice(pool), rng.choice(pool))
        if m.det().is_zero() or (m - ident).det().is_zero():
            continue
        if m.det() == one and m.trace() == one:
            continue
        if m.key() in seen:
            continue
        seen.add(m.key())
        cfg = LineConfig(f, [ident, m])
        violating_orders.append(_closure(cfg, budget=120).order)

    print(f"criterion 8 sampled orders: det=tr=1 -> {sorted(set(matching_orders))}, "
          f"violating -> {sorted(set(violating_orders))}")
    _report(8, "det = tr = 1 forces order 3 on four lines", [
        ("all 20 det=tr=1 samples close to order 3", [3] * 20, matching_orders),
        ("no violating sample closes to order 3", True,
         all(o != 3 for o in violating_orders)),
    ])


def test_criterion_09a_oracle_equivalence():
    started = time.monotonic()
    mismatches = []
    total = 0

    golden_seeds = [
        (a4_example().config, "[0:0:0:1]"),
        (s4_example().config, "[0:0:0:1]"),
        (a5_example().config, "[0:0:0:1]"),
        (_affine_f5_variant(), "[0:0:0:1]"),
        (elementary_abelian(3).config, "[0:0:0:1]"),
    ]
    for cfg, text in golden_seeds:
        gens, G = _pipeline(cfg)
        seed = p3_from_string(cfg.field, text)
        fast = orbit_full(cfg, seed, G, gens)
        total += 1
        if not _certified(cfg, fast):
            mismatches.append(f"golden config over {cfg.field!r}")

    for cfg in _random_4line_corpus(seed=99):
        gens, G = _pipeline(cfg, budget=100)
        seed = point_on_line(cfg, "1", _generic_parameter(cfg, G))
        fast = orbit_full(cfg, seed, G, gens)
        total += 1
        if not _certified(cfg, fast):
            mismatches.append(f"random config {cfg.to_json()['lines']}")

    elapsed = time.monotonic() - started
    _report("9a", f"the plane oracle certifies every transport orbit "
                  f"({total} configurations)", [
        ("refused configurations", [], mismatches),
        ("runtime below 60 s", True, elapsed < 60.0),
    ])


def test_criterion_09b_orbit_stabilizer_identity():
    started = time.monotonic()
    failures = []
    count = 0
    for cfg in _golden_corpus():
        f = cfg.field
        gens, G = _pipeline(cfg)
        seeds = [p3_from_string(f, "[0:0:0:1]"),
                 p3_from_string(f, "[1:0:0:0]"),
                 p3_from_string(f, "[1:1:1:1]")]
        if f.characteristic == 0:
            # over a finite field every point of the line can carry a
            # stabilizer, so free seeds only exist in characteristic zero
            seeds.append(point_on_line(cfg, "inf", _generic_parameter(cfg, G)))
        for seed in seeds:
            rep = orbit_full(cfg, seed, G, gens)
            count += 1
            if rep.per_line_sizes[rep.carrier] * rep.stabilizer_order != G.order:
                failures.append(f"{seed!r} over {f!r}: "
                                f"{rep.per_line_sizes[rep.carrier]} * "
                                f"{rep.stabilizer_order} != {G.order}")
            if rep.total_size != sum(rep.per_line_sizes.values()):
                failures.append(f"{seed!r} over {f!r}: inconsistent totals")
    elapsed = time.monotonic() - started
    _report("9b", f"orbit size times stabilizer equals group order "
                  f"({count} completed orbits)", [
        ("violations", [], failures),
        ("runtime below 60 s", True, elapsed < 60.0),
    ])


def test_criterion_09c_generator_mode_equivalence():
    started = time.monotonic()
    failures = []
    corpus = _golden_corpus()
    for cfg in corpus:
        full = group_closure(generator_set(cfg, mode="all_triples"), budget=5000)
        diff = group_closure(generator_set(cfg, mode="differences"), budget=5000)
        if {g.key() for g in full.elements} != {g.key() for g in diff.elements}:
            failures.append(f"config over {cfg.field!r}")
    elapsed = time.monotonic() - started
    _report("9c", f"all-triples and difference generators close identically "
                  f"({len(corpus)} configurations)", [
        ("mismatching configurations", [], failures),
        ("runtime below 60 s", True, elapsed < 60.0),
    ])


def test_criterion_09d_no_dihedral_anywhere():
    started = time.monotonic()
    offenders = []
    corpus = _golden_corpus() + _random_4line_corpus(seed=7)
    for cfg in corpus:
        G = _closure(cfg, budget=5000)
        cls = classify(G)
        if cls.label.startswith("dihedral") or cls.theorem_violation:
            offenders.append(f"{cls.label} over {cfg.field!r}")
    elapsed = time.monotonic() - started
    _report("9d", f"no configuration closes to a dihedral group "
                  f"({len(corpus)} configurations)", [
        ("dihedral classifications", [], offenders),
        ("runtime below 60 s", True, elapsed < 60.0),
    ])


def test_criterion_09e_abelian_prediction_agrees():
    started = time.monotonic()
    disagreements = []
    corpus = _golden_corpus() + _random_4line_corpus(seed=13)
    for cfg in corpus:
        predicted = predict_abelian(cfg).abelian
        actual = _closure(cfg, budget=5000).is_abelian()
        if predicted != actual:
            disagreements.append(
                f"predicted {predicted}, closed {actual} over {cfg.field!r}")
    elapsed = time.monotonic() - started
    _report("9e", f"commutation of the matrices predicts commutativity of "
                  f"the closure ({len(corpus)} configurations)", [
        ("disagreements", [], disagreements),
        ("runtime below 60 s", True, elapsed < 60.0),
    ])


def test_criterion_10_infinite_group_witness(tmp_path, capsys):
    cfg = LineConfig(Q, [Mat2.identity(Q),
                         Mat2.diag(Q.from_int(4), Q.from_int(2))])
    ratios = eigratio_check(generator_set(cfg))
    statuses = {entry["status"] for entry in ratios.entries}

    path = tmp_path / "unbounded.json"
    path.write_text(json.dumps(cfg.to_json()))
    code = main(["group", str(path), "--json", "--budget", "5000"])
    payload = json.loads(capsys.readouterr().out)
    _report(10, "non-root-of-unity eigenvalue ratio certifies an infinite "
                "group", [
        ("an eigenvalue ratio is flagged as not a root of unity", True,
         "not_root_of_unity" in statuses),
        ("the report carries an infinite witness", True,
         ratios.infinite_witness),
        ("closure stops at the element budget", True, payload["budget_hit"]),
        ("partial closure order equals the budget", 5000, payload["order"]),
        ("command exits with the budget code", 2, code),
    ])
