"""Generator triples, group closure, classification, and the ratio test."""

import functools
import importlib
import itertools
import random
import sys
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skewlines import groupoid, matrices
from skewlines.analyze import analyze
from skewlines.configs import InvalidConfiguration, InvalidIndex, LineConfig
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
    Field,
    FieldElement,
    Reduction,
    cyclotomic_field,
    extension_field,
    prime_field,
    rational_field,
    reduction_at,
)
from skewlines.groupoid import (
    DEFAULT_BUDGET,
    GeneratorSet,
    GroupClosure,
    IncompleteClosure,
    IndexCollision,
    _try_affine,
    classify,
    eigratio_check,
    generator,
    generator_set,
    group_closure,
    ratio_order,
)
from skewlines.matrices import (
    Mat2,
    ProjElem,
    ProjPoint,
    _commutation,
    _entries,
    eigenvectors,
    fixes_point,
    moebius_apply,
    proj_identity,
    proj_normalize,
    proj_order,
)
from skewlines.orbits import point_on_line

Q = rational_field()
F5 = prime_field(5)
F7 = prime_field(7)


def mat(field, rows):
    return Mat2.from_rows(field, rows)


def diag_config(field, *entries):
    mats = [Mat2.identity(field)]
    mats += [Mat2.diag(field.parse(str(a)), field.parse(str(d)))
             for a, d in entries]
    return LineConfig(field, mats)


def closure_of(cfg, mode="all_triples", budget=5000):
    return group_closure(generator_set(cfg, mode=mode), budget=budget)


def element_keys(G) -> set:
    return {g.key() for g in G.elements}


def closure_json(G) -> dict:
    return {"order": G.order, "budget_hit": G.budget_hit,
            "elements": [g.to_json() for g in G.elements]}


def generator_set_json(gens) -> dict:
    return {"mode": gens.mode,
            "elements": [{"matrix": g.to_json(),
                          "triples": [list(t) for t in gens.provenance[g]]}
                         for g in gens.elements]}


def all_roots_of_unity(report) -> bool:
    return all(e["status"] == "root_of_unity" for e in report.entries)


def point_from_json(field, pair) -> ProjPoint:
    return ProjPoint(*(field.element_from_json(x) for x in pair))


def element_order(g: ProjElem, bound: int):
    """Least n <= bound with g^n = identity in PGL2, or None: the order
    classify reads for g alone."""
    return groupoid._orders([g], bound)[0][0]


# ---------------------------------------------------------------------------
# single generators


def test_generator_via_zero_line():
    # routing through the zero line recovers the matrix class itself
    cfg = diag_config(Q, (2, 7), (3, 11))
    m3 = cfg.matrix("3")
    assert generator(cfg, "3", "1", "0") == proj_normalize(m3)


def test_generator_target_infinity_is_identity():
    cfg = diag_config(Q, (2, 7), (3, 11))
    assert generator(cfg, "3", "1", "inf").is_identity()


def test_generator_middle_infinity_is_difference():
    cfg = diag_config(Q, (2, 7), (3, 11))
    diff = cfg.matrix("3") - Mat2.identity(Q)
    assert generator(cfg, "3", "inf", "1") == proj_normalize(diff)


def test_generator_source_infinity_is_inverse_difference():
    cfg = diag_config(Q, (2, 7), (3, 11))
    diff = proj_normalize(cfg.matrix("3") - Mat2.identity(Q))
    assert generator(cfg, "inf", "3", "1") == diff.inv()


def test_generator_general_triple():
    cfg = diag_config(Q, (2, 7), (3, 11))
    m2, m3 = cfg.matrix("2"), cfg.matrix("3")
    one = Mat2.identity(Q)
    want = proj_normalize((m3 - one).adjugate() * (m2 - one))
    assert generator(cfg, "2", "3", "1") == want


def test_generator_through_identity_line():
    # the three-line group is generated by [M2] and [M2 - M1]
    cfg = diag_config(Q, (2, 7))
    diff = cfg.matrix("2") - Mat2.identity(Q)
    assert generator(cfg, "2", "0", "1") == proj_normalize(diff)


def test_generator_accepts_integer_labels():
    cfg = diag_config(Q, (2, 7), (3, 11))
    assert generator(cfg, 2, 0, 1) == generator(cfg, "2", "0", "1")


def test_generator_rejects_repeated_labels():
    cfg = diag_config(Q, (2, 7), (3, 11))
    with pytest.raises(IndexCollision):
        generator(cfg, "1", "1", "2")
    with pytest.raises(IndexCollision):
        generator(cfg, 1, "1", "2")


def test_generator_rejects_unknown_label():
    cfg = diag_config(Q, (2, 7))
    with pytest.raises(InvalidIndex):
        generator(cfg, "1", "2", "9")


def test_generator_requires_valid_configuration():
    bad = diag_config(Q, (2, 1))  # shares an eigenline value with identity
    with pytest.raises(InvalidConfiguration):
        generator(bad, "2", "1", "0")


# ---------------------------------------------------------------------------
# generator sets


def test_all_triples_provenance_is_complete():
    cfg = diag_config(Q, (2, 7))
    gens = generator_set(cfg)
    triples = [t for ts in gens.provenance.values() for t in ts]
    labels = cfg.labels()
    expected = {
        (i, j, k)
        for i in labels for j in labels for k in labels
        if len({i, j, k}) == 3
    }
    assert len(triples) == len(expected) == 24
    assert set(triples) == expected


def test_differences_mode_uses_finite_pairs():
    cfg = diag_config(Q, (2, 7))
    gens = generator_set(cfg, mode="differences")
    triples = [t for ts in gens.provenance.values() for t in ts]
    assert len(triples) == 6  # ordered pairs of the three finite lines
    assert all(t[1] == "inf" for t in triples)


def test_generator_set_is_sorted_and_deduplicated():
    gens = generator_set(diag_config(Q, (2, 7), (3, 11)))
    keys = [g.key() for g in gens.elements]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def test_generator_modes_agree_on_closure():
    for cfg in (diag_config(F5, (2, 3), (3, 2)),
                s4_example().config,
                a4_example().config):
        all_t = closure_of(cfg, mode="all_triples")
        diffs = closure_of(cfg, mode="differences")
        assert element_keys(all_t) == element_keys(diffs)


def test_differences_mode_needs_infinity_line():
    # lines 0, M1, M2 over F_5 with no infinity line: G is cyclic(6), but the
    # classes [M_a - M_b] are not F_{a,inf,b} here and close to order 120
    cfg = LineConfig(F5, [mat(F5, [["3", "2"], ["0", "3"]]),
                          mat(F5, [["4", "0"], ["1", "2"]])],
                     include_infinity=False)
    assert cfg.validation.valid
    assert classify(closure_of(cfg)).label == "cyclic(6)"
    with pytest.raises(ValueError, match="infinity line"):
        generator_set(cfg, mode="differences")
    with pytest.raises(ValueError, match="infinity line"):
        analyze(cfg, mode="differences")


def _random_f5_matrix(rng):
    return mat(F5, [[str(rng.randrange(5)) for _ in range(2)] for _ in range(2)])


def test_generator_modes_agree_with_infinity_but_no_zero_line():
    # F_{a,inf,b} = [M_a - M_b] whenever inf is a line, so the two sets
    # generate the same group with or without line 0
    rng = random.Random(6)
    checked = 0
    while checked < 40:
        cfg = LineConfig(F5, [_random_f5_matrix(rng) for _ in range(rng.randint(2, 4))],
                         include_zero=False)
        if not cfg.validation.valid:
            continue
        all_t = closure_of(cfg, mode="all_triples")
        diffs = closure_of(cfg, mode="differences")
        assert all_t.order == diffs.order
        assert element_keys(all_t) == element_keys(diffs)
        checked += 1


def test_unknown_generator_mode_rejected():
    with pytest.raises(ValueError):
        generator_set(diag_config(Q, (2, 7)), mode="bogus")


def test_minimal_configuration_generates_trivially():
    cfg = LineConfig(Q, [Mat2.identity(Q)])
    gens = generator_set(cfg)
    assert len(gens.elements) == 1 and gens.elements[0].is_identity()
    assert classify(group_closure(gens)).label == "trivial"


def test_generator_set_json_shape():
    gens = generator_set(diag_config(Q, (2, 7)), mode="differences")
    blob = generator_set_json(gens)
    assert blob["mode"] == "differences"
    for entry in blob["elements"]:
        assert isinstance(entry["matrix"], list)
        assert all(len(t) == 3 for t in entry["triples"])


# ---------------------------------------------------------------------------
# closure


def test_closure_is_group():
    G = closure_of(standard_construction(5).config)
    assert G.order == 10
    keys = element_keys(G)
    for g in G.elements:
        assert g.inv().key() in keys
        for h in G.elements:
            assert (g * h).key() in keys


def test_closure_is_deterministic():
    cfg = s4_example().config
    first = [g.key() for g in closure_of(cfg).elements]
    second = [g.key() for g in closure_of(cfg).elements]
    assert first == second
    assert closure_of(cfg).elements[0].is_identity()


def test_generators_and_closure_form_no_determinant(monkeypatch):
    # validation proved every difference nonsingular, and a product of
    # classes is a class: neither the transport maps nor the closure
    # products need a determinant
    cfg = affine(5).config
    expected = closure_json(group_closure(generator_set(cfg)))

    def refuse(self):
        raise AssertionError("determinant formed")

    monkeypatch.setattr(Mat2, "det", refuse)
    G = group_closure(generator_set(cfg))
    assert G.order == 200
    assert closure_json(G) == expected


def test_closure_budget_stops_infinite_group():
    G = closure_of(diag_config(Q, (4, 2)), budget=50)
    assert G.budget_hit
    assert G.order == 50


def test_closure_rejects_bad_budget_and_closes_empty_set_to_trivial():
    gens = generator_set(diag_config(Q, (2, 7)))
    with pytest.raises(ValueError):
        group_closure(gens, budget=0)
    empty = GeneratorSet(elements=[], provenance={}, mode="all_triples", field=Q)
    with pytest.raises(ValueError):
        group_closure(empty, budget=0)
    # <empty set> = {1}
    G = group_closure(empty, budget=1)
    assert [g.key() for g in G.elements] == [proj_identity(Q).key()]
    assert G.generators == [] and not G.budget_hit and G.budget == 1
    assert element_keys(G) == {proj_identity(Q).key()}
    assert classify(G).label == "trivial"


def test_closure_membership():
    cfg = standard_construction(5).config
    f = cfg.field
    G = closure_of(cfg)
    assert proj_identity(f).key() in element_keys(G)
    outsider = proj_normalize(Mat2.diag(f.from_int(7), f.one()))
    assert outsider.key() not in element_keys(G)


def test_closure_abelian_detection():
    assert closure_of(standard_construction(5).config).is_abelian()
    assert not closure_of(s4_example().config).is_abelian()


def test_order_census_of_six_cycle():
    G = closure_of(standard_construction(3).config)
    assert classify(G).census == {1: 1, 2: 1, 3: 2, 6: 2}


def test_closure_json_shape():
    G = closure_of(standard_construction(3).config)
    blob = closure_json(G)
    assert blob["order"] == 6
    assert blob["budget_hit"] is False
    assert len(blob["elements"]) == 6


# ---------------------------------------------------------------------------
# the closure keyed by point images against the product-keyed reference walk


def _reference_closure(gens, budget=DEFAULT_BUDGET):
    """Breadth-first closure that forms and canonicalizes every product x * g
    and knows it by its matrix key."""
    ident = proj_identity(gens.field)
    mults = [g for g in gens.elements if not g.is_identity()]
    elements, seen = [ident], {ident.key()}
    budget_hit = False
    idx = 0
    while idx < len(elements) and not budget_hit:
        x = elements[idx]
        for g in mults:
            y = x * g
            k = y.key()
            if k in seen:
                continue
            if len(elements) >= budget:
                budget_hit = True
                break
            seen.add(k)
            elements.append(y)
        idx += 1
    return GroupClosure(elements=elements, generators=mults,
                        budget_hit=budget_hit, budget=budget)


def _assert_closure_matches_reference(gens, budget):
    G = group_closure(gens, budget=budget)
    R = _reference_closure(gens, budget=budget)
    assert [g.key() for g in G.elements] == [g.key() for g in R.elements]
    assert element_keys(G) == element_keys(R)
    assert G.generators == R.generators
    assert (G.budget_hit, G.budget) == (R.budget_hit, R.budget)
    return G


_REFERENCE_FAMILIES = {
    "standard5": lambda: standard_construction(5),
    "c3_scaled2": lambda: c3_scaled(2),
    "cyclic_4line33": lambda: cyclic_4line(3, 3),
    "elementary_abelian3": lambda: elementary_abelian(3),
    "elementary_abelian5": lambda: elementary_abelian(5),
    "affine3": lambda: affine(3),
    "affine5": lambda: affine(5),
    "a4": a4_example,
    "s4": s4_example,
    "a5": a5_example,
}


@pytest.mark.parametrize("mode", ["all_triples", "differences"])
@pytest.mark.parametrize("name", sorted(_REFERENCE_FAMILIES))
def test_closure_matches_the_product_keyed_reference_on_families(name, mode):
    fam = _REFERENCE_FAMILIES[name]()
    gens = generator_set(fam.config, mode=mode)
    for budget in (1, 7, DEFAULT_BUDGET):
        G = _assert_closure_matches_reference(gens, budget)
    assert G.order == fam.expected_order and not G.budget_hit


@pytest.mark.parametrize("mode", ["all_triples", "differences"])
def test_closure_matches_the_reference_prefix_on_an_infinite_group(mode):
    # lines 0, inf, I, diag(4, 2) generate an infinite group
    G = _assert_closure_matches_reference(
        generator_set(diag_config(Q, (4, 2)), mode=mode), 200)
    assert G.budget_hit and G.order == 200


_CLOSURE_FIELDS = [
    prime_field(2), prime_field(3),
    extension_field(prime_field(2), [1, 1, 1]),  # F_4
    F5, F7,
    extension_field(prime_field(2), [1, 1, 0, 1]),  # F_8: z^3 = z + 1
    extension_field(prime_field(3), [1, 0, 1]),  # F_9: z^2 = -1
    extension_field(prime_field(2), [1, 1, 0, 0, 1]),  # F_16: z^4 = z + 1
    extension_field(F5, [3, 0, 1]),  # F_25: z^2 = 2
    extension_field(prime_field(3), [1, 2, 0, 1]),  # F_27: z^3 = z + 2
    extension_field(F7, [4, 0, 1]),  # F_49: z^2 = 3
    cyclotomic_field(8),
]


@st.composite
def _random_generator_sets(draw):
    f = draw(st.sampled_from(_CLOSURE_FIELDS))

    def entry():
        return f.from_coeffs(draw(st.lists(
            st.integers(min_value=-2, max_value=2),
            min_size=f.degree, max_size=f.degree)))

    gens = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        m = Mat2(entry(), entry(), entry(), entry())
        assume(m.det())
        gens.append(proj_normalize(m))
    gens = sorted(set(gens), key=lambda g: g.key())
    budget = draw(st.sampled_from([1, 5, 40, 150]))
    return GeneratorSet(elements=gens, provenance={g: [] for g in gens},
                        mode="all_triples", field=f), budget


@given(_random_generator_sets())
@settings(max_examples=60, deadline=None)
def test_hypothesis_closure_matches_the_product_keyed_reference(case):
    gens, budget = case
    _assert_closure_matches_reference(gens, budget)


def test_closure_forms_one_product_per_new_element(monkeypatch):
    # the set is assembled first: its class products are not the closure's
    gens = generator_set(affine(5).config)
    products = []
    plain = ProjElem.__mul__

    def counted(self, other):
        products.append(1)
        return plain(self, other)

    monkeypatch.setattr(ProjElem, "__mul__", counted)
    for budget in (50, DEFAULT_BUDGET):
        products.clear()
        G = group_closure(gens, budget=budget)
        assert len(products) == G.order - 1


# ---------------------------------------------------------------------------
# integer point ids keyed mod p against the walk keyed by exact point tuples


def _memo_point_image(f, m, q, one, zero):
    """The image of the point q of P^1 under the matrix with raw entries m,
    scaled so that its last nonzero coordinate is exactly 1."""
    (an, ad), (bn, bd), (cn, cd), (dn, dd) = m
    (xn, xd), (yn, yd) = q
    x = f._dot(an, ad, xn, xd, bn, bd, yn, yd)
    y = f._dot(cn, cd, xn, xd, dn, dd, yn, yd)
    if not any(y[0]):
        return one, zero
    if y == one or not any(x[0]):
        return x, one
    return f._mul(*x, *f._inv(*y)), one


def _memo_walk_closure(gens, budget=DEFAULT_BUDGET):
    """The closure keyed by the exact images of [1:0], [0:1] and [1:1]
    under each element's inverse: every generator memoizes the normalized
    image of each point it has moved, by the point's coordinate tuple."""
    f = gens.field
    ident = proj_identity(f)
    one, zero = _entries(ident.rep)[:2]
    mults = [g for g in gens.elements if not g.is_identity()]
    adjs = [_entries(g.rep.adjugate()) for g in mults]
    memos = [{} for _ in mults]
    elements = [ident]
    images = [((one, zero), (zero, one), (one, one))]
    seen = set(images)
    budget_hit = False
    idx = 0
    while idx < len(elements) and not budget_hit:
        qs = images[idx]
        for g, adj, memo in zip(mults, adjs, memos):
            for q in qs:
                if q not in memo:
                    memo[q] = _memo_point_image(f, adj, q, one, zero)
            key = tuple(memo[q] for q in qs)
            if key in seen:
                continue
            if len(elements) >= budget:
                budget_hit = True
                break
            seen.add(key)
            elements.append(elements[idx] * g)
            images.append(key)
        idx += 1
    return GroupClosure(elements=elements, generators=mults,
                        budget_hit=budget_hit, budget=budget)


def _assert_closure_matches_memo_walk(gens, budget=DEFAULT_BUDGET):
    G = group_closure(gens, budget=budget)
    R = _memo_walk_closure(gens, budget=budget)
    assert [g.key() for g in G.elements] == [g.key() for g in R.elements]
    assert (G.budget_hit, G.budget) == (R.budget_hit, R.budget)
    return G


_POINT_ID_FAMILIES = {
    "a4": a4_example,
    "s4": s4_example,
    "a5": a5_example,
    **{f"standard{n}": functools.partial(standard_construction, n)
       for n in range(3, 17)},
    "affine5": lambda: affine(5),
    "affine7": lambda: affine(7),
    "elementary_abelian5": lambda: elementary_abelian(5),
    "c3_scaled2": lambda: c3_scaled(2),
    "cyclic_4line33": lambda: cyclic_4line(3, 3),
}


@pytest.mark.parametrize("name", list(_POINT_ID_FAMILIES))
def test_point_ids_match_the_memo_walk_on_families(name):
    fam = _POINT_ID_FAMILIES[name]()
    gens = generator_set(fam.config)
    # the smaller budgets stop the walk part of the way
    for budget in (1, 7, fam.expected_order // 2 + 1, DEFAULT_BUDGET):
        G = _assert_closure_matches_memo_walk(gens, budget)
    assert G.order == fam.expected_order and not G.budget_hit


# ---------------------------------------------------------------------------
# the sift: a generator the kept ones before it generate composes their moves


@pytest.mark.parametrize("name, most", [
    ("a4", {"image": 57}), ("s4", {"image": 63}),
    ("a5", {"image": 138, "_dot": 512, "_mul": 239}),
])
def test_closure_images_points_by_the_kept_generators_alone(monkeypatch, name, most):
    # a derived generator's key costs three images, and every other move
    # it makes is composed from the kept ones' moves, so the closure forms
    # at most kept |S| + 3 derived images; every generator imaged every
    # point before the sift: 72, 72 and 480 images, and 1 196 _dot and 555
    # _mul on a5
    fam = _POINT_ID_FAMILIES[name]()
    gens = generator_set(fam.config)
    calls = Counter()
    image = groupoid._PointIds.image
    monkeypatch.setattr(groupoid._PointIds, "image",
                        lambda self, *a: calls.update(["image"]) or image(self, *a))
    for kernel in ("_mul", "_dot"):
        fn = getattr(Field, kernel)
        monkeypatch.setattr(Field, kernel, lambda self, *a, _fn=fn, _name=kernel:
                            calls.update([_name]) or _fn(self, *a))
    G = group_closure(gens)
    monkeypatch.undo()
    assert G.order == fam.expected_order
    moves = [G.points.moves(g) for g in G.generators]
    kept = sum(m.word is None for m in moves)
    assert calls["image"] <= kept * len(G.points.points) + 3 * (len(moves) - kept)
    over = {k: calls[k] for k, bound in most.items() if calls[k] > bound}
    assert not over, over


def test_translation_closure_at_the_budget_matches_the_memo_walk():
    # lines 0, inf, I and [[2, 2], [0, 2]] over Q: G = {t -> t + m} is
    # infinite, and so is the group of the first generator alone, which an
    # uncapped sift would walk without end.  Capped at budget // k
    # elements, it meets no point here that the walk does not, so the
    # table holds the 5 003 points it held before the sift
    cfg = LineConfig(Q, [Mat2.identity(Q), mat(Q, [["2", "2"], ["0", "2"]])])
    gens = generator_set(cfg)
    mults = [g for g in gens.elements if not g.is_identity()]
    cap = DEFAULT_BUDGET // len(mults)
    assert groupoid._sift(groupoid._PointIds(Q), mults, cap) is None
    G = _assert_closure_matches_memo_walk(gens)
    assert G.budget_hit and G.order == DEFAULT_BUDGET
    assert len(G.points.points) <= 5003


def test_closure_past_the_sift_cap_matches_the_memo_walk():
    # affine p=11 has 19 generators and 2 420 elements, so at the default
    # budget the sift stops at 5 000 // 19 = 263 elements, and the
    # generators it has not reached image exactly
    fam = affine(11)
    gens = generator_set(fam.config)
    mults = [g for g in gens.elements if not g.is_identity()]
    cap = DEFAULT_BUDGET // len(mults)
    assert groupoid._sift(groupoid._PointIds(gens.field), mults, cap) is None
    for budget in (1, 7, fam.expected_order // 2 + 1, DEFAULT_BUDGET):
        G = _assert_closure_matches_memo_walk(gens, budget)
    assert G.order == fam.expected_order and not G.budget_hit


QI = cyclotomic_field(4)


@st.composite
def _sift_configs(draw):
    """Lines 0, inf, I and one or two matrices over F_5, F_7 or Q(i), whose
    entries there are a + b i with |a|, |b| <= 2."""
    f = draw(st.sampled_from([F5, F7, QI]))
    if f is QI:
        small = st.integers(-2, 2)
        entry = st.tuples(small, small).map(lambda ab: QI.from_coeffs(list(ab)))
    else:
        entry = st.integers(0, f.characteristic - 1).map(f.from_int)
    mats = [Mat2.identity(f)]
    for _ in range(draw(st.integers(1, 2))):
        mats.append(Mat2(*(draw(entry) for _ in range(4))))
    cfg = LineConfig(f, mats)
    assume(cfg.validation.valid)
    return cfg


@settings(max_examples=30, deadline=None)
@given(_sift_configs())
def test_hypothesis_sifted_closure_matches_the_memo_walk(cfg):
    # budgets 1, 7, |G|/2 + 1 and the default; an infinite group over Q(i)
    # takes about a second a walk at the default budget, so a group the
    # probe budget of 120 stops is walked to 120 instead
    gens = generator_set(cfg)
    probe = group_closure(gens, budget=120)
    top = 120 if probe.budget_hit else DEFAULT_BUDGET
    for budget in (1, 7, probe.order // 2 + 1, top):
        _assert_closure_matches_memo_walk(gens, budget)


def _zeta5_config(b="1"):
    f = cyclotomic_field(5)
    one = f.one()
    return LineConfig(f, [Mat2.identity(f), Mat2(f.gen(), f.parse(b), one, one)])


@pytest.mark.parametrize("make, p", [
    pytest.param(lambda: LineConfig(Q, [Mat2.identity(Q), mat(Q, [[2, 1], [1, 1]])]),
                 3, id="q-3"),
    pytest.param(lambda: LineConfig(Q, [Mat2.identity(Q), mat(Q, [[2, 1], [1, 1]])]),
                 7, id="q-7"),
    pytest.param(_zeta5_config, 11, id="zeta5-11"),
])
def test_point_key_collisions_at_a_small_prime_fail_the_exact_check(
        monkeypatch, make, p):
    # both groups are infinite, so the walk meets more points than the
    # p + 1 of P^1(F_p) before its budget: distinct points share keys, and
    # some key hits must be refused by the exact check
    cfg = make()
    f = cfg.field
    gens = generator_set(cfg)
    want = _memo_walk_closure(gens, budget=150)
    red = reduction_at(f, p)
    monkeypatch.setattr(f, "reduction", lambda: red)
    outcomes = []
    same = groupoid._same_point
    monkeypatch.setattr(groupoid, "_same_point",
                        lambda *a: outcomes.append(same(*a)) or outcomes[-1])
    G = group_closure(gens, budget=150)
    assert [g.key() for g in G.elements] == [g.key() for g in want.elements]
    assert G.budget_hit and want.budget_hit
    assert False in outcomes and True in outcomes


def test_points_with_undefined_keys_are_looked_up_exactly(monkeypatch):
    # an entry 1/p, for the prime p at which Q(zeta_5) reduces, puts p in
    # the denominators of points the walk meets; the group is infinite
    p = cyclotomic_field(5).reduction().p
    gens = generator_set(_zeta5_config(f"1/{p}"))
    images = []
    image = Reduction.image
    monkeypatch.setattr(Reduction, "image",
                        lambda *a: images.append(image(*a)) or images[-1])
    for budget in (1, 40, 150):
        assert _assert_closure_matches_memo_walk(gens, budget).budget_hit
    assert None in images


def test_closure_inverts_once_per_point_met_and_new_element(monkeypatch):
    # a new element costs one inversion in its canonical form, and a new
    # point one in its normalization; a point met again costs none, where
    # the memo walk normalized every image a generator formed (475 calls)
    cfg = a5_example().config
    f = cfg.field
    gens = generator_set(cfg)
    calls = []
    inv = Field._inv
    monkeypatch.setattr(Field, "_inv", lambda self, *a: calls.append(1) or inv(self, *a))
    G = group_closure(gens)
    inversions = len(calls)
    monkeypatch.undo()
    one, zero = f.one(), f.zero()
    # the walk meets exactly the images of the three base points under
    # the inverses of the elements
    met = {moebius_apply(g.inv(), ProjPoint(*q)) for g in G.elements
           for q in ((one, zero), (zero, one), (one, one))}
    assert G.order == 60
    assert 0 < inversions <= len(met) + G.order - 1


def test_closure_over_a_tabled_field_calls_no_polynomial_kernel(monkeypatch):
    gens = generator_set(affine(11).config)

    def refuse(*args):
        raise AssertionError("polynomial kernel called")

    monkeypatch.setattr(Field, "_conv", staticmethod(refuse))
    monkeypatch.setattr(Field, "_inv_bareiss", refuse)
    assert group_closure(gens).order == 2420


# ---------------------------------------------------------------------------
# one transport table: generator() and both modes share the D_ab formula

_TRANSPORT_FAMILIES = [
    standard_construction(3), standard_construction(6), c3_scaled(2),
    cyclic_4line(3, 3), elementary_abelian(3), affine(3),
    a4_example(), s4_example(), a5_example(),
]


def _transport_configs():
    yield from (fam.config for fam in _TRANSPORT_FAMILIES)
    # without line 0, and without the infinity line
    yield LineConfig(F5, [mat(F5, [["3", "2"], ["0", "3"]]),
                          mat(F5, [["4", "0"], ["1", "2"]]),
                          Mat2.identity(F5)], include_zero=False)
    yield LineConfig(F5, [mat(F5, [["3", "2"], ["0", "3"]]),
                          mat(F5, [["4", "0"], ["1", "2"]])],
                     include_infinity=False)


@pytest.mark.parametrize("cfg", list(_transport_configs()), ids=repr)
def test_generator_equals_generator_set_class_of_every_triple(cfg):
    gens = generator_set(cfg)
    triples = [t for ts in gens.provenance.values() for t in ts]
    assert triples and len(triples) == len(set(triples))
    assert set(triples) == set(itertools.permutations(cfg.labels(), 3))
    for g, ts in gens.provenance.items():
        for t in ts:
            assert generator(cfg, *t) == g


@pytest.mark.parametrize("cfg", [c for c in _transport_configs() if c.include_infinity],
                         ids=repr)
def test_differences_provenance_is_the_triples_through_infinity(cfg):
    diffs = generator_set(cfg, mode="differences")
    through_inf = {}
    for g, ts in generator_set(cfg).provenance.items():
        kept = [t for t in ts if t[1] == "inf"]
        if kept:
            through_inf[g] = kept
    assert diffs.provenance == through_inf  # same triples, same order per class
    assert diffs.elements == sorted(through_inf, key=lambda g: g.key())


def test_difference_is_m_a_minus_m_b_with_zero_line_zero():
    cfg = diag_config(Q, (2, 7), (3, 11))
    finite = [lab for lab in cfg.labels() if lab != "inf"]
    for a, b in itertools.permutations(finite, 2):
        assert cfg.difference(a, b) == cfg.matrix(a) - cfg.matrix(b)
    for a, b in (("1", "1"), ("inf", "1"), ("1", "9")):
        with pytest.raises(InvalidIndex):
            cfg.difference(a, b)


def test_generator_set_validates_once_and_never_calls_generator(monkeypatch):
    checks = []
    plain = LineConfig.require_valid

    def counted(self):
        checks.append(1)
        return plain(self)

    def refuse(*args, **kwargs):
        raise AssertionError("generator() called")

    monkeypatch.setattr(LineConfig, "require_valid", counted)
    monkeypatch.setattr(sys.modules["skewlines.groupoid"], "generator", refuse)
    cfg = a4_example().config
    for mode in ("all_triples", "differences"):
        checks.clear()
        generator_set(cfg, mode=mode)
        assert len(checks) == 1


def test_analyze_with_orbit_builds_one_set_and_calls_no_generator(monkeypatch):
    calls = []

    def counted(cfg, mode="all_triples"):
        calls.append(mode)
        return generator_set(cfg, mode=mode)

    def refuse(*args, **kwargs):
        raise AssertionError("generator() called")

    for name, module in list(sys.modules.items()):
        if name == "skewlines" or name.startswith("skewlines."):
            if getattr(module, "generator", None) is generator:
                monkeypatch.setattr(module, "generator", refuse)
            if getattr(module, "generator_set", None) is generator_set:
                monkeypatch.setattr(module, "generator_set", counted)
    cfg = a4_example().config
    f = cfg.field
    seed = point_on_line(cfg, "inf", ProjPoint(f.zero(), f.one()))
    report = analyze(cfg, seed=seed, oracle=True)
    assert calls == ["all_triples"]
    assert report.orbit["oracle_agrees"] is True


# ---------------------------------------------------------------------------
# generator assembly by products of difference classes: the same set as
# canonicalizing every triple


def _reference_generator_set(cfg, mode):
    """Elements and provenance with every triple canonicalized on its own."""
    provenance = {}
    for t in itertools.permutations(cfg.labels(), 3):
        if mode == "differences" and t[1] != "inf":
            continue
        provenance.setdefault(generator(cfg, *t), []).append(t)
    return sorted(provenance, key=lambda g: g.key()), provenance


def _assert_matches_reference(cfg, modes=("all_triples", "differences")):
    for mode in modes:
        gens = generator_set(cfg, mode=mode)
        elements, provenance = _reference_generator_set(cfg, mode)
        assert gens.elements == elements
        assert [g.key() for g in gens.elements] == [g.key() for g in elements]
        assert list(gens.provenance.items()) == list(provenance.items())
        assert generator_set_json(gens) == generator_set_json(GeneratorSet(
            elements=elements, provenance=provenance, mode=mode,
            field=cfg.field))


_ASSEMBLY_FAMILIES = {
    **{f"standard{n}": functools.partial(standard_construction, n)
       for n in [*range(3, 17), 18, 20]},
    "a4": a4_example, "s4": s4_example, "a5": a5_example,
    "c3_scaled3": lambda: c3_scaled(3),
    "cyclic_4line": lambda: cyclic_4line(3, 4),
    "affine5": lambda: affine(5),
    "elementary_abelian5": lambda: elementary_abelian(5),
}


@pytest.mark.parametrize("name", list(_ASSEMBLY_FAMILIES))
def test_generator_set_matches_every_triple_reference(name):
    _assert_matches_reference(_ASSEMBLY_FAMILIES[name]().config)


def _integer_config(field, mats, include_zero=True):
    return LineConfig(field, [Mat2(*(field.from_coeffs(c) for c in m)) for m in mats],
                      include_zero=include_zero)


@st.composite
def _integer_configs(draw, fields):
    field = draw(st.sampled_from(fields))
    coeff = st.lists(st.integers(-2, 2), min_size=field.degree,
                     max_size=field.degree)
    mats = draw(st.lists(st.tuples(coeff, coeff, coeff, coeff),
                         min_size=1, max_size=3))
    cfg = _integer_config(field, mats, include_zero=draw(st.booleans()))
    assume(cfg.validation.valid)
    return cfg


@settings(max_examples=25, deadline=None)
@given(_integer_configs([cyclotomic_field(n) for n in (5, 8, 12)]))
def test_hypothesis_generator_set_matches_reference_over_cyclotomic_fields(cfg):
    _assert_matches_reference(cfg)


# fields with no reduction mod p: F_5, F_25, F_8 (characteristic 2), Q(sqrt 2)
# and the cubic Q(2^(1/3))
_UNREDUCED_FIELDS = [
    F5,
    extension_field(F5, [3, 0, 1]),  # F_25: z^2 = 2
    extension_field(prime_field(2), [1, 1, 0, 1]),  # F_8: z^3 = z + 1
    extension_field(Q, [-2, 0, 1]),  # z^2 = 2
    extension_field(Q, [-2, 0, 0, 1]),  # z^3 = 2
]


@settings(max_examples=40, deadline=None)
@given(_integer_configs(_UNREDUCED_FIELDS))
def test_hypothesis_generator_set_matches_reference_over_other_fields(cfg):
    _assert_matches_reference(cfg)


def _random_integer_config(field, rng, lines):
    while True:
        mats = [[[rng.randint(-3, 3) for _ in range(field.degree)]
                 for _ in range(4)] for _ in range(lines)]
        cfg = _integer_config(field, mats)
        if cfg.validation.valid:
            return cfg


def test_random_five_line_configurations_match_the_reference():
    f = cyclotomic_field(8)
    rng = random.Random(8)
    for cfg in [_random_integer_config(f, rng, 5) for _ in range(3)]:
        _assert_matches_reference(cfg)


def test_entry_with_the_reduction_prime_in_its_denominator_matches():
    # an entry 1/p, for the prime p at which Q(zeta_5) reduces
    f = cyclotomic_field(5)
    p = f.reduction().p
    z = f.gen()
    cfg = LineConfig(f, [Mat2.identity(f),
                         mat(f, [[f"1/{p}", "1"], ["0", "2"]]),
                         Mat2.diag(z, z * z + 3)])
    assert cfg.validation.valid
    _assert_matches_reference(cfg)


def test_assembly_multiplies_each_pair_of_classes_once(monkeypatch):
    # standard n=16 has 17 finite lines (0 and M_1..M_16), so 136 unordered
    # pairs {a, b}.  Every [D_ab] is diag(1, zeta_16^m), 0 <= m < 16, so at
    # most 16 classes, closed under inversion and products, are ever met:
    # at most 16^2 = 256 products of two classes, and Field._inv runs once
    # for each class met, to canonicalize the first matrix that names it.
    # A product per all-finite triple would be 17 * 16 * 15 = 4080, and an
    # inversion per pair, inverse and product 262.  The product is counted
    # under the name the assembly calls.
    cfg = standard_construction(16).config
    products, inversions = [], []
    product, inv = groupoid._product, Field._inv

    def counted_product(x, y):
        products.append(1)
        return product(x, y)

    def counted_inv(self, nums, den):
        inversions.append(1)
        return inv(self, nums, den)

    monkeypatch.setattr(groupoid, "_product", counted_product)
    monkeypatch.setattr(Field, "_inv", counted_inv)
    gens = generator_set(cfg)
    assert len(gens.elements) == 16
    assert 0 < len(products) <= 16 ** 2
    assert len(inversions) <= 16


@pytest.mark.parametrize("mode, most", [("differences", 6), ("all_triples", 17)])
def test_generator_set_inverts_an_adjugate_class_only_when_a_word_reads_it(
        monkeypatch, mode, most):
    # on a5 the differences words read no adjugate and name 6 classes, so
    # at most 6 inversions, where interning every adjugate class up front
    # took 9; all_triples reads them all and names 17 classes with 17
    cfg = a5_example().config
    inversions = []
    inv = Field._inv
    with monkeypatch.context() as m:
        m.setattr(Field, "_inv", lambda self, *a: inversions.append(1) or inv(self, *a))
        gens = generator_set(cfg, mode=mode)
    assert len(gens.elements) == most
    assert len(inversions) <= most
    elements, provenance = _reference_generator_set(cfg, mode)
    assert gens.elements == elements
    assert list(gens.provenance.items()) == list(provenance.items())


@pytest.mark.parametrize("field, seed, p", [
    pytest.param(Q, 8, 3, id="q-3"),
    pytest.param(Q, 8, 7, id="q-7"),
    pytest.param(cyclotomic_field(5), 5, 11, id="zeta5-11"),
])
def test_class_key_collisions_at_a_small_prime_fail_the_exact_check(
        monkeypatch, field, seed, p):
    # P^3(F_p) has only p^3 + p^2 + p + 1 points, so at a split prime this
    # small the classes of four lines share keys, and some key hits must be
    # refused by the exact check (_same_point) before the class is
    # canonicalized; the set stays the one of every triple canonicalized
    cfg = _random_integer_config(field, random.Random(seed), 4)
    monkeypatch.setattr(field, "reduction", lambda: reduction_at(field, p))
    outcomes = []
    same = groupoid._same_point
    monkeypatch.setattr(groupoid, "_same_point",
                        lambda *a: outcomes.append(same(*a)) or outcomes[-1])
    _assert_matches_reference(cfg)
    assert False in outcomes


def test_assembly_keys_each_class_once(monkeypatch):
    # dictionaries of classes hash and compare them many times over; each
    # ProjElem forms its Mat2 key at most once, and not at all when it is
    # never hashed or compared
    built, keyed = [], []
    init, key = ProjElem.__init__, Mat2.key

    def counted_init(self, rep):
        built.append(1)
        init(self, rep)

    def counted_key(self):
        keyed.append(1)
        return key(self)

    monkeypatch.setattr(ProjElem, "__init__", counted_init)
    monkeypatch.setattr(Mat2, "key", counted_key)
    gens = generator_set(standard_construction(16).config)
    assert len(gens.elements) == 16
    assert 0 < len(keyed) <= len(built)


def test_class_equality_and_hash_follow_the_key():
    f = cyclotomic_field(5)
    z = f.gen()
    g = proj_normalize(Mat2(z, f.one(), f.zero(), z * z))
    h = proj_normalize(Mat2(z * z, z, f.zero(), z ** 3))  # z g
    assert g is not h and g == h and hash(g) == hash(h)
    assert g == g and g != proj_identity(f)
    assert g.key() is g.key()


@pytest.mark.parametrize("fam", [
    a4_example, s4_example, a5_example,
    functools.partial(standard_construction, 8),
    functools.partial(standard_construction, 12),
    functools.partial(standard_construction, 16),
], ids=["a4", "s4", "a5", "standard8", "standard12", "standard16"])
def test_reduction_mod_p_keeps_order_and_census(fam):
    # a finite group maps injectively at a prime of good reduction, so the
    # closure of the images over F_p has the exact closure's order and census
    cfg = fam().config
    red = cfg.field.reduction()
    fp = prime_field(red.p)
    gens = generator_set(cfg)
    images = []
    for g in gens.elements:
        vals = [red.image(e.nums, e.den) for e in g.rep.entries()]
        assert None not in vals
        images.append(proj_normalize(Mat2(*(fp.from_int(v) for v in vals))))
    reduced = GeneratorSet(elements=images, provenance={g: [] for g in images},
                           mode="all_triples", field=fp)
    exact = classify(group_closure(gens)).to_json()
    modular = classify(group_closure(reduced)).to_json()
    assert modular["order"] == exact["order"]
    assert modular["order_census"] == exact["order_census"]


# ---------------------------------------------------------------------------
# classification: polyhedral goldens


def _witness_pair(c, field):
    r = proj_normalize(Mat2.from_rows(field, c.witnesses["r"]))
    s = proj_normalize(Mat2.from_rows(field, c.witnesses["s"]))
    return r, s


def test_icosahedral_group():
    fam = a5_example()
    G = closure_of(fam.config)
    assert G.order == 60
    c = classify(G)
    assert c.label == "A5" and not c.abelian and not c.theorem_violation
    assert c.census == {1: 1, 2: 15, 3: 20, 5: 24}
    r, s = _witness_pair(c, fam.config.field)
    assert c.witnesses["orders"] == [3, 5]
    assert proj_order(r, 60) == 3
    assert proj_order(s, 60) == 5
    assert proj_order(r * s, 60) == 2


def test_octahedral_group():
    fam = s4_example()
    G = closure_of(fam.config)
    assert G.order == 24
    c = classify(G)
    assert c.label == "S4"
    assert c.census == {1: 1, 2: 9, 3: 8, 4: 6}
    r, s = _witness_pair(c, fam.config.field)
    assert proj_order(r, 24) == 3
    assert proj_order(s, 24) == 2
    assert proj_order(r * s, 24) == 4


def test_tetrahedral_group():
    fam = a4_example()
    G = closure_of(fam.config)
    assert G.order == 12
    c = classify(G)
    assert c.label == "A4"
    assert c.census == {1: 1, 2: 3, 3: 8}
    r, s = _witness_pair(c, fam.config.field)
    assert proj_order(r, 12) == 3
    assert proj_order(s, 12) == 2
    assert proj_order(s * r, 12) == 3


def _assert_witnesses_generate(G, c, field):
    # the reference closure: <r, s> = G, which _try_polyhedral no longer checks
    r, s = _witness_pair(c, field)
    pair = GeneratorSet(elements=[r, s], provenance={}, mode="witnesses", field=field)
    H = group_closure(pair, budget=G.order + 1)
    assert not H.budget_hit
    assert element_keys(H) == element_keys(G)


@pytest.mark.parametrize("fam", [a4_example, s4_example, a5_example,
                                 lambda: s4_example(cyclotomic_field(12))])
def test_polyhedral_witnesses_generate_the_group(fam):
    cfg = fam().config
    G = closure_of(cfg)
    c = classify(G)
    assert c.label in ("A4", "S4", "A5")
    _assert_witnesses_generate(G, c, cfg.field)


def test_polyhedral_witnesses_generate_on_small_field_sweep():
    rng = random.Random(0)
    labels = []
    for p, count in ((3, 30), (5, 150), (7, 150)):
        F = prime_field(p)
        done = 0
        while done < count:
            mats = [Mat2.identity(F)] + [
                mat(F, [[str(rng.randrange(p)) for _ in range(2)] for _ in range(2)])
                for _ in range(2)
            ]
            cfg = LineConfig(F, mats)
            if not cfg.validation.valid:
                continue
            done += 1
            G = closure_of(cfg, budget=60)  # A4, S4, A5 fit; larger groups are skipped
            if G.budget_hit:
                continue
            c = classify(G)
            if c.label in ("A4", "S4", "A5"):
                labels.append(c.label)
                _assert_witnesses_generate(G, c, F)
    assert {"A4", "S4", "A5"} <= set(labels)


# ---------------------------------------------------------------------------
# classification: abelian and affine shapes


def test_cyclic_classification():
    c = classify(closure_of(standard_construction(5).config))
    assert c.label == "cyclic(10)"
    assert c.abelian
    assert c.invariant_factors == [10]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_elementary_abelian_classification(p):
    fam = elementary_abelian(p)
    G = closure_of(fam.config)
    c = classify(G)
    assert G.order == p * p
    assert c.label == f"elementary_abelian({p},2)"
    assert c.invariant_factors == [p, p]
    assert c.census == {1: 1, p: p * p - 1}


@pytest.mark.parametrize("p,order,label", [
    (3, 36, "affine(9,4)"),
    (5, 200, "affine(25,8)"),
])
def test_affine_extension_classification(p, order, label):
    fam = affine(p)
    G = closure_of(fam.config)
    assert G.order == order == fam.expected_order
    c = classify(G)
    assert c.label == label == fam.expected_label
    fixed = point_from_json(fam.config.field, c.witnesses["fixed_point"])
    assert all(moebius_apply(g, fixed) == fixed for g in G.elements)


def test_affine_prime_field_dilation():
    # with the dilation entry drawn from the prime field itself the group
    # stays at p(p-1): translations never leave F_p
    cfg = LineConfig(F5, [
        Mat2.identity(F5),
        mat(F5, [["-1", "1"], ["0", "-1"]]),
        Mat2.diag(F5.parse("2"), F5.parse("3")),
    ])
    G = closure_of(cfg)
    assert G.order == 20
    c = classify(G)
    assert c.label == "affine(5,4)"
    fixed = point_from_json(F5, c.witnesses["fixed_point"])
    assert fixed == ProjPoint(F5.one(), F5.zero())


def test_pgl2_f7_is_unclassified():
    cfg = LineConfig(F7, [
        Mat2.identity(F7),
        mat(F7, [["6", "3"], ["2", "3"]]),
        mat(F7, [["4", "6"], ["1", "4"]]),
    ])
    G = closure_of(cfg, budget=1000)
    assert G.order == 336
    c = classify(G)
    assert c.label == "unknown"
    assert not c.abelian


def _d4_closure():
    r = proj_normalize(Mat2.diag(F5.parse("2"), F5.one()))
    s = proj_normalize(mat(F5, [["0", "1"], ["1", "0"]]))
    gens = GeneratorSet(
        elements=[r, s],
        provenance={r: [("1", "inf", "2")], s: [("2", "inf", "1")]},
        mode="differences",
        field=F5,
    )
    return group_closure(gens)


def test_dihedral_closure_raises_flag():
    # no line configuration should produce this, so a hand-built generator
    # set earns the violation marker
    G = _d4_closure()
    assert G.order == 8
    c = classify(G)
    assert c.label == "dihedral(4)"
    assert c.theorem_violation
    assert c.census == {1: 1, 2: 5, 4: 2}


def _hand_built_closure(field, gens, budget=DEFAULT_BUDGET):
    return group_closure(GeneratorSet(
        elements=gens, provenance={g: [] for g in gens}, mode="all_triples",
        field=field), budget=budget)


def _dihedral_by_walk(G, orders):
    """Reference: dihedral(h) when |G| = 2h, h >= 3, and every element
    outside the cyclic subgroup of the first element of order h is an
    involution, found by walking that subgroup's products."""
    h, odd = divmod(G.order, 2)
    rotation = next((g for g, o in zip(G.elements, orders) if o == h), None)
    if odd or h < 3 or rotation is None:
        return None
    cyc, x = set(), proj_identity(rotation.field)
    for _ in range(h):
        cyc.add(x)
        x = x * rotation
    outside = [o for g, o in zip(G.elements, orders) if g not in cyc]
    return f"dihedral({h})" if all(o == 2 for o in outside) else None


_SMALL_FIELDS = [
    prime_field(2), prime_field(3),
    extension_field(prime_field(2), [1, 1, 1]),  # F_4
    F5, F7,
    extension_field(prime_field(3), [1, 0, 1]),  # F_9
]


def test_dihedral_census_rule_matches_the_product_walk():
    rng = random.Random(2010)
    closures = [_d4_closure()]
    for f in _SMALL_FIELDS:
        elements = list(f.elements())
        for _ in range(40):
            gens = [proj_normalize(m) for m in (
                Mat2(*rng.choices(elements, k=4)) for _ in range(rng.randint(1, 3)))
                if m.det()]
            if gens:
                closures.append(_hand_built_closure(f, list(dict.fromkeys(gens)), 400))
    hits = misses = 0
    for G in closures:
        if G.budget_hit:
            continue
        orders = [proj_order(g, G.order) for g in G.elements]
        census = dict(Counter(orders))
        hit = groupoid._try_dihedral(G, census)
        want = _dihedral_by_walk(G, orders)
        assert (hit and hit.label) == want
        assert hit is None or (hit.theorem_violation and hit.census == census)
        hits += want is not None
        # an element of order |G|/2 >= 3 that spans no dihedral group
        misses += (want is None and G.order >= 6 and G.order % 2 == 0
                   and G.order // 2 in census)
    assert hits >= 3 and misses >= 3


def _refuse(*args, **kwargs):
    raise AssertionError("called a refused routine")


@pytest.mark.parametrize("name", ["a4", "s4", "a5", "affine5", "standard6", "d4"])
def test_classify_forms_no_class(name, monkeypatch):
    # the polyhedral relations read the tr^2/det of the raw product and the
    # dihedral test reads the census, so no product is canonicalized
    G = _d4_closure() if name == "d4" else _family_closure(name)
    want = classify(G)
    monkeypatch.setattr(matrices, "_canonical", _refuse)
    assert classify(G) == want


@pytest.mark.parametrize("name", ["a4", "a5", "affine5", "standard6"])
def test_orders_need_no_element_arithmetic(name, monkeypatch):
    # tr^2/det is formed once on raw entries, and every order read from it
    G = _family_closure(name)
    gens = generator_set(_CLOSURE_FAMILIES[name]().config)
    want = ([element_order(g, G.order) for g in G.elements],
            eigratio_check(gens).to_json())
    for attr in ("trace", "det", "discriminant"):
        monkeypatch.setattr(Mat2, attr, _refuse)
    monkeypatch.setattr(FieldElement, "inv", _refuse)
    assert ([element_order(g, G.order) for g in G.elements],
            eigratio_check(gens).to_json()) == want


def test_classify_refuses_truncated_closure():
    G = closure_of(diag_config(Q, (4, 2)), budget=50)
    with pytest.raises(IncompleteClosure):
        classify(G)


def test_klein_four_group_is_elementary_abelian():
    # t -> -t and t -> 1/t commute in PGL2 and close to {t, -t, 1/t, -1/t}
    neg = proj_normalize(Mat2.diag(-Q.one(), Q.one()))
    flip = proj_normalize(mat(Q, [["0", "1"], ["1", "0"]]))
    G = _hand_built_closure(Q, [neg, flip])
    assert G.order == 4 and G.is_abelian()
    c = classify(G)
    assert c.label == "elementary_abelian(2,2)"
    assert c.invariant_factors == [2, 2]
    assert c.census == {1: 1, 2: 3}


def test_abelian_census_outside_dicksons_list_is_an_invariant_violation():
    # C2 x C4 is no subgroup of PGL2(K); a closure claiming its census from
    # one generator (so commuting generators) must not be named
    def cls(rows):
        return proj_normalize(mat(F5, rows))

    elements = [cls(r) for r in (
        [["1", "0"], ["0", "1"]],
        [["4", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]],
        [["0", "1"], ["2", "0"]],
        [["2", "0"], ["0", "1"]], [["3", "0"], ["0", "1"]],
        [["2", "1"], ["0", "1"]], [["3", "1"], ["0", "1"]],
    )]
    G = GroupClosure(elements=elements, generators=elements[4:5],
                     budget_hit=False, budget=5000)
    assert G.is_abelian()
    assert [element_order(g, 8) for g in elements] == [1, 2, 2, 2, 4, 4, 4, 4]
    with pytest.raises(RuntimeError):
        classify(G)


def _affine_by_census(G, census):
    """Reference: the affine label from the census alone, kept only when
    the unipotent part is a power of p that divides |G| with the quotient an
    element order, and the fixed-point certificate holds."""
    p = G.elements[0].field.characteristic
    if p == 0:
        return None
    p_part = census[1] + census.get(p, 0)
    n = G.order
    if p_part <= 1 or n % p_part:
        return None
    q = p_part
    while q % p == 0:
        q //= p
    quotient = n // p_part
    if q != 1 or quotient not in census:
        return None
    first = next(g for g in G.elements if not g.is_identity())
    if not any(all(fixes_point(g, v) for g in G.elements)
               for _, v in eigenvectors(first.rep) or ()):
        return None
    return f"affine({p_part},{quotient})"


def _fixed_point_on_all_elements(G):
    """Reference certificate: the first eigenline of the first non-identity
    element that every element of G fixes."""
    first = next(g for g in G.elements if not g.is_identity())
    return next((v for _, v in eigenvectors(first.rep) or ()
                 if all(fixes_point(g, v) for g in G.elements)), None)


def _criterion_5_small():
    f = affine(5).config.field
    return LineConfig(f, [
        Mat2.identity(f),
        Mat2.from_rows(f, [["-1", "1"], ["0", "-1"]]),
        Mat2.diag(f.parse("2"), f.parse("3")),
    ])


@pytest.mark.parametrize("cfg", [
    affine(3).config, affine(5).config, affine(7).config,
    affine(5, dilation_square=3).config, _criterion_5_small(),
    elementary_abelian(2).config, elementary_abelian(3).config,
    elementary_abelian(5).config, elementary_abelian(7).config,
    elementary_abelian(3, ["z", "2"]).config,
    LineConfig(F7, [Mat2.identity(F7), mat(F7, [["6", "3"], ["2", "3"]]),
                    mat(F7, [["4", "6"], ["1", "4"]])]),
], ids=["affine3", "affine5", "affine7", "affine5_c3", "criterion5_small",
        "elementary_abelian2", "elementary_abelian3", "elementary_abelian5",
        "elementary_abelian7", "elementary_abelian3_rank2", "pgl2_f7"])
def test_affine_certificate_gives_the_census_label(cfg):
    G = closure_of(cfg, budget=1000)
    census = dict(Counter(element_order(g, G.order) for g in G.elements))
    hit = _try_affine(G, census)
    assert (hit and hit.label) == _affine_by_census(G, census)
    # the fixed point checked on the generators is the one on every element
    want = _fixed_point_on_all_elements(G)
    assert (hit and hit.witnesses["fixed_point"]) == (want and want.to_json())


def test_affine_certificate_is_none_when_no_eigenline_is_fixed():
    # t -> t + 1 fixes only [1:0], which t -> 1/t moves to [0:1]
    shift = proj_normalize(mat(F5, [["1", "1"], ["0", "1"]]))
    flip = proj_normalize(mat(F5, [["0", "1"], ["1", "0"]]))
    G = _hand_built_closure(F5, [shift, flip])
    assert not G.budget_hit and not G.is_abelian()
    first = next(g for g in G.elements if not g.is_identity())
    assert eigenvectors(first.rep)
    assert _fixed_point_on_all_elements(G) is None
    census = dict(Counter(element_order(g, G.order) for g in G.elements))
    assert _try_affine(G, census) is None


# ---------------------------------------------------------------------------
# eigenvalue-ratio finiteness test


def test_ratio_orders_directly():
    z12 = cyclotomic_field(12)
    zeta6 = proj_normalize(Mat2.diag(z12.parse("z^2"), z12.one()))
    assert ratio_order(zeta6, 12) == 6
    unipotent = proj_normalize(mat(Q, [["1", "1"], ["0", "1"]]))
    assert ratio_order(unipotent, 12) == 1
    hyperbolic = proj_normalize(Mat2.diag(Q.from_int(2), Q.one()))
    assert ratio_order(hyperbolic, 100) is None


def test_eigratio_accepts_icosahedral_configuration():
    report = eigratio_check(generator_set(a5_example().config))
    assert report.cap == 60
    assert all_roots_of_unity(report)
    assert not report.infinite_witness


def test_eigratio_certifies_infinite_group():
    report = eigratio_check(generator_set(diag_config(Q, (4, 2))))
    assert report.cap == 6
    assert report.infinite_witness
    bad = [e for e in report.entries if e["status"] == "not_root_of_unity"]
    assert bad and all(e["ratio_order"] is None for e in bad)


def test_eigratio_bounded_scan_stays_agnostic():
    report = eigratio_check(generator_set(diag_config(Q, (4, 2))), bound=3)
    assert not report.infinite_witness
    assert any(e["status"] == "undetermined" for e in report.entries)


def test_analyze_ratio_scan_to_the_budget_misses_nothing_over_finite_fields():
    # over F_q, analyze() scans ratio orders only up to the budget; every
    # ratio order is the order of an element of G, so even a budget of
    # exactly |G| reports what the scan to the field's cap q^2 - 1 reports
    for cfg in (diag_config(F5, (2, 3)), diag_config(F7, (2, 4), (3, 5)),
                elementary_abelian(3).config, affine(3).config):
        triples = generator_set(cfg)
        n = group_closure(triples).order
        assert n < cfg.field.root_of_unity_bound()
        report = analyze(cfg, budget=n)
        assert not report.budget_hit
        assert report.eigenvalue_ratios == eigratio_check(triples).to_json()
    # over Q the scan to the small cap certifies an infinite group even when
    # the budget is below the cap
    report = analyze(diag_config(Q, (4, 2)), budget=3)
    assert report.eigenvalue_ratios["cap"] == 6
    assert report.eigenvalue_ratios["infinite_witness"]


def test_eigratio_flags_unipotent_generators():
    report = eigratio_check(generator_set(elementary_abelian(3).config))
    assert all_roots_of_unity(report)
    flagged = [e for e in report.entries if not e["semisimple"]]
    assert flagged
    assert all(e["ratio_order"] == 1 for e in flagged)


def test_eigratio_requires_valid_configuration():
    with pytest.raises(InvalidConfiguration):
        eigratio_check(generator_set(diag_config(Q, (2, 1))))


def test_eigratio_reads_field_from_empty_set():
    empty = GeneratorSet(elements=[], provenance={}, mode="all_triples", field=Q)
    report = eigratio_check(empty)
    assert report.cap == 6
    assert report.entries == []
    assert not report.infinite_witness


# ---------------------------------------------------------------------------
# one pipeline: analyze() builds each generator set once


def test_analyze_builds_generator_set_once(monkeypatch):
    calls = []

    def counted(cfg, mode="all_triples"):
        calls.append(mode)
        return generator_set(cfg, mode=mode)

    for name in ("skewlines.analyze", "skewlines.groupoid"):
        monkeypatch.setattr(importlib.import_module(name), "generator_set", counted)
    cfg = a4_example().config

    triples = analyze(cfg)
    assert calls == ["all_triples"]

    calls.clear()
    differences = analyze(cfg, mode="differences")
    assert sorted(calls) == ["all_triples", "differences"]
    assert differences.eigenvalue_ratios == triples.eigenvalue_ratios


# ---------------------------------------------------------------------------
# element orders from tr^2/det, evaluated once per element

_CLOSURE_FAMILIES = {
    "a4": a4_example,
    "s4": s4_example,
    "a5": a5_example,
    "affine5": lambda: affine(5),
    "affine7": lambda: affine(7),
    **{f"standard{n}": functools.partial(standard_construction, n)
       for n in range(3, 9)},
    "elementary_abelian5": lambda: elementary_abelian(5),
}


@functools.lru_cache(maxsize=None)
def _family_closure(name):
    return closure_of(_CLOSURE_FAMILIES[name]().config)


@pytest.mark.parametrize("name", sorted(_CLOSURE_FAMILIES))
def test_element_order_matches_proj_order_on_closures(name):
    G = _family_closure(name)
    for g in G.elements:
        assert element_order(g, G.order) == proj_order(g, G.order)


@pytest.mark.parametrize("name", sorted(_CLOSURE_FAMILIES))
def test_is_abelian_matches_pairwise_check(name):
    G = _family_closure(name)
    brute = all(g * h == h * g for g, h in itertools.combinations(G.elements, 2))
    assert G.is_abelian() == brute


_ABELIAN_FAMILIES = {
    **_CLOSURE_FAMILIES,
    "c3_scaled5": lambda: c3_scaled(5),
    "cyclic_4line_6_4": lambda: cyclic_4line(6, 4),
}


def _commuting_generators(G) -> bool:
    """The reference verdict: gh = +-hg for every pair of generators."""
    return all(_commutation(g.rep, h.rep)
               for g, h in itertools.combinations(G.generators, 2))


def _count_kernels(monkeypatch, f, calls):
    """Record every _mul, _dot and _inv over f: the class kernels, and the
    kernels a tabled F_q binds on the instance."""
    for name in ("_mul", "_dot", "_inv"):
        plain = getattr(Field, name)
        monkeypatch.setattr(Field, name, lambda self, *a, _fn=plain, _name=name:
                            calls.append(_name) or _fn(self, *a))
        if name in vars(f):
            bound = vars(f)[name]
            monkeypatch.setattr(f, name, lambda *a, _fn=bound, _name=name:
                                calls.append(_name) or _fn(*a))


def _assert_abelian_reads_only_moves(monkeypatch, G):
    want = _commuting_generators(G)
    calls = []
    with monkeypatch.context() as m:
        _count_kernels(m, G.elements[0].field, calls)
        assert G.is_abelian() == want
    assert calls == []
    # the same verdict on the same elements with no point table, and on a
    # closure the budget stopped
    bare = GroupClosure(elements=G.elements, generators=G.generators,
                        budget_hit=False, budget=G.budget)
    assert bare.is_abelian() == want
    if G.order > 2:
        cut = group_closure(GeneratorSet(
            elements=G.generators, provenance={g: [] for g in G.generators},
            mode="all_triples", field=G.elements[0].field), budget=2)
        assert cut.budget_hit and cut.is_abelian() == _commuting_generators(cut)
    return want


@pytest.mark.parametrize("name", sorted(_ABELIAN_FAMILIES))
def test_is_abelian_reads_the_closure_moves_on_every_family(monkeypatch, name):
    G = closure_of(_ABELIAN_FAMILIES[name]().config)
    assert not G.budget_hit
    _assert_abelian_reads_only_moves(monkeypatch, G)


@st.composite
def _small_field_configs(draw):
    """Lines 0, inf, I and one or two matrices over F_5 or F_7."""
    f = draw(st.sampled_from([F5, F7]))
    entry = st.integers(0, f.characteristic - 1).map(str)
    mats = [Mat2.identity(f)]
    for _ in range(draw(st.integers(1, 2))):
        mats.append(mat(f, [[draw(entry), draw(entry)], [draw(entry), draw(entry)]]))
    cfg = LineConfig(f, mats)
    assume(cfg.validation.valid)
    return cfg


@settings(max_examples=60, deadline=None)
@given(_small_field_configs())
def test_hypothesis_is_abelian_matches_pairwise_commutation(cfg):
    G = closure_of(cfg)
    assert not G.budget_hit
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_abelian_reads_only_moves(monkeypatch, G)


_ORDER_FIELDS = [
    prime_field(2), F5, F7,
    extension_field(prime_field(2), [1, 1, 1]),  # F_4
    extension_field(prime_field(3), [1, 0, 1]),  # F_9: z^2 = -1
    extension_field(F5, [3, 0, 1]),  # F_25: z^2 = 2
    cyclotomic_field(3), cyclotomic_field(4), cyclotomic_field(5),
    cyclotomic_field(8), cyclotomic_field(12),
]


@st.composite
def _order_cases(draw):
    f = draw(st.sampled_from(_ORDER_FIELDS))

    def entry():
        return f.from_coeffs(draw(st.lists(
            st.integers(min_value=-3, max_value=3),
            min_size=f.degree, max_size=f.degree)))

    kind = draw(st.sampled_from(["random", "identity", "unipotent", "involution"]))
    if kind == "identity":
        lam = entry()
        assume(lam)
        m = Mat2.diag(lam, lam)
    elif kind == "unipotent":
        P = Mat2(entry(), entry(), entry(), entry())
        assume(P.det())
        m = P * mat(f, [["1", "1"], ["0", "1"]]) * P.adjugate()
    elif kind == "involution":
        a, b, c = entry(), entry(), entry()
        assume(b or c)  # in characteristic 2, a*I has trace 0 too
        m = Mat2(a, b, c, -a)
    else:
        m = Mat2(entry(), entry(), entry(), entry())
    assume(m.det())
    bound = draw(st.integers(min_value=1, max_value=30))
    return kind, proj_normalize(m), bound


@given(_order_cases())
@settings(max_examples=80, deadline=None)
def test_hypothesis_element_order_matches_proj_order(case):
    kind, g, bound = case
    p = g.field.characteristic
    assert element_order(g, bound) == proj_order(g, bound)
    want = proj_order(g, 30)
    assert element_order(g, 30) == want
    if want is not None and want > 1:
        assert element_order(g, want - 1) is None
    # tr = 0 in characteristic 2 makes the class unipotent, of order 2 = p
    expected = {"identity": 1, "unipotent": p or None, "involution": 2}
    if kind in expected:
        assert want == expected[kind]
    # the ratio order and the semisimple flag against FieldElement arithmetic
    m, f = g.rep, g.field
    tr, det, two = m.trace(), m.det(), f.from_int(2)
    s1 = tr * tr / det - two
    s_prev, s_cur, ratio = two, s1, None
    for n in range(1, bound + 1):
        if s_cur == two:
            ratio = n
            break
        s_prev, s_cur = s_cur, s1 * s_cur - s_prev
    assert ratio_order(g, bound) == ratio
    entry, = eigratio_check(GeneratorSet(
        elements=[g], provenance={g: []}, mode="all_triples", field=f), bound).entries
    assert entry["semisimple"] == (bool(m.discriminant()) or g.is_identity())
    assert entry["ratio_order"] == ratio_order(g, min(bound, f.root_of_unity_bound()))


def _class_value(g):
    m = g.rep
    x = m.trace() * m.trace() / m.det()
    return x.nums, x.den


def test_classify_evaluates_element_order_once_per_class_value(monkeypatch):
    # the trace recursion runs once per value of tr^2/det: in classify for
    # every value but 4 (the identity's, and a unipotent class's, of order
    # p), and in eigratio_check for every value among the generators; the
    # polyhedral relations read the orders classify already has
    seen = []
    plain = groupoid._ratio_order

    def counted(f, value, bound):
        seen.append(value)
        return plain(f, value, bound)

    monkeypatch.setattr(groupoid, "_ratio_order", counted)
    for name in ("a5", "affine5", "standard5"):
        G = _family_closure(name)
        four = _class_value(G.elements[0])
        seen.clear()
        census = classify(G).census
        assert len(seen) == len(set(seen))
        assert set(seen) == {_class_value(g) for g in G.elements} - {four}
        assert census == dict(Counter(proj_order(g, G.order) for g in G.elements))
        gens = generator_set(_CLOSURE_FAMILIES[name]().config)
        seen.clear()
        eigratio_check(gens)
        assert len(seen) == len(set(seen)) == len({_class_value(g) for g in gens.elements})


def test_is_abelian_multiplies_only_generator_pairs(monkeypatch):
    # a complete closure's point moves decide commutation, so no product is
    # formed, let alone canonicalized
    products = []
    plain = matrices._product

    def counted(x, y):
        products.append(1)
        return plain(x, y)

    def refuse(*args):
        raise AssertionError("is_abelian canonicalized a product")

    for name in ("standard8", "elementary_abelian5", "a5", "affine7"):
        G = _family_closure(name)
        k = len(G.generators)
        products.clear()
        with monkeypatch.context() as m:
            m.setattr(matrices, "_product", counted)
            m.setattr(matrices, "_canonical", refuse)
            G.is_abelian()
        assert k > 1 and products == []


def test_pipeline_labels_every_family_without_proj_order(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("proj_order called")

    for name, module in list(sys.modules.items()):
        if name == "skewlines" or name.startswith("skewlines."):
            if getattr(module, "proj_order", None) is proj_order:
                monkeypatch.setattr(module, "proj_order", refuse)
    families = [
        standard_construction(6), c3_scaled(4), cyclic_4line(2, 3),
        elementary_abelian(3), affine(3), a5_example(), s4_example(),
        a4_example(),
    ]
    for fam in families:
        report = analyze(fam.config)
        assert report.group["label"] == fam.expected_label
