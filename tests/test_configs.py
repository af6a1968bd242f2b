"""Configuration validation, transversal search, and the abelian forecast."""

import itertools
import random

import pytest

from skewlines.fields import (
    cyclotomic_field,
    extension_field,
    prime_field,
    rational_field,
)
from skewlines.matrices import Mat2, ProjPoint, commutator, proj_normalize
from skewlines.configs import (
    InvalidConfiguration,
    _commutation_case,
    InvalidIndex,
    LineConfig,
    predict_abelian,
    transversal_compute,
)
from skewlines.families import a4_example, a5_example, build_family, s4_example
from skewlines.orbits import _plucker, _span_rows

Q = rational_field()
F5 = prime_field(5)
Z3 = cyclotomic_field(3)
Z12 = cyclotomic_field(12)
Qi = cyclotomic_field(4)


def mat(field, rows):
    return Mat2.from_rows(field, rows)


def diag(field, a, d):
    return Mat2.diag(field.parse(str(a)), field.parse(str(d)))


def s4_config(field=None):
    """The order-24 five-line configuration over Q(i)."""
    return s4_example(field).config


def a4_config(a="1"):
    return a4_example(a).config


def a5_config():
    return a5_example().config


# ---------------------------------------------------------------------------
# labels and lookup


def test_labels_with_special_lines():
    cfg = LineConfig(Q, [Mat2.identity(Q), diag(Q, 2, 3)])
    assert cfg.labels() == ["0", "inf", "1", "2"]
    assert cfg.matrix_labels() == ["1", "2"]
    assert cfg.identity_label == "1"


def test_labels_without_special_lines():
    cfg = LineConfig(Q, [diag(Q, 2, 3), diag(Q, 4, 9)],
                     include_zero=False, include_infinity=False)
    assert cfg.labels() == ["1", "2"]
    assert cfg.identity_label is None


def test_matrix_lookup():
    m = diag(Q, 2, 3)
    cfg = LineConfig(Q, [Mat2.identity(Q), m])
    assert cfg.matrix("2") == m
    assert cfg.matrix("0") == Mat2.zero(Q)
    with pytest.raises(InvalidIndex):
        cfg.matrix("inf")
    with pytest.raises(InvalidIndex):
        cfg.matrix("7")
    with pytest.raises(InvalidIndex):
        cfg.matrix("bogus")


def test_zero_lookup_requires_zero_line():
    cfg = LineConfig(Q, [diag(Q, 2, 3)], include_zero=False)
    with pytest.raises(InvalidIndex):
        cfg.matrix("0")


def test_mixed_field_matrices_rejected():
    with pytest.raises(InvalidConfiguration):
        LineConfig(Q, [Mat2.identity(F5)])


def test_special_lines_only_is_valid():
    cfg = LineConfig(Q, [])
    assert cfg.validation.valid
    assert cfg.labels() == ["0", "inf"]


# ---------------------------------------------------------------------------
# validation


def test_generic_diagonal_config_valid():
    # a, d outside {0, 1} and distinct
    cfg = LineConfig(Q, [Mat2.identity(Q), diag(Q, 2, 3)])
    rep = cfg.validation
    assert rep.valid
    assert rep.pair_violations == []
    assert rep.meets_zero == []
    assert rep.meets_identity == []


def test_duplicate_matrix_is_a_violation():
    cfg = LineConfig(Q, [diag(Q, 2, 3), diag(Q, 2, 3)])
    assert cfg.validation.pair_violations == [("1", "2")]
    assert not cfg.validation.valid


def test_shared_diagonal_entry_is_a_violation():
    # difference diag(0, -2) is singular
    cfg = LineConfig(Q, [diag(Q, 2, 3), diag(Q, 2, 5)])
    assert ("1", "2") in cfg.validation.pair_violations


def test_singular_matrix_meets_line_zero():
    m = mat(Q, [["1", "0"], ["0", "0"]])
    cfg = LineConfig(Q, [m])
    assert cfg.validation.meets_zero == ["1"]
    assert not cfg.validation.valid
    # without L0 the same matrix is unobjectionable
    cfg2 = LineConfig(Q, [m], include_zero=False)
    assert cfg2.validation.valid


def test_eigenvalue_one_meets_identity_line():
    cfg = LineConfig(Q, [Mat2.identity(Q), diag(Q, 2, 1)])
    assert cfg.validation.meets_identity == ["2"]
    assert ("1", "2") in cfg.validation.pair_violations


def test_meets_identity_only_flagged_when_identity_present():
    cfg = LineConfig(Q, [diag(Q, 2, 1)])
    assert cfg.validation.meets_identity == []
    assert cfg.validation.valid


def test_validation_report_json():
    cfg = LineConfig(Q, [Mat2.identity(Q), diag(Q, 2, 1)])
    js = cfg.validation.to_json()
    assert js["valid"] is False
    assert ["1", "2"] in js["pair_violations"]
    assert js["meets_identity"] == ["2"]


def test_require_valid_raises():
    cfg = LineConfig(Q, [diag(Q, 2, 3), diag(Q, 2, 5)])
    with pytest.raises(InvalidConfiguration):
        cfg.require_valid()


def test_golden_configs_are_valid():
    for cfg in (s4_config(), a4_config(), a5_config()):
        assert cfg.validation.valid


# ---------------------------------------------------------------------------
# serialization


def test_config_json_roundtrip():
    cfg = s4_config()
    js = cfg.to_json()
    assert js["lines"][0] == "zero"
    assert js["lines"][1] == "infinity"
    assert js["lines"][2] == "identity"
    again = LineConfig.from_json(js)
    assert again == cfg


def test_from_json_rejects_duplicate_special_lines():
    base = LineConfig(Q, [Mat2.identity(Q)]).to_json()
    bad = dict(base, lines=["zero", "zero", "identity"])
    with pytest.raises(InvalidConfiguration):
        LineConfig.from_json(bad)
    bad = dict(base, lines=["infinity", "infinity", "identity"])
    with pytest.raises(InvalidConfiguration):
        LineConfig.from_json(bad)


def test_from_json_requires_field_and_lines():
    with pytest.raises(InvalidConfiguration):
        LineConfig.from_json({"lines": []})
    with pytest.raises(InvalidConfiguration):
        LineConfig.from_json({"field": {"kind": "rational"}})


def test_from_json_without_special_lines():
    cfg = LineConfig(Q, [diag(Q, 2, 3)],
                     include_zero=False, include_infinity=False)
    again = LineConfig.from_json(cfg.to_json())
    assert not again.include_zero
    assert not again.include_infinity
    assert again == cfg


# ---------------------------------------------------------------------------
# transversals


def test_two_diagonals_two_transversals():
    cfg = LineConfig(Q, [Mat2.identity(Q), diag(Q, 2, 3), diag(Q, 4, 9)])
    rep = transversal_compute(cfg)
    assert rep.exists
    assert rep.method == "simultaneous-eigen"
    assert set(w.key() for w in rep.witnesses) == {
        ProjPoint(Q.one(), Q.zero()).key(),
        ProjPoint(Q.zero(), Q.one()).key(),
    }


def test_jordan_block_single_witness():
    cfg = LineConfig(Q, [Mat2.identity(Q), mat(Q, [["2", "5"], ["0", "2"]])])
    rep = transversal_compute(cfg)
    assert rep.exists
    assert len(rep.witnesses) == 1
    assert rep.witnesses[0] == ProjPoint(Q.one(), Q.zero())


def test_all_scalar_every_direction_works():
    cfg = LineConfig(Q, [Mat2.identity(Q), diag(Q, 2, 2)])
    rep = transversal_compute(cfg)
    assert rep.exists
    assert rep.all_directions
    assert len(rep.witnesses) == 2


def test_s4_pair_has_no_transversal():
    cfg = s4_config()
    m2, m3 = cfg.matrices[1], cfg.matrices[2]
    assert commutator(m2, m3).det() == Qi.from_int(2)
    rep = transversal_compute(cfg)
    assert not rep.exists
    assert rep.witnesses == []
    assert rep.method == "commutator-kernel"
    assert rep.exists is False


def test_a4_pair_has_no_transversal():
    cfg = a4_config()
    m2, m3 = cfg.matrices[1], cfg.matrices[2]
    assert commutator(m2, m3).det() == Z12.from_int(2)
    assert not transversal_compute(cfg).exists


def test_a5_pair_has_no_transversal():
    rep = transversal_compute(a5_config())
    assert not rep.exists
    assert rep.witnesses == []


def test_noncommuting_pair_with_shared_eigenline():
    # commutator [[0,2],[0,0]] is nonzero singular; kernel [1:0] checks out
    j = mat(Q, [["2", "1"], ["0", "2"]])
    d = diag(Q, 3, 5)
    cfg = LineConfig(Q, [Mat2.identity(Q), j, d])
    assert cfg.validation.valid
    rep = transversal_compute(cfg)
    assert rep.exists
    assert rep.method == "commutator-kernel"
    assert rep.witnesses == [ProjPoint(Q.one(), Q.zero())]


def test_rotation_over_q_needs_extension():
    cfg = LineConfig(Q, [Mat2.identity(Q), mat(Q, [["0", "1"], ["-1", "0"]])])
    rep = transversal_compute(cfg)
    assert not rep.exists
    assert rep.method == "extension-required"


def test_rotation_resolves_over_cyclotomic():
    cfg = LineConfig(Z12, [Mat2.identity(Z12),
                           mat(Z12, [["0", "1"], ["-1", "0"]])])
    rep = transversal_compute(cfg)
    assert rep.exists
    assert len(rep.witnesses) == 2
    assert rep.method == "simultaneous-eigen"


def test_transversals_decided_over_a_field_of_10201_elements():
    # [[1,1],[1,-1]] has discriminant 8, a square in F_{101^2} = F_101(sqrt 2)
    F = extension_field(prime_field(101), [-2, 0, 1])
    m = mat(F, [["1", "1"], ["1", "-1"]])
    cfg = LineConfig(F, [Mat2.identity(F), m])
    rep = transversal_compute(cfg)
    assert rep.exists
    assert rep.method == "simultaneous-eigen"
    assert len(rep.witnesses) == 2
    for v in rep.witnesses:
        vx, vy = v
        x, y = m.apply((vx, vy))
        assert x * vy == y * vx


def test_transversals_decided_over_a_field_of_2_to_the_14_elements():
    # z^14 + z^10 + z^6 + z + 1 over F_2: [[0,1],[z^2+z,1]] has eigenvalues
    # z and z + 1, found by the trace formula with no scan of the field
    F = extension_field(prime_field(2), [1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1])
    z = F.gen()
    cfg = LineConfig(F, [Mat2.identity(F), Mat2(F.zero(), F.one(), z * z + z, F.one())])
    rep = transversal_compute(cfg)
    assert rep.exists and rep.method == "simultaneous-eigen"
    assert set(rep.witnesses) == {ProjPoint(F.one(), z), ProjPoint(F.one(), z + 1)}


def test_commuting_family_uses_the_first_decided_eigenlines():
    # M2 = zeta_8 * M1 commutes with M1; M1's discriminant 8 has the square
    # root z - z^3 = sqrt 2 in Q(zeta_8), M2's 8 zeta_8^2 cannot be decided
    Z8 = cyclotomic_field(8)
    m1 = mat(Z8, [["0", "1"], ["2", "0"]])
    m2 = m1.scale(Z8.gen())
    cfg = LineConfig(Z8, [m1, m2])
    assert cfg.validation.valid
    rep = transversal_compute(cfg)
    assert rep.exists and rep.method == "simultaneous-eigen"
    root2 = Z8.parse("z - z^3")
    assert root2 * root2 == Z8.from_int(2)
    assert set(rep.witnesses) == {ProjPoint(Z8.one(), root2), ProjPoint(Z8.one(), -root2)}
    for w in rep.witnesses:
        for m in cfg.matrices:
            wx, wy = w
            x, y = m.apply((wx, wy))
            assert x * wy == y * wx


def test_witnesses_are_sound():
    configs = [
        LineConfig(Q, [Mat2.identity(Q), diag(Q, 2, 3), diag(Q, 4, 9)]),
        LineConfig(Q, [Mat2.identity(Q), mat(Q, [["2", "5"], ["0", "2"]])]),
        LineConfig(Q, [Mat2.identity(Q), mat(Q, [["2", "1"], ["0", "2"]]),
                       diag(Q, 3, 5)]),
    ]
    for cfg in configs:
        rep = transversal_compute(cfg)
        assert rep.exists
        for w in rep.witnesses:
            for m in cfg.matrices:
                wx, wy = w
                x, y = m.apply((wx, wy))
                assert x * wy == y * wx


def test_transversal_implies_singular_commutators():
    cfg = LineConfig(Q, [Mat2.identity(Q), mat(Q, [["2", "1"], ["0", "2"]]),
                         diag(Q, 3, 5)])
    assert transversal_compute(cfg).exists
    mats = cfg.matrices
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            assert not commutator(mats[i], mats[j]).det()


def test_transversal_requires_valid_config():
    cfg = LineConfig(Q, [diag(Q, 2, 3), diag(Q, 2, 5)])
    with pytest.raises(InvalidConfiguration):
        transversal_compute(cfg)


# ---------------------------------------------------------------------------
# abelian forecast


def test_diagonal_family_predicted_abelian():
    cfg = LineConfig(Q, [Mat2.identity(Q), diag(Q, 2, 3), diag(Q, 4, 9)])
    rep = predict_abelian(cfg)
    assert rep.abelian
    cases = dict(((i, j), c) for i, j, c in rep.cases)
    assert cases[("1", "2")] == "scalar"
    assert cases[("2", "3")] == "simultaneously_diagonalizable"


def test_jordan_family_shares_eigenspace():
    f = extension_field(prime_field(3), [1, 0, 1])
    z = f.gen()
    m2 = Mat2.from_rows(f, [[z, f.one()], [f.zero(), z]])
    m3 = Mat2.from_rows(f, [[z + 1, f.one()], [f.zero(), z + 1]])
    cfg = LineConfig(f, [Mat2.identity(f), m2, m3])
    assert cfg.validation.valid
    rep = predict_abelian(cfg)
    assert rep.abelian
    cases = dict(((i, j), c) for i, j, c in rep.cases)
    assert cases[("2", "3")] == "shared_eigenspace"


def test_predict_abelian_tests_each_discriminant_once(monkeypatch):
    # standard n=16 has 14 non-scalar rotations, pairwise commuting: one
    # discriminant per matrix, where one per commuting pair formed 91.  The
    # Jordan family's pair shares its eigenspace, and the s4 matrices
    # include non-commuting pairs
    f = extension_field(prime_field(3), [1, 0, 1])
    z = f.gen()
    jordan = LineConfig(f, [Mat2.identity(f),
                            Mat2.from_rows(f, [[z, f.one()], [f.zero(), z]]),
                            Mat2.from_rows(f, [[z + 1, f.one()], [f.zero(), z + 1]])])
    disc, calls = Mat2.discriminant, []
    monkeypatch.setattr(Mat2, "discriminant", lambda m: calls.append(1) or disc(m))
    for cfg in (build_family("standard", n=16).config, jordan, s4_config()):
        calls.clear()
        rep = predict_abelian(cfg)
        assert len(calls) <= len(cfg.matrices)
        mats = dict(zip(cfg.matrix_labels(), cfg.matrices))
        for i, j, case in rep.cases:
            if case in ("shared_eigenspace", "simultaneously_diagonalizable"):
                repeated = not disc(mats[i]) and not disc(mats[j])
                assert (case == "shared_eigenspace") == repeated
    assert ("2", "3", "shared_eigenspace") in predict_abelian(jordan).cases


def test_s4_and_a5_predicted_non_abelian():
    for cfg in (s4_config(), a5_config()):
        rep = predict_abelian(cfg)
        assert not rep.abelian
        assert any(c == "non_commuting" for _, _, c in rep.cases)


def test_anti_commuting_pair_predicted_non_abelian():
    a = diag(F5, 2, 3)                      # diag(2,-2) mod 5
    b = mat(F5, [["0", "2"], ["2", "0"]])
    assert a * b == -(b * a)
    # the classes themselves do commute projectively...
    assert proj_normalize(a * b) == proj_normalize(b * a)
    cfg = LineConfig(F5, [Mat2.identity(F5), a, b])
    assert cfg.validation.valid
    rep = predict_abelian(cfg)
    # ...but the difference classes spoil commutativity, so predict says no
    assert not rep.abelian
    assert rep.anti_commuting_warning
    cases = dict(((i, j), c) for i, j, c in rep.cases)
    assert cases[("2", "3")] == "anti_commuting"


def _random_nonsingular(field, rng, traceless):
    while True:
        a, b, c = (field.from_int(rng.randint(-3, 3)) for _ in range(3))
        d = -a if traceless else field.from_int(rng.randint(-3, 3))
        m = Mat2(a, b, c, d)
        if m.det():
            return m


@pytest.mark.parametrize("field", [F5, prime_field(7), Q], ids=["F5", "F7", "Q"])
def test_anti_commuting_test_agrees_with_projective_comparison(field):
    # ab = -ba is the same as [ab] = [ba] with ab != ba.  Traceless pairs
    # anti-commute exactly when tr(ab) = 0, so half the sample is traceless,
    # and (x y / z -x) anti-commutes with (0 y / -z 0) by construction
    rng = random.Random(17)
    swap = mat(field, [["0", "1"], ["1", "0"]])
    flip = mat(field, [["1", "0"], ["0", "-1"]])
    pairs = [(swap, flip)]
    for k in range(200):
        a = _random_nonsingular(field, rng, k % 2 == 0)
        pairs.append((a, _random_nonsingular(field, rng, k % 2 == 0)))
        if not a.trace() and a.b and a.c:
            pairs.append((a, Mat2(field.zero(), a.b, -a.c, field.zero())))
    hits = 0
    for a, b in pairs:
        if a.is_scalar() or b.is_scalar():
            continue
        projective = a * b != b * a and proj_normalize(a * b) == proj_normalize(b * a)
        repeated = not a.discriminant() and not b.discriminant()
        assert (_commutation_case(a, b, repeated) == "anti_commuting") == projective
        hits += projective
    assert _commutation_case(swap, flip, False) == "anti_commuting"
    assert hits > 40


def test_singular_matrix_has_no_class():
    m = mat(Q, [["1", "0"], ["0", "0"]])
    cfg = LineConfig(Q, [m], include_zero=False)
    assert cfg.validation.valid
    with pytest.raises(InvalidConfiguration):
        predict_abelian(cfg)


def test_predict_abelian_requires_valid_config():
    cfg = LineConfig(Q, [diag(Q, 2, 3), diag(Q, 2, 5)])
    with pytest.raises(InvalidConfiguration):
        predict_abelian(cfg)


# ---------------------------------------------------------------------------
# the Pluecker pairing is the skewness test


def _pairing(p, q):
    """The Pluecker pairing; zero exactly when the two lines meet."""
    p01, p02, p03, p12, p13, p23 = p
    q01, q02, q03, q12, q13, q23 = q
    return (p01 * q23 - p02 * q13 + p03 * q12
            + p12 * q03 - p13 * q02 + p23 * q01)


def _check_pairing_against_validation(cfg):
    one = cfg.field.one()
    report = cfg.validation
    meeting = {frozenset(pair) for pair in report.pair_violations}
    meeting |= {frozenset(("0", lab)) for lab in report.meets_zero}
    pl = {lab: _plucker(*_span_rows(cfg, lab)) for lab in cfg.labels()}
    for a, b in itertools.combinations(cfg.labels(), 2):
        value = _pairing(pl[a], pl[b])
        if "inf" in (a, b):
            assert value == one, (a, b)
        else:
            # M_0 = 0 for the zero line
            assert value == (cfg.matrix(a) - cfg.matrix(b)).det(), (a, b)
        assert (not value) == (frozenset((a, b)) in meeting), (a, b)


def test_plucker_pairing_is_skewness_on_families():
    built = [build_family("standard", n=n) for n in range(2, 9)]
    built += [
        build_family("c3_scaled", s_order=2),
        build_family("cyclic_4line", u1_order=3, u2_order=4),
        build_family("elementary_abelian", p=3),
        build_family("elementary_abelian", p=5),
        build_family("affine", p=3),
        build_family("affine", p=5),
        a4_example(),
        s4_example(),
        a5_example(),
    ]
    for fam in built:
        _check_pairing_against_validation(fam.config)


def test_plucker_pairing_is_skewness_on_random_f5_configs():
    # random lines over F_5, with or without 0 and inf, skew or not
    rng = random.Random(5)
    violations = 0
    for _ in range(200):
        mats = [mat(F5, [[str(rng.randrange(5)) for _ in range(2)] for _ in range(2)])
                for _ in range(rng.randint(1, 4))]
        cfg = LineConfig(F5, mats, include_zero=rng.random() < 0.7,
                         include_infinity=rng.random() < 0.7)
        _check_pairing_against_validation(cfg)
        violations += not cfg.validation.valid
    assert 0 < violations < 200  # both outcomes were exercised
