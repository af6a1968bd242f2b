"""Tests for 2x2 matrix algebra and PGL2 canonical classes."""

import itertools
import random
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
from skewlines.matrices import (
    Mat2,
    ProjElem,
    ProjPoint,
    SingularMatrix,
    ZeroMatrix,
    ZeroVector,
    _commutation,
    commutator,
    eigenvectors,
    moebius_apply,
    proj_identity,
    proj_normalize,
    proj_order,
)

Q = rational_field()
F5 = prime_field(5)
Z6 = cyclotomic_field(6)
# sample pools over Q: small rationals by height, each with its negative
_SMALL_Q = [Q.parse(x) for x in (
    "0", "1", "-1", "2", "-2", "1/2", "-1/2", "3", "-3", "3/2", "-3/2",
    "1/3", "-1/3", "2/3", "-2/3", "4", "-4", "4/3", "-4/3", "1/4", "-1/4",
    "3/4", "-3/4", "5", "-5")]


def qm(rows):
    return Mat2.from_rows(Q, rows)


# ---------------------------------------------------------------- matrix algebra


def test_matrix_arithmetic():
    m = qm([["1", "2"], ["3", "4"]])
    n = qm([["0", "1"], ["-1", "0"]])
    assert (m + n) - n == m
    assert m * Mat2.identity(Q) == m
    assert (m * n).det() == m.det() * n.det()
    assert m.det() == Q.from_int(-2)
    assert m.trace() == Q.from_int(5)
    assert (2 * m).det() == Q.from_int(-8)
    assert (-m) + m == Mat2.zero(Q)


def test_matrix_inverse():
    m = qm([["1", "2"], ["3", "4"]])
    assert m.inv() * m == Mat2.identity(Q)
    assert m * m.inv() == Mat2.identity(Q)
    with pytest.raises(SingularMatrix):
        qm([["1", "2"], ["2", "4"]]).inv()


def test_matrix_powers():
    m = qm([["1", "1"], ["0", "1"]])
    assert m**5 == qm([["1", "5"], ["0", "1"]])
    assert m**0 == Mat2.identity(Q)
    assert m**-2 == qm([["1", "-2"], ["0", "1"]])


def test_commutator():
    a = qm([["2", "0"], ["0", "3"]])
    b = qm([["0", "1"], ["1", "0"]])
    c = commutator(a, b)
    assert c == qm([["0", "-1"], ["1", "0"]])
    assert commutator(a, a).is_zero()


@pytest.mark.parametrize("field", [Q, F5, extension_field(prime_field(2), [1, 1, 1])],
                         ids=repr)
def test_commutation_sign_matches_operator_products(field):
    # 1 for xy = yx, -1 for xy = -yx (never in characteristic 2), else 0
    rng = random.Random(5)
    pool = list(itertools.islice(field.elements(), 5)) if field.is_finite else _SMALL_Q[:7]
    mats = [Mat2(*[rng.choice(pool) for _ in range(4)]) for _ in range(40)]
    mats += [qm([["0", "1"], ["1", "0"]]), qm([["1", "0"], ["0", "-1"]])] if field is Q else []
    signs = set()
    for x in mats:
        for y in mats:
            xy, yx = x * y, y * x
            want = 1 if xy == yx else -1 if xy == -yx else 0
            assert _commutation(x, y) == want, (x, y)
            signs.add(want)
    assert signs == ({1, 0} if field.characteristic == 2 else {1, 0, -1})
    with pytest.raises(MixedFields):
        _commutation(Mat2.identity(Q), Mat2.identity(F5))


@pytest.mark.parametrize("field", [F5, extension_field(F5, [3, 0, 1]),
                                   cyclotomic_field(8)],
                         ids=["F5", "F25-tabled", "Q(zeta8)"])
def test_is_identity_agrees_with_equality_to_the_identity(field):
    # entries 0, 1, 2, 6 (1 again in characteristic 5), -1 and a generator,
    # so 2I, 6I and every near miss of I are among the 6^4 matrices
    ident = Mat2.identity(field)
    z = field.gen() if field.degree > 1 else field.from_int(3)
    pool = [field.from_int(k) for k in (0, 1, 2, 6, -1)] + [z]
    hits = 0
    for ents in itertools.product(pool, repeat=4):
        m = Mat2(*ents)
        assert m.is_identity() == (m == ident), m
        hits += m.is_identity()
    assert not ident.scale(2).is_identity()
    assert hits == (4 if field.characteristic == 5 else 1)


def test_from_rows_validation():
    with pytest.raises(ValueError):
        Mat2.from_rows(Q, [["1", "2", "3"], ["4", "5", "6"]])
    with pytest.raises(MixedFields):
        Mat2.from_rows(Q, [[F5.one(), "0"], ["0", "1"]])


def test_json_roundtrip():
    m = Mat2.from_rows(Z6, [[["1", "2"], "0"], ["1/3", ["0", "-1"]]])
    assert Mat2.from_rows(Z6, m.to_json()) == m


# ---------------------------------------------------------------- fused product kernel

_F25 = extension_field(F5, [3, 0, 1])  # z^2 - 2
_CUBIC = extension_field(Q, [Fraction(1, 3), Fraction(1, 2), 0, 1])  # _red_den = 6

# one field of each arithmetic shape the fused kernel branches on: degree 1
# and extensions, characteristic 0, 2 and odd, reduction rows with and
# without a denominator
_KERNEL_FIELDS = [
    prime_field(7),
    extension_field(prime_field(2), [1, 1, 1]),  # F_4
    _F25,
    extension_field(prime_field(11), [1, 0, 1]),  # F_121
    Q,
    cyclotomic_field(5),
    cyclotomic_field(12),
    cyclotomic_field(20),
    _CUBIC,
]


@st.composite
def _kernel_operands(draw, count):
    """A field of _KERNEL_FIELDS and count of its elements, a quarter zero."""
    field = draw(st.sampled_from(_KERNEL_FIELDS))
    if field.characteristic:
        coeff = st.integers(0, field.characteristic - 1)
    else:
        coeff = st.fractions(min_value=-6, max_value=6, max_denominator=5)
    coeffs = st.lists(coeff, min_size=field.degree, max_size=field.degree)
    return field, [field.zero() if draw(st.integers(0, 3)) == 0
                   else field.from_coeffs(draw(coeffs)) for _ in range(count)]


def _reference_product(x: Mat2, y: Mat2) -> list:
    """The entries of x*y formed with FieldElement operators."""
    a, b, c, d = x.entries()
    A, B, C, D = y.entries()
    return [a * A + b * C, a * B + b * D, c * A + d * C, c * B + d * D]


@given(_kernel_operands(4))
@settings(max_examples=100, deadline=None)
def test_hypothesis_dot_matches_add_of_products(operands):
    field, (w, x, y, z) = operands
    expected = field._add(*field._mul(w.nums, w.den, x.nums, x.den),
                          *field._mul(y.nums, y.den, z.nums, z.den))
    got = field._dot(w.nums, w.den, x.nums, x.den, y.nums, y.den, z.nums, z.den)
    assert got == expected
    assert got == ((w * x + y * z).nums, (w * x + y * z).den)


@given(_kernel_operands(8), st.integers(3, 4))
@settings(max_examples=100, deadline=None)
def test_hypothesis_dot_of_more_products_matches_operators(operands, terms):
    # the operands past the first four add one product for each pair
    field, xs = operands
    xs = xs[:2 * terms]
    ops = [v for x in xs for v in (x.nums, x.den)]
    want = field.zero()
    for a, b in zip(xs[::2], xs[1::2]):
        want = want + a * b
    assert field._dot(*ops) == (want.nums, want.den)


@given(_kernel_operands(8))
@settings(max_examples=100, deadline=None)
def test_hypothesis_proj_product_matches_operator_reference(operands):
    _, ents = operands
    x, y = Mat2(*ents[:4]), Mat2(*ents[4:])
    assume(x.det() and y.det())
    assert (x * y).key() == tuple(e.sort_key() for e in _reference_product(x, y))
    gx, gy = proj_normalize(x), proj_normalize(y)
    prod = _reference_product(gx.rep, gy.rep)
    s = next(e for e in prod if e).inv()  # scale the first nonzero entry to 1
    assert (gx * gy).key() == tuple((e * s).sort_key() for e in prod)


# ---------------------------------------------------------------- projective classes


def test_scalar_matrices_normalize_to_identity():
    g = proj_normalize(qm([["2", "0"], ["0", "2"]]))
    assert g.is_identity()
    assert g == proj_identity(Q)


def test_proj_normalize_scale_invariant():
    rng = random.Random(99)
    pool = _SMALL_Q[:25]
    count = 0
    while count < 100:
        ents = [rng.choice(pool) for _ in range(4)]
        lam = rng.choice(pool[1:])
        m = Mat2(*ents)
        if not m.det():
            continue
        assert proj_normalize(m.scale(lam)) == proj_normalize(m)
        count += 1


def test_proj_normalize_rejects_zero_and_singular():
    with pytest.raises(ZeroMatrix):
        proj_normalize(Mat2.zero(Q))
    with pytest.raises(SingularMatrix):
        proj_normalize(qm([["1", "1"], ["1", "1"]]))
    for field in (F5, _F25, Z6, _CUBIC):
        with pytest.raises(ZeroMatrix):
            proj_normalize(Mat2.zero(field))
        x = field.gen() + 2 if field.degree > 1 else field.from_int(3)
        with pytest.raises(SingularMatrix):  # rows (x, x^2) and (1, x)
            proj_normalize(Mat2(x, x * x, field.one(), x))
        with pytest.raises(SingularMatrix):
            proj_normalize(Mat2(field.zero(), x, field.zero(), field.one()))


def test_proj_normalize_leading_zero_entries():
    g = proj_normalize(qm([["0", "3"], ["-2", "0"]]))
    assert g.rep == qm([["0", "1"], ["-2/3", "0"]])


def test_proj_mul_and_inv():
    g = proj_normalize(qm([["1", "2"], ["3", "4"]]))
    h = proj_normalize(qm([["0", "1"], ["-1", "0"]]))
    assert g * g.inv() == proj_identity(Q)
    assert (g * h).inv() == h.inv() * g.inv()
    with pytest.raises(MixedFields):
        g * proj_identity(F5)


def test_proj_inv_uses_no_division_structure():
    # adjugate-based inverse agrees with true inverse as a class
    m = qm([["1", "2"], ["3", "4"]])
    assert proj_normalize(m).inv() == proj_normalize(m.inv())


def test_proj_order_unipotent_char_p():
    m = Mat2.from_rows(F5, [["1", "1"], ["0", "1"]])
    assert proj_order(proj_normalize(m)) == 5


def test_proj_order_rotation():
    g = proj_normalize(qm([["0", "1"], ["-1", "0"]]))
    assert proj_order(g) == 2  # in PGL2 the rotation by i is an involution
    z = Z6.gen()
    h = proj_normalize(Mat2.diag(z, z.inv()))
    assert proj_order(h) == 3  # ratio z^2 has order 3


def test_proj_order_respects_bound():
    m = Mat2.from_rows(F5, [["1", "1"], ["0", "1"]])
    assert proj_order(proj_normalize(m), bound=4) is None
    assert proj_order(proj_identity(Q), bound=1) == 1


def test_proj_order_divides_brute_force():
    els = []
    for a, b, c, d in itertools.product(range(3), repeat=4):
        m = Mat2.from_rows(F5, [[a, b], [c, d]])
        if m.det():
            els.append(proj_normalize(m))
    rng = random.Random(5)
    for g in rng.sample(els, 12):
        n = proj_order(g, bound=120)
        assert n is not None
        x = proj_identity(F5)
        for k in range(1, n + 1):
            x = x * g
            if k < n:
                assert not x.is_identity()
        assert x.is_identity()


def test_infinite_order_returns_none():
    g = proj_normalize(qm([["2", "0"], ["0", "1"]]))
    assert proj_order(g, bound=50) is None


# ---------------------------------------------------------------- P^1 points


def test_projpoint_normalization():
    p = ProjPoint(Q.from_int(2), Q.from_int(6))
    assert p == ProjPoint(Q.from_int(1), Q.from_int(3))
    assert p.to_json() == ["1", "3"]
    inf = ProjPoint(Q.zero(), Q.from_int(-7))
    assert inf.to_json() == ["0", "1"]
    with pytest.raises(ZeroVector):
        ProjPoint(Q.zero(), Q.zero())


def test_moebius_action():
    g = proj_normalize(qm([["1", "1"], ["0", "1"]]))  # t -> t + 1 on x/y charts
    p = ProjPoint(Q.from_int(3), Q.one())
    assert moebius_apply(g, p) == ProjPoint(Q.from_int(4), Q.one())
    infinity = ProjPoint(Q.one(), Q.zero())
    assert moebius_apply(g, infinity) == infinity
    with pytest.raises(MixedFields):
        moebius_apply(g, ProjPoint(F5.one(), F5.zero()))


def test_moebius_action_is_a_group_action():
    rng = random.Random(17)
    pool = _SMALL_Q[:15]
    pts = [ProjPoint(Q.one(), t) for t in pool] + [ProjPoint(Q.zero(), Q.one())]
    mats = []
    while len(mats) < 10:
        m = Mat2(*[rng.choice(pool) for _ in range(4)])
        if m.det():
            mats.append(proj_normalize(m))
    for g in mats[:5]:
        for h in mats[5:]:
            for p in pts[:6]:
                assert moebius_apply(g * h, p) == moebius_apply(g, moebius_apply(h, p))


# ---------------------------------------------------------------- eigen machinery


def _check_pairs(m, pairs):
    for lam, v in pairs:
        vx, vy = v
        img = m.apply((vx, vy))
        assert img[0] == lam * vx and img[1] == lam * vy


def test_eigen_scalar_matrix():
    rep = eigenvectors(qm([["3", "0"], ["0", "3"]]))
    three = Q.from_int(3)
    assert rep == [(three, ProjPoint(Q.one(), Q.zero())),
                   (three, ProjPoint(Q.zero(), Q.one()))]


def test_eigen_jordan_block():
    m = qm([["2", "1"], ["0", "2"]])
    rep = eigenvectors(m)
    assert len(rep) == 1
    lam, v = rep[0]
    assert lam == Q.from_int(2)
    assert v == ProjPoint(Q.one(), Q.zero())
    _check_pairs(m, rep)


def test_eigen_lower_triangular():
    m = qm([["2", "0"], ["7", "3"]])
    rep = eigenvectors(m)
    assert [lam for lam, _ in rep] == [Q.from_int(2), Q.from_int(3)]
    _check_pairs(m, rep)


def test_eigen_split_case():
    m = qm([["0", "1"], ["1", "0"]])  # eigenvalues 1, -1
    rep = eigenvectors(m)
    assert {lam for lam, _ in rep} == {Q.from_int(1), Q.from_int(-1)}
    _check_pairs(m, rep)


def test_eigen_extension_required_over_q():
    m = qm([["0", "1"], ["-1", "0"]])  # eigenvalues +-i
    rep = eigenvectors(m)
    assert rep == []


def test_eigen_resolves_in_bigger_field():
    Z12 = cyclotomic_field(12)
    m = Mat2.from_rows(Z12, [["0", "1"], ["-1", "0"]])
    rep = eigenvectors(m)
    assert len(rep) == 2
    _check_pairs(m, rep)


def test_eigen_finite_field_char2():
    F4 = extension_field(prime_field(2), [1, 1, 1])  # z^2 + z + 1
    m = Mat2.from_rows(F4, [["0", "1"], ["1", "1"]])  # char poly z^2+z+1: roots z, z^2
    rep = eigenvectors(m)
    assert len(rep) == 2
    _check_pairs(m, rep)
    n = Mat2.from_rows(F4, [["0", "1"], ["1", "0"]])  # (z-1)^2: eigenvalue 1 doubly
    rep2 = eigenvectors(n)
    assert [lam for lam, _ in rep2] == [F4.one()]
    _check_pairs(n, rep2)


def _eigenvalues_by_scan(m):
    """Every field element tried as an eigenvalue: the reference for the
    characteristic-2 trace formula."""
    f = m.field
    lams = [lam for lam in f.elements()
            if (m - Mat2.identity(f).scale(lam)).det() == f.zero()]
    return sorted(lams, key=lambda lam: lam.sort_key())


_F2 = prime_field(2)
_F4 = extension_field(_F2, [1, 1, 1])         # z^2 + z + 1
_F8 = extension_field(_F2, [1, 1, 0, 1])      # z^3 + z + 1
_F16 = extension_field(_F2, [1, 1, 0, 0, 1])  # z^4 + z + 1


def _check_char2_against_scan(m):
    if m.is_zero() or m.is_scalar():
        return
    pairs = eigenvectors(m)
    assert [lam for lam, _ in pairs] == _eigenvalues_by_scan(m)
    _check_pairs(m, pairs)


@pytest.mark.parametrize("field", [_F2, _F4, _F8])
def test_char2_eigenvalues_match_scan_on_every_matrix(field):
    for ents in itertools.product(list(field.elements()), repeat=4):
        _check_char2_against_scan(Mat2(*ents))


def test_char2_eigenvalues_match_scan_on_seeded_f16_matrices():
    rng = random.Random(16)
    els = list(_F16.elements())
    for _ in range(1500):
        _check_char2_against_scan(Mat2(*(rng.choice(els) for _ in range(4))))


def test_char2_eigenvalues_in_a_field_of_2_to_the_14():
    # z^14 + z^10 + z^6 + z + 1 over F_2; the char poly of [[0,1],[z^2+z,1]]
    # is lam^2 + lam + (z^2 + z) = (lam + z)(lam + z + 1), roots z and z + 1
    f = extension_field(_F2, [1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1])
    z = f.gen()
    m = Mat2(f.zero(), f.one(), z * z + z, f.one())
    pairs = eigenvectors(m)
    assert [lam for lam, _ in pairs] == [z, z + 1]
    _check_pairs(m, pairs)
    # trace 0: the one eigenvalue is the square root of det = z^2 + 1
    n = Mat2(z, f.one(), f.one(), z)
    assert [lam for lam, _ in eigenvectors(n)] == [z + 1]
    # lam^2 + lam + 1 splits, since Tr(1) = 14 = 0: F_4 lies in F_(2^14)
    r = Mat2(f.zero(), f.one(), f.one(), f.one())
    pairs = eigenvectors(r)
    assert len(pairs) == 2
    _check_pairs(r, pairs)


def test_eigen_finite_field_no_root():
    m = Mat2.from_rows(F5, [["0", "1"], ["-1", "0"]])  # -1 = 2^2 mod 5: splits
    rep = eigenvectors(m)
    assert [lam for lam, _ in rep] == [F5.from_int(2), F5.from_int(3)]
    n = Mat2.from_rows(F5, [["0", "1"], ["2", "0"]])  # disc = 8 = 3, not a square mod 5
    rep2 = eigenvectors(n)
    assert rep2 == []


def test_eigen_undecided_in_degree8_field():
    Z24 = cyclotomic_field(24)
    z = Z24.gen()
    m = Mat2.from_rows(Z24, [["0", "1"], [(z + 1).to_json(), "0"]])
    rep = eigenvectors(m)
    assert rep is None


def test_eigen_random_soundness():
    rng = random.Random(31)
    pool = _SMALL_Q[:12]
    for _ in range(60):
        m = Mat2(*[rng.choice(pool) for _ in range(4)])
        if m.is_zero():
            continue
        _check_pairs(m, eigenvectors(m))


@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
@settings(max_examples=80, deadline=None)
def test_hypothesis_eigen_pairs_satisfy_definition(a, b, c, d):
    m = qm([[str(a), str(b)], [str(c), str(d)]])
    if m.is_zero():
        return
    rep = eigenvectors(m)
    _check_pairs(m, rep)
    # a found eigenvalue must be a root of the characteristic polynomial
    for lam, _ in rep or ():
        assert lam * lam - m.trace() * lam + m.det() == Q.zero()
