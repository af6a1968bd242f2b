"""Each family builder must produce the group its metadata promises."""

import pytest

from skewlines.families import (
    BuiltFamily,
    InvalidParameters,
    a4_example,
    a5_example,
    affine,
    build_family,
    c3_scaled,
    cyclic_4line,
    elementary_abelian,
    root_of_unity,
    s4_example,
    standard_construction,
)
from skewlines.fields import cyclotomic_field, prime_field, rational_field
from skewlines.groupoid import classify, generator_set, group_closure
from skewlines.matrices import Mat2


def analyzed(fam: BuiltFamily):
    G = group_closure(generator_set(fam.config))
    return G, classify(G)


def assert_matches_metadata(fam: BuiltFamily):
    G, c = analyzed(fam)
    assert G.order == fam.expected_order
    assert c.label == fam.expected_label


# ---------------------------------------------------------------------------
# rotation blocks


@pytest.mark.parametrize("n", range(2, 9))
def test_standard_construction_orders(n):
    assert_matches_metadata(standard_construction(n))


def test_standard_construction_uses_minimal_fields():
    assert standard_construction(2).config.field.conductor == 1
    assert standard_construction(6).config.field.conductor == 3
    assert standard_construction(8).config.field.conductor == 8


def test_standard_construction_rejects_single_rotation():
    with pytest.raises(InvalidParameters):
        standard_construction(1)


@pytest.mark.parametrize("s_order,order", [(2, 6), (3, 6), (4, 12), (5, 30), (6, 6)])
def test_c3_scaled_orders(s_order, order):
    fam = c3_scaled(s_order)
    assert fam.expected_order == order
    assert_matches_metadata(fam)


def test_c3_scaled_has_eight_lines():
    fam = c3_scaled(2)
    assert len(fam.config.labels()) == 8


def test_c3_scaled_rejects_trivial_scale():
    with pytest.raises(InvalidParameters):
        c3_scaled(1)


def test_cyclic_4line_matches_hand_computation():
    fam = cyclic_4line(3, 3)
    f = fam.config.field
    assert f.conductor == 3
    want = Mat2.diag(f.parse("1 + z"), f.parse("-z"))
    assert fam.config.matrix("2") == want
    assert_matches_metadata(fam)


@pytest.mark.parametrize("m,n,order", [(2, 3, 6), (4, 6, 12), (5, 5, 5), (3, 4, 12)])
def test_cyclic_4line_orders(m, n, order):
    fam = cyclic_4line(m, n)
    assert fam.expected_order == order
    assert_matches_metadata(fam)


def test_cyclic_4line_rejected_parameters():
    with pytest.raises(InvalidParameters):
        cyclic_4line(2, 2)
    with pytest.raises(InvalidParameters):
        cyclic_4line(1, 5)


# ---------------------------------------------------------------------------
# characteristic-p families


@pytest.mark.parametrize("p", [2, 3, 5])
def test_elementary_abelian_defaults(p):
    fam = elementary_abelian(p)
    assert fam.expected_order == p * p
    assert_matches_metadata(fam)


def test_elementary_abelian_rank_one_fallback():
    fam = elementary_abelian(3, ["2"])
    assert fam.expected_order == 3
    assert fam.expected_label == "cyclic(3)"
    assert_matches_metadata(fam)


def test_elementary_abelian_rejections():
    with pytest.raises(InvalidParameters):
        elementary_abelian(3, ["1"])  # meets the identity line
    with pytest.raises(InvalidParameters):
        elementary_abelian(3, [])
    with pytest.raises(InvalidParameters):
        elementary_abelian(3, b="0")
    with pytest.raises(InvalidParameters):
        elementary_abelian(4)


def test_affine_metadata():
    fam = affine(3)
    assert fam.expected_order == 36
    assert fam.expected_label == "affine(9,4)"
    assert_matches_metadata(fam)


def test_affine_rejections():
    with pytest.raises(InvalidParameters):
        affine(2)
    with pytest.raises(InvalidParameters):
        affine(9)
    with pytest.raises(InvalidParameters):
        affine(5, 4)  # order 2, not 4
    with pytest.raises(InvalidParameters):
        affine(5, 5)  # not a unit


def _brute_order(c, p):
    k, acc = 1, c % p
    while acc != 1:
        acc, k = acc * c % p, k + 1
    return k


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47])
def test_affine_default_dilation_square_is_least_primitive_root(p):
    want = next(c for c in range(2, p) if _brute_order(c, p) == p - 1)
    assert affine(p).params["dilation_square"] == want
    for c in range(1, p):
        if _brute_order(c, p) != p - 1:
            with pytest.raises(InvalidParameters, match="does not have order"):
                affine(p, c)


def test_affine_refuses_a_prime_too_large_to_factor():
    with pytest.raises(InvalidParameters, match="primitive root"):
        affine(10**18 + 3)


def test_affine_explicit_dilation_square():
    fam = affine(5, 3)
    assert fam.params["dilation_square"] == 3
    assert fam.expected_order == 200


# ---------------------------------------------------------------------------
# polyhedral examples


def test_polyhedral_metadata():
    assert (a5_example().expected_order, a5_example().expected_label) == (60, "A5")
    assert (s4_example().expected_order, s4_example().expected_label) == (24, "S4")
    assert (a4_example().expected_order, a4_example().expected_label) == (12, "A4")
    assert a5_example().config.field.conductor == 20
    assert s4_example().config.field.conductor == 4
    assert a4_example().config.field.conductor == 12


def test_s4_embeds_in_larger_field():
    fam = s4_example(cyclotomic_field(12))
    G, c = analyzed(fam)
    assert G.order == 24 and c.label == "S4"


def test_a4_rejects_zero_parameter():
    with pytest.raises(InvalidParameters):
        a4_example("0")


# ---------------------------------------------------------------------------
# helpers and registry


def test_root_of_unity_orders():
    z3 = cyclotomic_field(3)
    u = root_of_unity(z3, 6)
    assert u**6 == z3.one()
    assert u**2 != z3.one() and u**3 != z3.one()
    assert root_of_unity(rational_field(), 2) == -rational_field().one()
    with pytest.raises(InvalidParameters):
        root_of_unity(z3, 4)
    with pytest.raises(InvalidParameters):
        root_of_unity(prime_field(5), 4)


def test_build_family_registry():
    fam = build_family("standard", n=4)
    assert fam.expected_order == 4
    with pytest.raises(InvalidParameters):
        build_family("nonesuch")
    with pytest.raises(InvalidParameters):
        build_family("standard", wrong_arg=1)


def test_family_json_shape():
    blob = standard_construction(3).to_json()
    assert blob["name"] == "standard"
    assert blob["params"] == {"n": 3}
    assert blob["expected_order"] == 6
    assert blob["expected_label"] == "cyclic(6)"
    assert "lines" in blob["config"]
