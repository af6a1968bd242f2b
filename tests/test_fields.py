"""Tests for exact field arithmetic."""

import itertools
import json
import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlines.fields import (
    TABLE_SIZE,
    DivisionByZero,
    Field,
    FieldSpec,
    MixedFields,
    NonPrimeModulus,
    Reduction,
    ReducibleMinpoly,
    UnsupportedField,
    _is_prime,
    cyclotomic_field,
    cyclotomic_polynomial,
    euler_phi,
    extension_field,
    prime_field,
    rational_field,
    reduction_at,
)

Q = rational_field()
F5 = prime_field(5)
F25 = extension_field(F5, [3, 0, 1])  # z^2 - 2 over F_5
Z6 = cyclotomic_field(6)
Z20 = cyclotomic_field(20)
Z24 = cyclotomic_field(24)


def _pool(field, n, rng):
    """n sample elements: a finite field's first n in enumeration order,
    else seeded coefficients a/b with |a| <= 4 and b <= 3."""
    if field.is_finite:
        return list(itertools.islice(field.elements(), n))
    coeffs = [Fraction(a, b) for a in range(-4, 5) for b in (1, 2, 3)]
    return [field.from_coeffs([rng.choice(coeffs) for _ in range(field.degree)])
            for _ in range(n)]

# characteristic-0 extensions whose inverse is the fraction-free solve: the
# cyclotomics, a real quadratic, and a cubic whose rational minpoly makes the
# reduction rows carry a denominator (_red_den = 6)
_CHAR0_EXTENSIONS = [cyclotomic_field(n) for n in (3, 4, 5, 7, 8, 9, 12, 15, 16, 20)]
_CHAR0_EXTENSIONS += [
    extension_field(Q, [-2, 0, 1]),
    extension_field(Q, [Fraction(1, 3), Fraction(1, 2), 0, 1]),
]

# extensions of F_p: F_4, F_16, F_25, F_27, F_49 and F_121 invert by log
# tables, F_2401 and F_10201 by the same integer solve, read mod p
_FINITE_EXTENSIONS = [
    extension_field(prime_field(p), coeffs) for p, coeffs in (
        (2, [1, 1, 1]),           # z^2 + z + 1
        (2, [1, 1, 0, 0, 1]),     # z^4 + z + 1
        (5, [3, 0, 1]),           # z^2 - 2
        (3, [2, 2, 0, 1]),        # z^3 - z - 1
        (7, [1, 0, 1]),           # z^2 + 1, since 7 = 3 mod 4
        (11, [1, 0, 1]),          # z^2 + 1, since 11 = 3 mod 4
        (7, [3, 2, 0, 0, 1]),     # z^4 + 2z + 3
        (101, [-2, 0, 1]),        # z^2 - 2, since 101 = 5 mod 8
    )
]


# ---------------------------------------------------------------- construction


def test_prime_field_requires_prime():
    with pytest.raises(NonPrimeModulus):
        prime_field(6)
    with pytest.raises(NonPrimeModulus):
        prime_field(1)
    prime_field(2)
    prime_field(97)


def test_f25_modulus_is_irreducible_by_residue_exhaustion():
    # squares mod 5 are {0, 1, 4}; 2 is not among them, so z^2 - 2 has no root
    residues = {x * x % 5 for x in range(5)}
    assert residues == {0, 1, 4}
    assert 2 not in residues
    F25_again = extension_field(F5, [-2, 0, 1])
    assert F25_again == F25  # -2 and 3 describe the same field


def test_reducible_modulus_rejected_mod_p():
    with pytest.raises(ReducibleMinpoly):
        extension_field(F5, [1, 0, 1])  # z^2 + 1 = (z-2)(z+2) mod 5
    with pytest.raises(ReducibleMinpoly):
        extension_field(F5, [0, 1, 1])  # divisible by z


def test_reducible_modulus_rejected_over_q():
    with pytest.raises(ReducibleMinpoly):
        extension_field(Q, [-1, 0, 1])  # z^2 - 1
    with pytest.raises(ReducibleMinpoly):
        extension_field(Q, [-8, 0, 0, 1])  # z^3 - 8 has root 2
    with pytest.raises(ReducibleMinpoly):
        extension_field(Q, [Fraction(1, 4), -1, 1])  # (z - 1/2)^2


def test_quartic_must_be_cyclotomic():
    extension_field(Q, [1, 1, 1, 1, 1])  # the 5th cyclotomic polynomial
    with pytest.raises(UnsupportedField):
        extension_field(Q, [2, 0, 0, 0, 1])  # z^4 + 2


def _trial_division_is_prime(n):
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    sieve = [_trial_division_is_prime(n) for n in range(10**5)]
    assert [_is_prime(n) for n in range(10**5)] == sieve


def test_is_prime_rejects_carmichael_numbers():
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
                  321197185, 5394826801, 232250619601, 9746347772161]
    for n in carmichael:
        assert not _is_prime(n), n
    assert _is_prime(10**18 + 3) and not _is_prime(10**18 + 1)
    assert _is_prime(2**61 - 1)  # a Mersenne prime below the base-set bound
    with pytest.raises(UnsupportedField):
        _is_prime(2**127 - 1)  # beyond it: refused, not guessed
    assert not _is_prime(2**128)  # an even number is decided at any size


@pytest.mark.parametrize("p", [1000003, 10**18 + 3])
def test_quadratic_irreducibility_mod_p_reads_the_discriminant(p):
    # both primes are 3 mod 4, so -1 is a non-square: -k^2 is a non-square
    # and k^2 a square for every k != 0, with no search over F_p
    assert p % 4 == 3 and p > 10**6
    base = prime_field(p)
    rng = random.Random(p)
    for k in [1, 2, 3, p - 1] + [rng.randrange(1, p) for _ in range(20)]:
        square = k * k % p
        with pytest.raises(ReducibleMinpoly):
            extension_field(base, [-square % p, 0, 1])  # z^2 - k^2
        field = extension_field(base, [square, 0, 1])  # z^2 + k^2
        assert field.size == p * p
    with pytest.raises(ReducibleMinpoly):
        extension_field(base, [0, 0, 1])  # z^2: the square 0
    with pytest.raises(ReducibleMinpoly):
        extension_field(base, [1, 2, 1])  # (z + 1)^2: discriminant 0
    # p = 1 (mod 3): z^3 + 2 has a root, so factors, exactly when -2 is a
    # cube mod p; Rabin's test decides it with no search over F_p
    assert p % 3 == 1
    if pow(-2 % p, (p - 1) // 3, p) == 1:
        with pytest.raises(ReducibleMinpoly):
            extension_field(base, [2, 0, 0, 1])
    else:
        assert extension_field(base, [2, 0, 0, 1]).size == p**3
    with pytest.raises(ReducibleMinpoly):
        extension_field(base, [-8 % p, 0, 0, 1])  # z^3 - 8 has the root 2


def test_quadratic_irreducibility_reads_the_discriminant():
    extension_field(Q, [10**30 + 1, 0, 1])  # z^2 + (10^30 + 1): no real root
    extension_field(Q, [-(10**30 + 1), 0, 1])  # 10^30 + 1 is not a square
    with pytest.raises(ReducibleMinpoly):
        extension_field(Q, [-(10**15 + 1) ** 2, 0, 1])
    with pytest.raises(ReducibleMinpoly):
        extension_field(Q, [Fraction(-9, 49), 0, 1])  # (z - 3/7)(z + 3/7)


def _has_monic_factor_by_search(m, p):
    """Whether m (low-first over F_p) has a monic factor of degree 1..d/2,
    found by trying every candidate: the exhaustive search Rabin's test
    replaced, kept as its reference."""
    d = len(m) - 1
    for k in range(1, d // 2 + 1):
        for tail in itertools.product(range(p), repeat=k):
            rem = list(m)
            div = list(tail) + [1]
            for shift in range(d - k, -1, -1):
                q = rem[k + shift] % p
                if q:
                    for i, c in enumerate(div):
                        rem[i + shift] = (rem[i + shift] - q * c) % p
            if not any(rem[:k]):
                return True
    return False


@pytest.mark.parametrize("p, degree", [(2, 2), (2, 5), (2, 6), (3, 2), (3, 3),
                                       (3, 4), (5, 2), (5, 3), (5, 4), (7, 2)])
def test_rabin_irreducibility_matches_factor_search(p, degree):
    base = prime_field(p)
    irreducible = 0
    for tail in itertools.product(range(p), repeat=degree):
        m = list(tail) + [1]
        if _has_monic_factor_by_search(m, p):
            with pytest.raises(ReducibleMinpoly):
                extension_field(base, m)
        else:
            assert extension_field(base, m).size == p**degree
            irreducible += 1
    # Gauss: (1/d) sum_{e | d} mu(e) p^(d/e) monic irreducibles of degree d
    mobius = {1: 1, 2: -1, 3: -1, 5: -1, 6: 1}
    expected = sum(mobius[e] * p ** (degree // e)
                   for e in mobius if degree % e == 0) // degree
    assert irreducible == expected


def test_cubic_root_search_is_capped():
    with pytest.raises(ReducibleMinpoly):
        extension_field(Q, [-(10**3 + 1) ** 3, 0, 0, 1])  # root 10^3 + 1
    extension_field(Q, [2, 0, 0, 1])
    with pytest.raises(UnsupportedField):
        extension_field(Q, [10**30 + 1, 0, 0, 1])


def _validate_subprocess(tmp_path, field_json):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"field": field_json,
                                "lines": ["zero", "infinity", "identity",
                                          [["2", "0"], ["0", "3"]]]}))
    return subprocess.run([sys.executable, "-m", "skewlines.cli", "validate", str(path)],
                          capture_output=True, text=True, check=False, timeout=10)


@pytest.mark.parametrize("field_json, valid", [
    ({"kind": "prime", "p": 10**18 + 3}, True),
    ({"kind": "extension", "base": {"kind": "rational"},
      "minpoly": [str(10**30 + 1), "0", "1"]}, True),
    ({"kind": "extension", "base": {"kind": "prime", "p": 1000003},
      "minpoly": ["1000001", "0", "1"]}, True),
    ({"kind": "prime", "p": 10**18 + 1}, False),
    ({"kind": "prime", "p": 2**127 - 1}, False),
    ({"kind": "extension", "base": {"kind": "rational"},
      "minpoly": [str(10**30 + 1), "0", "0", "1"]}, False),
])
def test_large_field_inputs_finish_quickly(tmp_path, field_json, valid):
    # each of these used to run trial division or a divisor scan to ~10^15
    proc = _validate_subprocess(tmp_path, field_json)
    if valid:
        assert proc.returncode == 0 and "valid: yes" in proc.stdout
    else:
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr


def test_towers_rejected():
    with pytest.raises(UnsupportedField):
        extension_field(Z6, [-2, 0, 1])


def test_non_monic_rejected():
    with pytest.raises(UnsupportedField):
        extension_field(Q, [-2, 0, 2])


def test_cyclotomic_field_small_n_is_q():
    assert cyclotomic_field(1) == Q
    assert cyclotomic_field(2) == Q
    assert cyclotomic_field(3).degree == 2
    assert cyclotomic_field(6).conductor == 6
    assert cyclotomic_field(20).degree == 8
    assert cyclotomic_field(24).degree == 8


def test_spec_json_roundtrip():
    for f in (Q, F5, F25, Z6, Z24):
        assert FieldSpec.from_json(f.spec.to_json()) == f.spec
        assert Field(FieldSpec.from_json(f.spec.to_json())) == f


def test_bad_spec_json():
    with pytest.raises(UnsupportedField):
        FieldSpec.from_json({"kind": "padic", "p": 5})
    with pytest.raises(UnsupportedField):
        FieldSpec.from_json({"kind": "prime", "p": "five"})
    with pytest.raises(UnsupportedField):
        FieldSpec.from_json([1, 2, 3])


# ---------------------------------------------------------------- arithmetic


def test_rational_basics():
    a = Q.parse("3/4")
    b = Q.parse("-2/3")
    assert a + b == Q.parse("1/12")
    assert a * b == Q.parse("-1/2")
    assert (a / b) == Q.parse("-9/8")
    assert a - a == Q.zero()
    assert a**0 == Q.one()
    assert a**-2 == Q.parse("16/9")
    assert bool(Q.zero()) is False


def test_prime_field_basics():
    three = F5.from_int(3)
    assert three + three == F5.from_int(1)
    assert three * three == F5.from_int(4)
    assert three.inv() * three == F5.one()
    assert F5.from_int(-1) == F5.from_int(4)
    assert F5.from_fraction(Fraction(1, 2)) == F5.from_int(3)


def test_z6_generator_relation():
    z = Z6.gen()
    assert z * z == z - 1  # z^2 = z - 1 since z^2 - z + 1 = 0
    assert z**6 == Z6.one()
    assert z**3 == -Z6.one()
    assert z**2 != Z6.one()  # with z^3 = -1 != 1, z has order exactly 6
    assert (z**2) ** 3 == Z6.one()  # so z^2 has order exactly 3
    assert (-Z6.one()) ** 2 == Z6.one() != -Z6.one()  # and -1 has order 2


def test_inverses_verified_by_product():
    rng = random.Random(7)
    for field in (Q, F5, F25, Z6, Z20):
        seq = _pool(field, 40, rng)
        for _ in range(25):
            x = rng.choice(seq)
            if not x:
                continue
            assert x * x.inv() == field.one()
            assert (1 / x) * x == field.one()


def test_mixed_fields_rejected():
    with pytest.raises(MixedFields):
        Q.one() + F5.one()
    with pytest.raises(MixedFields):
        Z6.gen() * Z20.gen()


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        Q.one() / Q.zero()
    with pytest.raises(DivisionByZero):
        F25.zero().inv()
    with pytest.raises(ZeroDivisionError):  # DivisionByZero subclasses it
        Z6.one() / Z6.zero()
    for field in _CHAR0_EXTENSIONS:
        with pytest.raises(DivisionByZero):
            field.zero().inv()


def test_int_coercion_both_sides():
    z = Z6.gen()
    assert 1 + z == z + 1
    assert 2 * z == z + z
    assert 1 - z == -(z - 1)
    assert (2 / (z + z)) * z == Z6.one()


def _axiom_check(field, triples):
    one, zero = field.one(), field.zero()
    for a, b, c in triples:
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert a + zero == a
        assert a * one == a
        assert a + (-a) == zero
        if b:
            assert b * b.inv() == one
        assert (a - b) + b == a
        if c:
            assert (a / c) * c == a


def test_field_axioms_on_seeded_samples():
    rng = random.Random(20260819)
    for field in (Q, F5, F25, Z6, Z20, Z24):
        pool = _pool(field, 60, rng)
        triples = [
            (rng.choice(pool), rng.choice(pool), rng.choice(pool))
            for _ in range(400)
        ]
        _axiom_check(field, triples)


@st.composite
def _q_elements(draw):
    num = draw(st.integers(min_value=-50, max_value=50))
    den = draw(st.integers(min_value=1, max_value=30))
    return Q.from_fraction(Fraction(num, den))


@given(_q_elements(), _q_elements(), _q_elements())
@settings(max_examples=60, deadline=None)
def test_hypothesis_rational_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a - (b - c) == (a - b) + c
    if c:
        assert (a * c) / c == a


@st.composite
def _z6_elements(draw):
    c0 = draw(st.integers(min_value=-12, max_value=12))
    c1 = draw(st.integers(min_value=-12, max_value=12))
    return Z6.from_coeffs([c0, c1])


@given(_z6_elements(), _z6_elements())
@settings(max_examples=60, deadline=None)
def test_hypothesis_z6_multiplicative_structure(a, b):
    assert a * b == b * a
    if a and b:
        assert (a * b).inv() == a.inv() * b.inv()


@st.composite
def _char0_extension_elements(draw):
    field = draw(st.sampled_from(_CHAR0_EXTENSIONS))
    coeffs = draw(st.lists(
        st.fractions(min_value=-40, max_value=40, max_denominator=12),
        min_size=field.degree, max_size=field.degree))
    return field.from_coeffs(coeffs)


@given(_char0_extension_elements())
@settings(max_examples=150, deadline=None)
def test_hypothesis_char0_inverse_matches_sympy(a):
    sympy = pytest.importorskip("sympy")
    field = a.field
    if not a:
        with pytest.raises(DivisionByZero):
            a.inv()
        return
    inv = a.inv()
    assert a * inv == field.one()
    z = sympy.symbols("z")
    poly = sum(sympy.Rational(c.numerator, c.denominator) * z**i
               for i, c in enumerate(a.coeffs))
    minpoly = sum(sympy.Rational(c.numerator, c.denominator) * z**i
                  for i, c in enumerate(field.minpoly))
    theirs = sympy.Poly(sympy.invert(poly, minpoly, z), z).all_coeffs()[::-1]
    theirs += [0] * (field.degree - len(theirs))
    assert list(inv.coeffs) == [Fraction(str(c)) for c in theirs]


@st.composite
def _finite_extension_elements(draw):
    field = draw(st.sampled_from(_FINITE_EXTENSIONS))
    p = field.characteristic
    coeffs = draw(st.lists(st.integers(min_value=0, max_value=p - 1),
                           min_size=field.degree, max_size=field.degree))
    return field.from_coeffs(coeffs)


@given(_finite_extension_elements())
@settings(max_examples=150, deadline=None)
def test_hypothesis_finite_extension_inverse(a):
    field = a.field
    if not a:
        with pytest.raises(DivisionByZero):
            a.inv()
        return
    inv = a.inv()
    assert a * inv == field.one()
    # the multiplicative group has order q - 1, so a^(q-2) = a^-1
    assert inv == a ** (field.size - 2)


@given(st.integers(min_value=0, max_value=624))
@settings(max_examples=40, deadline=None)
def test_hypothesis_f25_frobenius_is_additive(k):
    # pick the k-th element; x -> x^5 must be additive in characteristic 5
    seq = itertools.islice(F25.elements(), k + 2)
    xs = list(seq)
    x, y = xs[-1], xs[-2]
    assert (x + y) ** 5 == x**5 + y**5


# ---------------------------------------------------------------- square roots


def test_sqrt_in_rationals():
    assert Q.sqrt(Q.from_int(4)) == Q.from_int(2)
    assert Q.sqrt(Q.parse("9/16")) == Q.parse("3/4")
    assert Q.sqrt(Q.from_int(2)) is None
    assert Q.sqrt(Q.from_int(-1)) is None
    assert Q.sqrt(Q.zero()) == Q.zero()


def test_sqrt_f25_finds_generator():
    two = F25.from_int(2)
    root = F25.sqrt(two)
    assert root == F25.gen()
    assert root * root == two
    # 3 is not a square even in F_25 (it has order 24... check directly)
    threes = [x for x in F25.elements() if x * x == F25.from_int(3)]
    assert (F25.sqrt(F25.from_int(3)) is None) == (not threes)


def test_sqrt_prime_fields_both_residue_classes():
    for p in (3, 5, 7, 13, 17, 97):
        F = prime_field(p)
        squares = {x * x for x in F.elements()}
        for a in F.elements():
            r = F.sqrt(a)
            if a in squares:
                assert r is not None and r * r == a
            else:
                assert r is None


def test_sqrt_tonelli_shanks_p_1_mod_4():
    F = prime_field(13)
    r = F.sqrt(F.from_int(10))
    assert r is not None and r * r == F.from_int(10)


_BILLION_SQRT = """
import resource, time
resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))
from skewlines.fields import prime_field
F = prime_field(10**9 + 9)
start = time.perf_counter()
assert F.sqrt(F.from_int(9)) == F.from_int(3)
for k in (3, 7, 2, 5):
    r = F.sqrt(F.from_int(k))
    assert r is None or r * r == F.from_int(k)
assert time.perf_counter() - start < 1
"""


def test_sqrt_over_a_billion_sized_prime_field_is_immediate():
    # p = 10^9 + 9 = 1 + 8 t: Tonelli-Shanks needs a non-square, and the
    # search for one must read the field lazily, not list its elements.
    # The memory cap keeps a regression from taking the whole machine.
    proc = subprocess.run([sys.executable, "-c", _BILLION_SQRT],
                          capture_output=True, text=True, check=False, timeout=60)
    assert proc.returncode == 0, proc.stderr


def _scan_sqrt(F, a):
    """Reference: the first square root of a in enumeration order, else None."""
    return next((x for x in F.elements() if x * x == a), None)


def _first_irreducible(p, degree):
    for tail in itertools.product(range(p), repeat=degree):
        try:
            return extension_field(prime_field(p), list(tail) + [1])
        except ReducibleMinpoly:
            continue


_SMALL_FINITE_FIELDS = [
    prime_field(p) if d == 1 else _first_irreducible(p, d)
    for p in (2, 3, 5, 7, 11)
    for d in range(1, 8)
    if p**d <= 125
]


@pytest.mark.parametrize("F", _SMALL_FINITE_FIELDS, ids=repr)
def test_sqrt_matches_exhaustive_scan(F):
    for a in F.elements():
        assert F.sqrt(a) == _scan_sqrt(F, a), a


def test_sqrt_in_a_field_of_10007_squared_elements():
    # q - 1 = 2^4 * t with t odd, so the 2-Sylow rounds and the non-square run
    F = extension_field(prime_field(10007), [-5, 0, 1])
    rng = random.Random(9)
    nonsquares = 0
    for _ in range(100):
        x = F.from_coeffs([rng.randrange(10007), rng.randrange(10007)])
        a = x * x
        r = F.sqrt(a)
        assert r is not None and r * r == a and r in (x, -x)
        nonsquares += F.sqrt(x) is None
    assert 0 < nonsquares < 100


def test_i_and_sqrt5_in_z20():
    i = Z20.gen() ** 5
    assert i * i == -Z20.one()
    z = Z20.gen()
    s5 = 2 * (z**4 + z**16) + 1
    assert s5 * s5 == Z20.from_int(5)
    assert Z20.sqrt(Z20.from_int(5)) is not None
    assert Z20.sqrt(Z20.from_int(-1)) is not None


def test_sqrt2_absent_in_z20_present_in_z24():
    assert Z20.sqrt(Z20.from_int(2)) is None  # needs 8 | conductor
    s2 = Z24.sqrt(Z24.from_int(2))
    assert s2 is not None and s2 * s2 == Z24.from_int(2)
    s3 = Z24.sqrt(Z24.from_int(3))
    assert s3 is not None and s3 * s3 == Z24.from_int(3)
    s6 = Z24.sqrt(Z24.from_int(6))
    assert s6 is not None and s6 * s6 == Z24.from_int(6)


def test_sqrt_negative_rationals_in_cyclotomics():
    # -3 is a square in Q(zeta_3) (discriminant -3 divides the conductor)
    Z3 = cyclotomic_field(3)
    r = Z3.sqrt(Z3.from_int(-3))
    assert r is not None and r * r == Z3.from_int(-3)
    assert Z3.sqrt(Z3.from_int(3)) is None
    assert Z3.sqrt(Z3.from_int(-1)) is None  # needs 4 | conductor
    r = Z24.sqrt(Z24.from_int(-6))
    assert r is not None and r * r == Z24.from_int(-6)


def test_sqrt_scaled_by_rational_square():
    r = Z6.sqrt(Z6.parse("-3/4"))
    assert r is not None and r * r == Z6.parse("-3/4")
    assert Z20.sqrt(Z20.parse("45")) is not None  # 45 = 5 * 3^2


def test_sqrt_general_quadratic_elements():
    Qs2 = extension_field(Q, [-2, 0, 1])
    z = Qs2.gen()
    x = 3 + 2 * z  # (1 + sqrt2)^2
    r = Qs2.sqrt(x)
    assert r == 1 + z
    assert Qs2.sqrt(6 - 4 * z) == 2 - z  # (2 - z)^2, sign canonicalized
    assert Qs2.sqrt(z) is None  # sqrt(sqrt(2)) generates degree 4
    assert Qs2.sqrt(Qs2.from_int(3)) is None
    assert Qs2.sqrt(Qs2.from_int(2)) is not None


def test_sqrt_in_z6_of_generator_like_elements():
    z = Z6.gen()
    x = z * z  # a square by construction
    r = Z6.sqrt(x)
    assert r is not None and r * r == x


def test_odd_degree_extension_has_no_new_rational_sqrts():
    C = extension_field(Q, [-2, 0, 0, 1])  # z^3 - 2
    assert C.sqrt(C.from_int(2)) is None
    assert C.sqrt(C.from_int(4)) == C.from_int(2)
    with pytest.raises(UnsupportedField):
        C.sqrt(C.gen())  # non-rational element, not decidable here


def test_sqrt_undecidable_raises_in_big_cyclotomics():
    with pytest.raises(UnsupportedField):
        Z24.sqrt(Z24.gen() + 1)  # non-rational element of a degree-8 field


def test_sqrt_canonical_sign():
    assert Q.sqrt(Q.from_int(9)) == Q.from_int(3)
    s5 = Z20.sqrt(Z20.from_int(5))
    first_nonzero = next(c for c in s5.coeffs if c)
    assert first_nonzero > 0
    r = F25.sqrt(F25.from_int(2))
    other = -r
    assert r.nums <= other.nums  # lexicographically least representative


# ---------------------------------------------------------------- enumeration


def test_finite_enumerations_exhaustive_and_deterministic():
    els = list(F25.elements())
    assert len(els) == 25 == len(set(els))
    assert els[0] == F25.zero()
    assert els[1] == F25.gen()
    again = list(F25.elements())
    assert els == again
    assert len(list(prime_field(7).elements())) == 7


@pytest.mark.parametrize("F", [prime_field(7), F25], ids=repr)
def test_finite_enumeration_is_lexicographic_first_coefficient_first(F):
    want = list(itertools.product(range(F.characteristic), repeat=F.degree))
    assert [x.nums for x in F.elements()] == want


def test_infinite_field_cannot_enumerate_fully():
    with pytest.raises(UnsupportedField):
        list(Q.elements())


# ---------------------------------------------------------------- orders, bounds


def test_root_of_unity_bounds():
    assert Q.root_of_unity_bound() == 6
    assert Z20.root_of_unity_bound() == 60
    assert F25.root_of_unity_bound() == 624
    assert prime_field(7).root_of_unity_bound() == 48


def test_finite_multiplicative_group_orders_divide_q_minus_1():
    for x in F25.elements():
        if x:
            assert x**24 == F25.one()


# ---------------------------------------------------------------- cyclotomics


def test_cyclotomic_polynomials_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for n in range(1, 41):
        ours = cyclotomic_polynomial(n)
        theirs = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
        assert list(ours) == list(reversed([int(c) for c in theirs]))


def test_euler_phi_small_values():
    assert [euler_phi(n) for n in range(1, 13)] == [
        1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4,
    ]


def test_conductor_detection():
    assert Z6.conductor == 6
    assert Z20.conductor == 20
    assert Z24.conductor == 24
    assert extension_field(Q, [-2, 0, 1]).conductor is None
    assert extension_field(Q, [1, 1, 1]).conductor == 3


def test_generator_order_matches_conductor():
    for n in (3, 4, 6, 8, 12, 20, 24):
        f = cyclotomic_field(n)
        z = f.gen()
        # order exactly n: z^n = 1, and z^(n/q) != 1 for each prime q | n
        assert z**n == f.one()
        for q in (2, 3, 5):
            if n % q == 0:
                assert z ** (n // q) != f.one()


# ---------------------------------------------------------------- parsing, json


def test_parse_expressions():
    assert Q.parse("(1 + 1/2) * 4") == Q.from_int(6)
    assert Q.parse("-3/4 + 1") == Q.parse("1/4")
    z = Z6.gen()
    assert Z6.parse("z^2 - z + 1") == Z6.zero()
    assert Z6.parse("2*z - 1") == 2 * z - 1
    with pytest.raises(ValueError):
        Q.parse("1 +")
    with pytest.raises(ValueError):
        Q.parse("q")
    with pytest.raises(ValueError):
        Z6.parse("z^(1/2)")


def test_parse_caps_exponents_in_characteristic_zero():
    # a power's coefficients grow with its exponent over Q(zeta_n), so the
    # parser refuses one past the cap; over F_q every power has bounded size
    x = Z20.parse("(1 + z)^10000")
    assert x == (Z20.gen() + 1) ** 10000
    with pytest.raises(ValueError, match="exceeds"):
        Z20.parse("(1 + z)^10001")
    with pytest.raises(ValueError, match="exceeds"):
        Q.parse("2^100000000")
    assert F25.parse("(1 + z)^1000000000000000000000000000000") == \
        (F25.gen() + 1) ** (10**30)


def test_element_json_roundtrip():
    x = Q.parse("-7/3")
    assert Q.element_from_json(x.to_json()) == x
    y = Z24.gen() ** 3 - 2
    assert Z24.element_from_json(y.to_json()) == y
    assert F25.element_from_json([2, 3]) == F25.from_coeffs([2, 3])
    assert F5.element_from_json("7") == F5.from_int(2)


def test_repr_is_readable():
    assert repr(Q.parse("-1/2")) == "-1/2"
    assert repr(Z6.zero()) == "0"
    assert repr(Z6.gen()) == "z"
    assert repr(-Z6.gen()) == "-z"
    assert repr(Z6.from_coeffs([1, -1])) == "1 - z"


# ---------------------------------------------------------------------------
# reductions at the first root of the minimal polynomial


def _first_root(field, p) -> int:
    """The root the reduction sends zeta to: the first a^((p-1)/n),
    a = 2, 3, ..., at which the minimal polynomial vanishes."""
    n = field.conductor
    if field.degree == 1:
        return 1
    for a in itertools.count(2):
        r = pow(a, (p - 1) // n, p)
        if sum(int(c) * pow(r, i, p) for i, c in enumerate(field.minpoly)) % p == 0:
            return r


def _roots(field, red) -> list:
    """The reductions at every root of the minimal polynomial mod p: zeta
    goes to r^k for each k prime to n, r the reduction's own root, which
    comes first."""
    n, d, p = field.conductor, field.degree, red.p
    r = red.powers[1] if d > 1 else 1
    return [Reduction(p, tuple(pow(r, i * k, p) for i in range(d)))
            for k in range(1, n + 1) if math.gcd(k, n) == 1]


@pytest.mark.parametrize("n", [1, 3, 4, 5, 8, 12, 16, 20])
def test_reduction_holds_every_root_and_keeps_the_first(n):
    f = Q if n == 1 else cyclotomic_field(n)
    red = f.reduction()
    p, d = red.p, f.degree
    assert p > 2**31 and (p - 1) % n == 0 and d == euler_phi(n)
    # the powers of r, k prime to n, are the d distinct roots of m mod p
    roots = _roots(f, red)
    zetas = [w.powers[1] if d > 1 else 1 for w in roots]
    assert len(zetas) == len(set(zetas)) == d
    for w, r in zip(roots, zetas):
        assert w.powers == tuple(pow(r, i, p) for i in range(d))
        assert pow(r, n, p) == 1
        if d > 1:
            assert sum(int(c) * pow(r, i, p) for i, c in enumerate(f.minpoly)) % p == 0
    # the reduction keeps the first, the one every key is taken at
    assert red.powers == tuple(pow(_first_root(f, p), i, p) for i in range(d))
    assert reduction_at(f, p).powers == red.powers


_REDUCED_FIELDS = [Q, cyclotomic_field(4), cyclotomic_field(5),
                   cyclotomic_field(12), cyclotomic_field(20)]


@st.composite
def _reduced_elements(draw, count):
    field = draw(st.sampled_from(_REDUCED_FIELDS))
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=9)
    coeffs = st.lists(coeff, min_size=field.degree, max_size=field.degree)
    return field, [field.from_coeffs(draw(coeffs)) for _ in range(count)]


@given(_reduced_elements(2))
@settings(max_examples=150, deadline=None)
def test_images_are_ring_maps_at_every_root(case):
    field, (x, y) = case
    for red in _roots(field, field.reduction()):
        p = red.p

        def image(e):
            return red.image(e.nums, e.den)

        ix, iy = image(x), image(y)
        assert image(x + y) == (ix + iy) % p
        assert image(x * y) == ix * iy % p
        assert image(field.one()) == 1
        if field.degree > 1:
            assert image(field.gen()) == red.powers[1]
        if x:
            assert image(x.inv()) == pow(ix, -1, p)


def test_reduction_by_hand():
    # Q(i) at 5: i goes to 2, the first a^((5-1)/4) with a^2 + 1 = 0 mod 5
    red = reduction_at(cyclotomic_field(4), 5)
    assert (red.p, red.powers) == (5, (1, 2))
    assert red.image((1, 1), 1) == 3           # 1 + i
    assert red.image((1, 1), 5) is None        # p divides the denominator
    assert red.key((2, 4)) == (1, 2) and red.key((0, 0)) is None


# ---------------------------------------------------------------------------
# log-table kernels over small F_q against the polynomial kernels


def _poly_dot(f, pairs):
    """sum of a b over the (a, b) pairs of coefficient tuples: the products
    added unreduced by _conv, then one _fold."""
    conv = [0] * (2 * f.degree - 1)
    for a, b in pairs:
        Field._conv(a, b, conv)
    return f._fold(conv, 1)


def _poly_inv(f, a):
    return f._inv_bareiss(a, 1)


# F_4, F_8, F_9, F_16, F_25, F_27 (twice), F_49 and F_121
_TABLED_FIELDS = [
    extension_field(prime_field(p), coeffs) for p, coeffs in (
        (2, [1, 1, 1]),           # z^2 + z + 1
        (2, [1, 1, 0, 1]),        # z^3 + z + 1
        (3, [1, 0, 1]),           # z^2 + 1
        (2, [1, 1, 0, 0, 1]),     # z^4 + z + 1
        (5, [3, 0, 1]),           # z^2 - 2
        (3, [1, 2, 0, 1]),        # z^3 + 2z + 1
        (3, [2, 2, 0, 1]),        # z^3 - z - 1: no z + c is primitive
        (7, [4, 0, 1]),           # z^2 - 3
        (11, [1, 0, 1]),          # z^2 + 1
    )
]
# F_256, the largest field under the bound: z^8 + z^4 + z^3 + z + 1 over
# F_2, where z has order 51 and z + 1 is primitive
_LARGEST_TABLED = extension_field(prime_field(2), [1, 1, 0, 1, 1, 0, 0, 0, 1])
# F_289 = F_17^2, the least extension field above it: z^2 - 3
_LEAST_UNTABLED = extension_field(prime_field(17), [-3, 0, 1])


def _units(f):
    return [x.nums for x in f.elements() if not x.is_zero()]


def _random_dots(f, rng, count):
    """count random sums of two to four products, every fourth one built to
    cancel to zero, as pairs of coefficient tuples."""
    elements = [x.nums for x in f.elements()]
    out = []
    for i in range(count):
        pairs = [(rng.choice(elements), rng.choice(elements))
                 for _ in range(rng.randint(2, 4))]
        if i % 4 == 0:
            # the last product is minus the sum of the others
            rest = _poly_dot(f, pairs[:-1])[0]
            pairs[-1] = (f._neg_nums(rest), f.one().nums)
        out.append(pairs)
    return out


def _dot_args(pairs):
    return [x for a, b in pairs for x in (a, 1, b, 1)]


def test_table_bound_holds_the_listed_fields():
    for f in _TABLED_FIELDS + [_LARGEST_TABLED]:
        assert "_mul" in vars(f) and f.size <= TABLE_SIZE
    assert _LARGEST_TABLED.size == TABLE_SIZE
    # below and above the bound, and in characteristic 0, the class kernels
    for f in (_LEAST_UNTABLED, F5, Q, Z20, _FINITE_EXTENSIONS[-1]):
        assert not {"_mul", "_dot", "_inv"} & set(vars(f))


def _field_id(f):
    return f"F{f.size}-" + "".join(map(str, f.minpoly))


@pytest.mark.parametrize("f", _TABLED_FIELDS + [_LARGEST_TABLED], ids=_field_id)
def test_table_kernels_match_the_polynomial_kernels(f):
    elements = [x.nums for x in f.elements()]
    for a, b in itertools.product(elements, repeat=2):
        assert f._mul(a, 1, b, 1) == _poly_dot(f, [(a, b)])
    for a in _units(f):
        assert f._inv(a, 1) == _poly_inv(f, a)
    with pytest.raises(DivisionByZero):
        f._inv(f.zero().nums, 1)
    rng = random.Random(f.size)
    for pairs in _random_dots(f, rng, 200):
        assert f._dot(*_dot_args(pairs)) == _poly_dot(f, pairs)
    # a sum that cancels, alone
    assert f._dot(*_dot_args(_random_dots(f, rng, 1)[0])) == (f.zero().nums, 1)


def test_kernels_above_the_bound_match_the_polynomial_kernels():
    # every element against a few random ones for _mul, every element for
    # _inv: the class kernels are the reference here, so this shows the
    # field works on the polynomial path
    f = _LEAST_UNTABLED
    rng = random.Random(f.size)
    units = _units(f)
    others = [rng.choice(units) for _ in range(4)] + [f.zero().nums]
    for a in units:
        for b in others:
            assert f._mul(a, 1, b, 1) == _poly_dot(f, [(a, b)])
        assert f._inv(a, 1) == _poly_inv(f, a)
    for pairs in _random_dots(f, rng, 200):
        assert f._dot(*_dot_args(pairs)) == _poly_dot(f, pairs)
