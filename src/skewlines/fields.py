"""Exact field arithmetic: Q, prime fields F_p, and simple extensions F[z]/(m(z)).

An element is stored as an integer coefficient vector (low degree first) with a
single shared positive denominator, kept reduced modulo the minimal polynomial
and with content 1.  That makes equality plain tuple comparison, every value
hashable, and the multiply/reduce hot path pure integer work.

Only one extension step is supported: the base of an extension must be the
rationals or a prime field.  Composite needs (several radicals at once) are met
by a single cyclotomic extension, see :func:`cyclotomic_field`.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional, Sequence, Union


class FieldError(Exception):
    """Base class for field construction and arithmetic errors."""


class NonPrimeModulus(FieldError):
    """The modulus of a prime field is not prime."""


class ReducibleMinpoly(FieldError):
    """A minimal polynomial was proven reducible over its base field."""


class MixedFields(FieldError):
    """Two operands belong to different fields."""


class DivisionByZero(FieldError, ZeroDivisionError):
    """Inversion or division by the zero element."""


class UnsupportedField(FieldError):
    """The requested construction or operation is outside supported scope."""


CoeffLike = Union[int, str, Fraction, "FieldElement"]


def _fraction(text: str) -> Fraction:
    """Fraction(text), reporting a zero denominator such as "1/0" as a field error."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise DivisionByZero(f"zero denominator in {text!r}") from None


# the first twelve primes as Miller-Rabin bases decide primality exactly
# below psi_12 (Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461

# integers at or above this are not factored or searched for divisors
_FACTOR_CAP = 10**12

# the largest exponent Field.parse takes in characteristic 0, where the
# coefficients of a power grow with it: (1+z)^N over Q(zeta_12) parses in
# 0.14 s at N = 10^5 and 61 s at 10^7, and in a few ms at 10^4 over
# Q(zeta_20).  Over F_q every power has bounded size, so any exponent is
# taken.
_EXPONENT_CAP = 10**4

# An extension F_q of F_p with q at most this gets exp, log and Zech tables
# (Field._tabulate), built when the field is.  The build walks about q
# powers of a primitive element, each d products in F_p, and keeps about
# 100 bytes an element.  Each later _mul, _dot and _inv is a lookup, 5 to
# 100 times cheaper than the polynomial kernel (_mul: 0.4 against 2.4 us
# in degree 2, 0.3 against 4.7 us in degree 8), so the build repays itself
# after its cost in polynomial products: at most about 250, as the build
# takes about 0.5 ms at q = 169 in degree 2 and 1 ms at q = 256 in
# degree 8.  The least analysis over F_q that the benchmark and CI run,
# elementary_abelian p=5 over F_25, makes 727 kernel calls, and the fields
# they reach have q <= 169.  Larger fields are left out: near q = 2^12 the
# build takes 10 ms in degree 2 (F_61^2) and 80 ms in degree 12 and holds
# 0.6 to 1 MB, which no measured run of that size repays.
TABLE_SIZE = 2**8


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; an odd n beyond _MR_LIMIT is refused."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_LIMIT:
        raise UnsupportedField(f"primality is not decided at or above {_MR_LIMIT}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False  # b witnesses that n is composite
    return True


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer by trial division."""
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(n: int) -> int:
    return math.prod(p ** (e - 1) * (p - 1) for p, e in _factorize(n).items())


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (low-first), divisor monic-led."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for shift in range(len(out) - 1, -1, -1):
        coeff = num[len(den) - 1 + shift]
        if coeff % lead != 0:
            raise ArithmeticError("inexact polynomial division")
        q = coeff // lead
        out[shift] = q
        if q:
            for i, c in enumerate(den):
                num[i + shift] -= q * c
    if any(num[: len(den) - 1]):
        raise ArithmeticError("nonzero remainder in exact division")
    return out


def _poly_rem(num: list[int], den: list[int], p: int) -> list[int]:
    """num mod den over F_p (low-first, den's leading coefficient nonzero
    mod p), with trailing zeros dropped: [] is the zero polynomial."""
    num = [c % p for c in num]
    dd = len(den) - 1
    inv_lead = pow(den[-1], -1, p)
    for shift in range(len(num) - 1 - dd, -1, -1):
        c = num[dd + shift]
        if c:
            q = c * inv_lead % p
            for i, dc in enumerate(den):
                num[i + shift] = (num[i + shift] - q * dc) % p
    del num[dd:]
    while num and not num[-1]:
        num.pop()
    return num


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """A greatest common divisor over F_p of a and b, both trimmed."""
    while b:
        a, b = b, _poly_rem(a, b, p)
    return a


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, low degree first."""
    if n < 1:
        raise ValueError("n must be positive")
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in _divisors(n):
        if d != n:
            poly = _poly_div_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _max_order_with_phi_le(bound: int) -> int:
    """Largest n such that phi(n) <= bound (phi(n) >= sqrt(n/2) caps the scan)."""
    best = 1
    for n in range(1, 2 * bound * bound + 3):
        if euler_phi(n) <= bound:
            best = n
    return best


@dataclass(frozen=True)
class FieldSpec:
    """Serializable description of a supported field.

    kind is one of "rational", "prime", "extension".  For extensions, minpoly
    holds the monic minimal polynomial as exact coefficient strings, low degree
    first (so ("1", "0", "1") means z^2 + 1).
    """

    kind: str
    p: Optional[int] = None
    base: Optional["FieldSpec"] = None
    minpoly: Optional[tuple[str, ...]] = None

    def to_json(self) -> dict:
        if self.kind == "rational":
            return {"kind": "rational"}
        if self.kind == "prime":
            return {"kind": "prime", "p": self.p}
        return {
            "kind": "extension",
            "base": self.base.to_json(),
            "minpoly": list(self.minpoly),
        }

    @staticmethod
    def from_json(obj: dict) -> "FieldSpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise UnsupportedField(f"not a field description: {obj!r}")
        kind = obj["kind"]
        if kind == "rational":
            return FieldSpec("rational")
        if kind == "prime":
            p = obj.get("p")
            if not isinstance(p, int):
                raise UnsupportedField("prime field needs an integer 'p'")
            return FieldSpec("prime", p=p)
        if kind == "extension":
            base = FieldSpec.from_json(obj["base"])
            return extension_spec(base, obj["minpoly"])
        raise UnsupportedField(f"unknown field kind {kind!r}")


RATIONAL_SPEC = FieldSpec("rational")


def _mod_p(fr: Fraction, p: int) -> int:
    """The image of a rational in F_p; a denominator divisible by p has none."""
    den = fr.denominator % p
    if den == 0:
        raise DivisionByZero(f"denominator of {fr} vanishes mod {p}")
    return fr.numerator * pow(den, p - 2, p) % p


def extension_spec(base: FieldSpec, coeffs: Sequence[CoeffLike]) -> FieldSpec:
    """The spec of base[z]/(m(z)), m's coefficients in canonical string form."""
    p = base.p if base.kind == "prime" else None
    fracs = (_fraction(str(c)) for c in coeffs)
    minpoly = tuple(str(_mod_p(fr, p) if p else fr) for fr in fracs)
    return FieldSpec("extension", base=base, minpoly=minpoly)


class FieldElement:
    """Immutable element of a :class:`Field`.

    Supports +, -, *, /, ** with other elements of the same field and with
    plain ints.  Equality and hashing follow the canonical representation.
    """

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: "Field", nums: tuple[int, ...], den: int):
        self.field = field
        self.nums = nums
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficient vector over the base field as exact rationals."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_one(self) -> bool:
        return self.den == 1 and self.nums[0] == 1 and not any(self.nums[1:])

    def is_rational(self) -> bool:
        """True when the element lies in the prime field / rationals."""
        return not any(self.nums[1:])

    def inv(self) -> "FieldElement":
        return self.field._make(*self.field._inv(self.nums, self.den))

    def sort_key(self) -> tuple:
        return (self.nums, self.den)

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field.spec != self.field.spec:
                raise MixedFields(
                    f"cannot mix elements of {self.field} and {other.field}"
                )
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        if isinstance(other, Fraction):
            return self.field.from_fraction(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        f = self.field
        return f._make(*f._add(self.nums, self.den, o.nums, o.den))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        f = self.field
        return f._make(*f._add(self.nums, self.den, f._neg_nums(o.nums), o.den))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        f = self.field
        return f._make(*f._mul(self.nums, self.den, o.nums, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inv()

    def __neg__(self):
        return self.field._make(self.field._neg_nums(self.nums), self.den)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return (
            (self.field is other.field or self.field.spec == other.field.spec)
            and self.nums == other.nums
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.nums, self.den))

    def __bool__(self):
        return any(self.nums)

    def to_json(self):
        """Canonical JSON form: a string for base fields, a list for extensions."""
        if self.field.degree == 1:
            return str(Fraction(self.nums[0], self.den))
        return [str(Fraction(n, self.den)) for n in self.nums]

    def __repr__(self):
        if self.field.degree == 1:
            return str(Fraction(self.nums[0], self.den))
        parts = []
        for i, n in enumerate(self.nums):
            if n == 0:
                continue
            c = Fraction(n, self.den)
            if i == 0:
                parts.append(str(c))
            else:
                var = "z" if i == 1 else f"z^{i}"
                if c == 1:
                    parts.append(var)
                elif c == -1:
                    parts.append(f"-{var}")
                else:
                    parts.append(f"{c}*{var}")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += f" + {p}" if not p.startswith("-") else f" - {p[1:]}"
        return out


class Reduction:
    """A ring map onto F_p from the elements of Q or Q(zeta_n) whose
    denominator p does not divide.  It sends zeta to a root r of the
    minimal polynomial mod p, a primitive n-th root of unity since
    p = 1 (mod n); powers holds r^i mod p for i below the degree.  An image
    proposes: equal elements have equal images, but equal images do not
    make equal elements, so a caller confirms a match exactly."""

    __slots__ = ("p", "powers")

    def __init__(self, p: int, powers: tuple[int, ...]):
        self.p, self.powers = p, powers

    def image(self, nums: Sequence[int], den: int) -> Optional[int]:
        """The image of the element nums/den, or None when p divides den."""
        p = self.p
        den %= p
        if not den:
            return None
        return sum(a * w for a, w in zip(nums, self.powers)) * pow(den, -1, p) % p

    def key(self, image: Optional[Sequence[Optional[int]]]) -> Optional[tuple]:
        """The image of a projective point, scaled so that its first nonzero
        entry is 1; None when the image or one of its entries is undefined,
        or every entry is zero.  Equal points whose images are defined and
        nonzero have equal keys."""
        if image is None or None in image:
            return None
        p = self.p
        for x in image:
            if x:
                s = pow(x, -1, p)
                return tuple(y * s % p for y in image)
        return None


class Field:
    """A supported exact field: Q, F_p, or a one-step extension of either.

    The arithmetic kernels _mul, _dot and _inv work on raw (nums, den)
    pairs.  The class's are polynomial: a product is formed unreduced
    (_conv) and reduced once modulo the minimal polynomial (_fold), and an
    inverse is a fraction-free solve (_inv_bareiss).  An extension F_q with
    q <= TABLE_SIZE instead binds table kernels to the instance when it is
    built (_tabulate): with the exp, log and Zech tables of a primitive
    element a product is a sum of logs, a sum of products one Zech lookup
    a term, and an inverse a negated log (Zech's logarithms; Lidl and
    Niederreiter, Finite Fields, section 10.1).  They return the same
    canonical tuples.  Q, Q(zeta_n), F_p and larger F_q keep the class's
    kernels, with no per-call branch; the bound and its reason are at
    TABLE_SIZE.
    """

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        if spec.kind == "rational":
            self.characteristic = 0
            self.degree = 1
            self.minpoly: Optional[tuple[Fraction, ...]] = None
        elif spec.kind == "prime":
            if not isinstance(spec.p, int) or not _is_prime(spec.p):
                raise NonPrimeModulus(f"{spec.p!r} is not prime")
            self.characteristic = spec.p
            self.degree = 1
            self.minpoly = None
        elif spec.kind == "extension":
            if spec.base is None or spec.minpoly is None:
                raise UnsupportedField("extension needs a base and a minpoly")
            if spec.base.kind == "extension":
                raise UnsupportedField(
                    "nested extension towers are not supported; supply a single "
                    "extension of Q or F_p with one primitive element "
                    "(see cyclotomic_field for composite needs)"
                )
            base = Field(spec.base)
            self.characteristic = base.characteristic
            coeffs = tuple(Fraction(c) for c in spec.minpoly)
            if len(coeffs) < 3:
                raise UnsupportedField("extension degree must be at least 2")
            if coeffs[-1] != 1:
                raise UnsupportedField("minimal polynomial must be monic")
            self.degree = len(coeffs) - 1
            self.minpoly = coeffs
        else:
            raise UnsupportedField(f"unknown field kind {spec.kind!r}")

        p = self.characteristic
        self.is_finite = p > 0
        self.size: Optional[int] = p**self.degree if self.is_finite else None
        self.conductor: Optional[int] = None  # n when this is Q(zeta_n)
        self._reduction: Optional[Reduction] = None  # built by reduction()

        if spec.kind == "extension":
            if p:
                self._mod_minpoly = tuple(_mod_p(c, p) for c in self.minpoly)
                self._build_reduction_rows()
                self._check_irreducible_mod_p()
                if self.size <= TABLE_SIZE:
                    self._tabulate()
            else:
                self._detect_conductor()
                self._check_irreducible_char0()
                self._build_reduction_rows()
        else:
            # no reduction rows: _fold only normalizes in degree 1
            self._red_rows, self._red_den = (), 1
            if spec.kind == "rational":
                self.conductor = 1

    # -- construction-time checks -------------------------------------------

    def _check_irreducible_mod_p(self):
        p = self.characteristic
        m = list(self._mod_minpoly)
        d = self.degree
        # Rabin's test: m is irreducible of degree d exactly when it divides
        # z^(p^d) - z and is coprime to z^(p^(d/q)) - z for each prime q | d
        # (Rabin, "Probabilistic algorithms in finite fields", 1980).
        # frob[k] = z^(p^k) - z mod m, from powers taken in this ring, whose
        # products reduce modulo m whether or not it is irreducible
        z = self.gen()
        frob, x = [], z
        for _ in range(d):
            x = x ** p
            frob.append(list((x - z).nums))
        if any(frob[-1]):
            raise ReducibleMinpoly(
                f"minpoly factors mod {p} (it does not divide z^(p^{d}) - z)"
            )
        for q in _factorize(d):
            g = _poly_gcd(m, _poly_rem(frob[d // q - 1], m, p), p)
            if len(g) > 1:
                raise ReducibleMinpoly(
                    f"minpoly factors mod {p} (it shares a factor of degree "
                    f"{len(g) - 1} with z^(p^{d // q}) - z)"
                )

    def _detect_conductor(self):
        ints = all(c.denominator == 1 for c in self.minpoly)
        if not ints:
            return
        mp = tuple(int(c) for c in self.minpoly)
        for n in range(1, 2 * self.degree**2 + 3):
            if euler_phi(n) == self.degree and cyclotomic_polynomial(n) == mp:
                self.conductor = n
                return

    def _check_irreducible_char0(self):
        if self.degree >= 4:
            # cyclotomic polynomials are irreducible over Q: nothing to search
            if self.conductor is None:
                raise UnsupportedField(
                    "degree >= 4 extensions of the rationals must be cyclotomic"
                )
            return
        # degree 2 or 3: reducible exactly when there is a rational root;
        # clear denominators first (the minpoly is monic)
        lcm_den = math.lcm(*(c.denominator for c in self.minpoly))
        ints = [int(c * lcm_den) for c in self.minpoly]
        a0, lead = ints[0], ints[-1]
        if a0 == 0:
            raise ReducibleMinpoly("z divides the minimal polynomial")
        if self.degree == 2:
            disc = ints[1] * ints[1] - 4 * a0 * lead
            root = math.isqrt(disc) if disc >= 0 else None
            if root is not None and root * root == disc:
                r = Fraction(root - ints[1], 2 * lead)
                raise ReducibleMinpoly(f"rational root {r} found")
            return
        if abs(a0) >= _FACTOR_CAP or abs(lead) >= _FACTOR_CAP:
            raise UnsupportedField(
                "cubic minimal polynomial too large for the rational-root test"
            )
        for num in _divisors(abs(a0)):
            for den in _divisors(abs(lead)):
                if math.gcd(num, den) != 1:
                    continue
                for sign in (1, -1):
                    r = Fraction(sign * num, den)
                    if sum(c * r**i for i, c in enumerate(self.minpoly)) == 0:
                        raise ReducibleMinpoly(f"rational root {r} found")

    def _build_reduction_rows(self):
        """Rows expressing z^(degree+t) in the power basis, as ints over one den.

        Row 0 is z^d = -(m_0 + ... + m_{d-1} z^(d-1)); each next row is the
        last one times z, its z^d term folded back through row 0.
        """
        d = self.degree
        p = self.characteristic
        top = [-c for c in (self._mod_minpoly if p else self.minpoly)[:d]]
        rows = [top]
        for _ in range(d - 2):
            last = rows[-1]
            rows.append([s + last[-1] * t for s, t in zip([0] + last[:-1], top)])
        den = math.lcm(*(c.denominator for row in rows for c in row))
        self._red_rows = tuple(
            tuple(int(c * den) % p if p else int(c * den) for c in row)
            for row in rows
        )
        self._red_den = den

    def _tabulate(self):
        """Bind table kernels for _mul, _dot and _inv to this F_q.

        exp lists the powers g^k of a primitive element g: the first z + c
        (c = 0, 1, ...) whose norm generates F_p* and whose powers reach all
        n = q - 1 units, each power a shift of the last and d products in
        F_p, else the first element in order whose powers do, each power a
        polynomial product.  log inverts exp, and zech[k] is the log of
        1 + g^k (Zech's logarithm: g^a + g^b = g^(a + zech[b - a])).  The
        zero element has log 3n, so a product with a zero factor has a log
        of at least 3n, where exp holds zero; below 3n it cycles through the
        powers, and zech repeats twice, so that no log sum or difference a
        kernel forms is reduced mod n.  Every kernel returns exp's
        canonical tuples, as the polynomial kernels do.
        """
        p, d, n = self.characteristic, self.degree, self.size - 1
        one, low = (1,) + (0,) * (d - 1), self._mod_minpoly[:d]
        cofactors = [(p - 1) // r for r in _factorize(p - 1)]

        def norm_generates(c: int) -> bool:
            # g primitive makes its norm g^(n/(p-1)) generate F_p*; the norm
            # of z + c is (-1)^d m(-c), m the minimal polynomial of z
            norm = 0
            for a in reversed(self._mod_minpoly):
                norm = (norm * -c + a) % p
            return all(pow(norm * (-1) ** d, e, p) != 1 for e in cofactors)

        def by_shift(c: int):
            # x (z + c) = x z + c x, where x z shifts the coefficients up
            # and z^d = -(m(z) - z^d)
            def step(x):
                t = x[-1]
                return tuple([(a + c * b - t * m) % p
                              for a, b, m in zip((0,) + x, x, low)])
            return step

        def by_product(g: tuple):
            return lambda x: Field._mul(self, x, 1, g, 1)[0]

        steps = itertools.chain(
            (by_shift(c) for c in range(p) if norm_generates(c)),
            (by_product(x.nums) for x in self.elements() if not x.is_zero()))
        # a primitive g has no power in F_p* below g^(n / (p - 1)), so a
        # walk that meets F_p* sooner is left there
        span = n // (p - 1)
        for step in steps:
            exp, x = [one], step(one)
            while x != one:
                if len(exp) < span and not any(x[1:]):
                    break
                exp.append(x)
                x = step(x)
            if len(exp) == n:
                break
        zero, zlog = (0,) * d, 3 * n
        log = dict(zip(exp, range(n)))
        log[zero] = zlog
        zech = [log[((x[0] + 1) % p,) + x[1:]] for x in exp] * 2
        exp = exp * 3 + [zero] * (3 * n + 1)

        def mul(n1, d1, n2, d2):
            return exp[log[n1] + log[n2]], 1

        def dot(n1, d1, n2, d2, n3, d3, n4, d4, *more):
            a, b = log[n1] + log[n2], log[n3] + log[n4]
            if more:
                # term by term, the running log kept below n
                terms = itertools.chain((a, b), map(
                    operator.add, map(log.__getitem__, more[::4]),
                    map(log.__getitem__, more[2::4])))
                s = zlog
                for t in terms:
                    if t >= zlog:
                        continue
                    if s == zlog:
                        s = t % n
                    else:
                        k = zech[t - s]
                        s = zlog if k == zlog else (s + k) % n
                return exp[s], 1
            if a >= zlog:
                return exp[b], 1
            if b >= zlog:
                return exp[a], 1
            return exp[a + zech[b - a]], 1

        def inv(nums, den):
            k = log[nums]
            if k == zlog:
                raise DivisionByZero("cannot invert zero")
            return exp[n - k], 1

        self._mul, self._dot, self._inv = mul, dot, inv

    def reduction(self) -> Optional[Reduction]:
        """The reduction of Q (n = 1) or Q(zeta_n) at the least prime
        p > 2^31 with p = 1 (mod n), built on first use and kept; None for
        every field with no conductor (F_q, and every other number field:
        one whose minimal polynomial is not monic in Z[z] included)."""
        n = self.conductor
        if n is None:
            return None
        if self._reduction is None:
            p = 2**31 // n * n + 1
            while p <= 2**31 or not _is_prime(p):
                p += n
            self._reduction = reduction_at(self, p)
        return self._reduction

    # -- canonical representation -------------------------------------------

    def _make(self, nums, den: int = 1) -> FieldElement:
        return FieldElement(self, tuple(nums), den)

    def _normalize(self, nums: list[int], den: int) -> tuple[tuple[int, ...], int]:
        """Characteristic 0 only: positive den, coprime to the content of nums."""
        if den < 0:
            den = -den
            nums = [-n for n in nums]
        g = den
        for n in nums:
            if n:
                g = math.gcd(g, n)
            if g == 1:
                break
        if g > 1:
            den //= g
            nums = [n // g for n in nums]
        return tuple(nums), den

    # -- arithmetic kernels ---------------------------------------------------

    def _neg_nums(self, nums):
        if self.characteristic:
            p = self.characteristic
            return tuple((-n) % p for n in nums)
        return tuple(-n for n in nums)

    def _add(self, n1, d1, n2, d2):
        if self.characteristic:
            p = self.characteristic
            return tuple((a + b) % p for a, b in zip(n1, n2)), 1
        if d1 == d2:
            return self._normalize([a + b for a, b in zip(n1, n2)], d1)
        return self._normalize([a * d2 + b * d1 for a, b in zip(n1, n2)], d1 * d2)

    @staticmethod
    def _conv(n1, n2, conv):
        """Add the polynomial product of n1 and n2 into conv, unreduced."""
        for i, a in enumerate(n1):
            if a:
                for j, b in enumerate(n2):
                    if b:
                        conv[i + j] += a * b

    def _fold(self, conv, den):
        """Canonical (nums, den) of conv/den in an extension, conv an
        unreduced product of 2d - 1 coefficients: one reduction modulo the
        minimal polynomial, then one normalization."""
        d = self.degree
        low = conv[:d]
        R = self._red_den
        if R != 1:
            low = [c * R for c in low]
            den *= R
        for t in range(d - 1):
            c = conv[d + t]
            if c:
                row = self._red_rows[t]
                for i in range(d):
                    if row[i]:
                        low[i] += c * row[i]
        if self.characteristic:
            p = self.characteristic
            return tuple(c % p for c in low), 1
        return self._normalize(low, den)

    def _mul(self, n1, d1, n2, d2):
        if self.degree == 1:
            if self.characteristic:
                return (n1[0] * n2[0] % self.characteristic,), 1
            return self._normalize([n1[0] * n2[0]], d1 * d2)
        conv = [0] * (2 * self.degree - 1)
        self._conv(n1, n2, conv)
        return self._fold(conv, d1 * d2)

    def _dot(self, n1, d1, n2, d2, n3, d3, n4, d4, *more):
        """x1*x2 + x3*x4 on raw (nums, den) pairs, plus one more product for
        each further four operands in more, with one reduction and one
        normalization for the sum instead of one per product and add."""
        p = self.characteristic
        den = 1
        if not p:
            # over a common denominator: scale one factor of each product
            den, e34 = d1 * d2, d3 * d4
            if den != e34:
                n1 = [a * e34 for a in n1]
                n3 = [a * den for a in n3]
                den *= e34
        if self.degree == 1 and not more:
            s = n1[0] * n2[0] + n3[0] * n4[0]
            return ((s % p,), 1) if p else self._normalize([s], den)
        conv = [0] * (2 * self.degree - 1)
        self._conv(n1, n2, conv)
        self._conv(n3, n4, conv)
        if more:
            for i in range(0, len(more), 4):
                n5, d5, n6, d6 = more[i:i + 4]
                e = d5 * d6
                if not p and e != den:
                    # the sum so far and this product onto a common denominator
                    conv = [c * e for c in conv]
                    n5 = [a * den for a in n5]
                    den *= e
                self._conv(n5, n6, conv)
        return self._fold(conv, den)

    def _inv(self, nums, den):
        if not any(nums):
            raise DivisionByZero("cannot invert zero")
        p = self.characteristic
        if not any(nums[1:]):
            # a constant (every element of Q and F_p itself): invert it directly
            if p:
                return (pow(nums[0], p - 2, p),) + (0,) * (self.degree - 1), 1
            return self._normalize([den] + [0] * (self.degree - 1), nums[0])
        return self._inv_bareiss(nums, den)

    def _inv_bareiss(self, nums, den):
        """Inverse by a fraction-free solve of A(z) * x(z) = 1 over the integers.

        A(z) is the integer numerator of the element.  Column j of its
        multiplication matrix is z^j A(z) on the power basis; each column is
        the last one shifted up a degree, with z^d folded back through
        z^d = row_0 / R (R = _red_den), so scaling column j by R^j keeps every
        entry an integer.  Bareiss elimination with exact-division back
        substitution then gives the last pivot P and integers y with
        x_j = R^j y_j / P (Cohen, GTM 138, sections 2.2 and 4.2-4.3), and the
        inverse of A/den is den * x.  Over F_p (R = den = 1) the integer solve
        is read modulo p: P = +-det of the multiplication matrix = +-Norm(A)
        mod p, nonzero for A != 0, so x = y * P^-1 mod p.
        """
        d = self.degree
        R = self._red_den
        top = self._red_rows[0]
        col = list(nums)
        cols = [col]
        for _ in range(d - 1):
            carry = col[-1]
            col = [0] + col[:-1] if R == 1 else [0] + [c * R for c in col[:-1]]
            if carry:
                col = [c + carry * t for c, t in zip(col, top)]
            cols.append(col)
        rows = [list(r) + [0] for r in zip(*cols)]
        rows[0][d] = 1
        prev = 1
        for k in range(d):
            if not rows[k][k]:
                for i in range(k + 1, d):
                    if rows[i][k]:
                        rows[k], rows[i] = rows[i], rows[k]
                        break
                else:
                    raise DivisionByZero("element not invertible (reducible modulus?)")
            pivot_row = rows[k]
            pk = pivot_row[k]
            tail = pivot_row[k + 1:]
            for i in range(k + 1, d):
                row = rows[i]
                f = row[k]
                row[k + 1:] = [(pk * a - f * b) // prev
                               for a, b in zip(row[k + 1:], tail)]
            prev = pk
        y = [0] * d
        for i in range(d - 1, -1, -1):
            row = rows[i]
            s = prev * row[d]
            for j in range(i + 1, d):
                s -= row[j] * y[j]
            y[i] = s // row[i]
        if self.characteristic:
            p = self.characteristic
            scale = pow(prev % p, p - 2, p)
            return tuple(yj * scale % p for yj in y), 1
        if R != 1:
            y = [yj * R**j for j, yj in enumerate(y)]
        return self._normalize([den * yj for yj in y], prev)

    # -- element constructors -------------------------------------------------

    def zero(self) -> FieldElement:
        return self._make((0,) * self.degree, 1)

    def one(self) -> FieldElement:
        return self._make((1,) + (0,) * (self.degree - 1), 1)

    def from_int(self, k: int) -> FieldElement:
        if self.characteristic:
            k %= self.characteristic
        return self._make((k,) + (0,) * (self.degree - 1), 1)

    def from_fraction(self, fr: Fraction) -> FieldElement:
        if self.characteristic:
            return self.from_int(_mod_p(fr, self.characteristic))
        return self._make(
            (fr.numerator,) + (0,) * (self.degree - 1), fr.denominator
        )

    def gen(self) -> FieldElement:
        """The adjoined root z (errors on degree-1 fields)."""
        if self.degree == 1:
            raise UnsupportedField("base fields have no adjoined generator")
        nums = [0] * self.degree
        nums[1] = 1
        return self._make(nums, 1)

    def from_coeffs(self, coeffs: Sequence[CoeffLike]) -> FieldElement:
        if len(coeffs) > self.degree:
            raise UnsupportedField(
                f"coefficient vector longer than degree {self.degree}"
            )
        fracs = [_fraction(str(c)) if not isinstance(c, Fraction) else c for c in coeffs]
        fracs += [Fraction(0)] * (self.degree - len(fracs))
        if self.characteristic:
            return self._make([_mod_p(fr, self.characteristic) for fr in fracs], 1)
        den = 1
        for fr in fracs:
            den = den * fr.denominator // math.gcd(den, fr.denominator)
        return self._make(*self._normalize([int(fr * den) for fr in fracs], den))

    def element_from_json(self, obj) -> FieldElement:
        """Accept a scalar string/int (constant) or a coefficient-vector list."""
        if isinstance(obj, (str, int)):
            return self.from_fraction(_fraction(str(obj)))
        if isinstance(obj, list):
            return self.from_coeffs(obj)
        raise UnsupportedField(f"cannot read element from {obj!r}")

    # -- deterministic enumeration ---------------------------------------------

    def elements(self) -> Iterator[FieldElement]:
        """Every element of a finite field, in lexicographic coefficient order."""
        if not self.is_finite:
            raise UnsupportedField("cannot enumerate an infinite field")
        # lazily, as the base-p digits of k with the first coefficient leading
        p, d = self.characteristic, self.degree
        for k in range(p ** d):
            nums, rest = [0] * d, k
            for i in reversed(range(d)):
                rest, nums[i] = divmod(rest, p)
            yield self._make(nums, 1)

    # -- roots and orders -------------------------------------------------------

    def root_of_unity_bound(self) -> int:
        """Provable cap on orders of roots of unity in any quadratic
        extension of this field, which bounds eigenvalue-ratio orders of 2x2
        matrices over it."""
        if self.is_finite:
            return self.size ** 2 - 1
        return _max_order_with_phi_le(2 * self.degree)

    def sqrt(self, a: FieldElement) -> Optional[FieldElement]:
        """A canonical square root of a in this field, or None if none exists.

        Decided over every finite field, over Q and its degree-2 extensions,
        and for rational a in any field.  Raises UnsupportedField for the
        rest: non-rational elements of cubic extensions and of cyclotomic
        fields of degree >= 4, and rationals in the latter too large to
        factor.  The root is canonical: the smaller coefficient vector of the
        two over finite fields, first nonzero coefficient positive in
        characteristic 0.
        """
        if a.is_zero():
            return self.zero()
        if self.is_finite:
            return self._sqrt_finite(a)
        if a.is_rational():
            fr = Fraction(a.nums[0], a.den)
            direct = self._rational_sqrt(fr)
            if direct is not None:
                return self.from_fraction(direct)
            if self.degree % 2:
                # odd-degree extensions contain no new square roots of rationals
                return None
        if self.degree == 2:
            return self._sqrt_quadratic_general(a)
        if not a.is_rational():
            raise UnsupportedField(
                "square-root existence undecidable for this element"
            )
        # degree >= 4 extensions of Q are cyclotomic: split fr = s * t^2 with
        # s a squarefree integer and build sqrt(s) from Gauss sums (complete:
        # sqrt(s) lies in Q(zeta_n) exactly when that construction succeeds)
        s, t = _squarefree_decompose(fr)
        if s is None:
            raise UnsupportedField(f"{fr} is too large to factor")
        root_s = self._cyclotomic_sqrt_squarefree(s)
        if root_s is None:
            return None
        out = self.from_fraction(t) * root_s
        assert out * out == a
        return self._canonical_sign(out)

    def _sqrt_finite(self, a: FieldElement) -> Optional[FieldElement]:
        """Square root of a nonzero a over F_q (Cohen, GTM 138, Alg. 1.5.1).

        In characteristic 2 squaring is a bijection and a^(q/2) is the one
        root.  Otherwise write q - 1 = 2^e t with t odd; x = a^((t+1)/2)
        has x^2 = a b with b = a^t in the 2-Sylow subgroup, and each round
        multiplies x by a 2-power root of unity that lowers the order of b
        until b = 1.  A b of the full order 2^e means a is not a square.
        """
        q = self.size
        if self.characteristic == 2:
            return a ** (q // 2)
        e, t = 0, q - 1
        while t % 2 == 0:
            e, t = e + 1, t // 2
        one = self.one()
        x = a ** ((t - 1) // 2)
        b = a * x * x
        x = a * x
        y = None  # generator of the 2-Sylow subgroup, found on first need
        r = e
        while b != one:
            m, b2 = 1, b * b
            while b2 != one:
                m, b2 = m + 1, b2 * b2
            if m == r:
                return None
            if y is None:
                y = self._non_square() ** t
            s = y ** (1 << (r - m - 1))
            y, r = s * s, m
            x, b = x * s, b * y
        return min(x, -x, key=FieldElement.sort_key)

    def _non_square(self) -> FieldElement:
        """A non-square of F_q, q odd: the first among z + k (k = 0, 1, ...),
        then among all elements."""
        minus_one = -self.one()
        half = (self.size - 1) // 2
        shifts = ()
        if self.degree > 1:
            shifts = (self.gen() + k for k in range(self.characteristic))
        return next(x for x in itertools.chain(shifts, self.elements())
                    if x ** half == minus_one)

    @staticmethod
    def _rational_sqrt(fr: Fraction) -> Optional[Fraction]:
        if fr < 0:
            return None
        rn = math.isqrt(fr.numerator)
        rd = math.isqrt(fr.denominator)
        if rn * rn == fr.numerator and rd * rd == fr.denominator:
            return Fraction(rn, rd)
        return None

    def _canonical_sign(self, x: FieldElement) -> FieldElement:
        for n in x.nums:
            if n > 0:
                return x
            if n < 0:
                return -x
        return x

    def _zeta_power(self, k: int) -> FieldElement:
        k %= self.conductor
        return self.gen() ** k if k else self.one()

    def _gauss_sum(self, p: int) -> Optional[FieldElement]:
        """Quadratic Gauss sum for an odd prime p dividing the conductor.

        Squares to (-1)^((p-1)/2) * p, giving an explicit square root of
        +-p inside the cyclotomic field.
        """
        n = self.conductor
        if n % p != 0:
            return None
        zp = self._zeta_power(n // p)
        acc = self.zero()
        power = self.one()
        for a in range(1, p):
            power = power * zp
            if pow(a, (p - 1) // 2, p) == 1:
                acc = acc + power
            else:
                acc = acc - power
        return acc

    def _cyclotomic_sqrt_squarefree(self, s: int) -> Optional[FieldElement]:
        n = self.conductor
        x = self.one()
        m = abs(s)
        if m % 2 == 0:
            if n % 8 != 0:
                return None
            zeta8 = self._zeta_power(n // 8)
            x = x * (zeta8 + zeta8.inv())
            m //= 2
        for f in _factorize(m):  # odd primes, each once: s is squarefree
            g = self._gauss_sum(f)
            if g is None:
                return None
            x = x * g
        target = self.from_int(s)
        if x * x == target:
            return x
        # off by a factor of -1: fix with a fourth root of unity if present
        if n % 4 == 0:
            x = x * self._zeta_power(n // 4)
            if x * x == target:
                return x
        return None

    def _sqrt_quadratic_general(self, u: FieldElement) -> Optional[FieldElement]:
        """Complete sqrt in a quadratic extension of Q via a rational quadratic."""
        b, c = self.minpoly[1], self.minpoly[0]
        u0, u1 = Fraction(u.nums[0], u.den), Fraction(u.nums[1], u.den)
        # x = alpha + beta z, x^2 = (alpha^2 - c beta^2) + beta(2 alpha - b beta) z.
        # A root with beta = 0 is rational, and sqrt tries those first; so
        # beta != 0 and alpha = (u1 + b beta^2) / (2 beta); substituting gives
        # a quadratic in Y = beta^2:  (b^2-4c) Y^2 + (2 b u1 - 4 u0) Y + u1^2 = 0.
        A = b * b - 4 * c
        B = 2 * b * u1 - 4 * u0
        C = u1 * u1
        disc = B * B - 4 * A * C
        rd = self._rational_sqrt(disc)
        if rd is None:
            return None
        for sign in (1, -1):
            Y = (-B + sign * rd) / (2 * A)
            beta = self._rational_sqrt(Y)
            if beta is None or beta == 0:
                continue
            for bsign in (1, -1):
                bb = bsign * beta
                alpha = (u1 + b * bb * bb) / (2 * bb)
                cand = self.from_coeffs([alpha, bb])
                if cand * cand == u:
                    return self._canonical_sign(cand)
        return None

    # -- parsing ------------------------------------------------------------------

    def parse(self, text: str) -> FieldElement:
        """Parse a small exact expression: rationals, z, ^, *, +, -, parentheses."""
        tokens = _tokenize(text)
        pos = 0

        def peek():
            return tokens[pos] if pos < len(tokens) else None

        def take():
            nonlocal pos
            if pos >= len(tokens):
                raise ValueError(f"unexpected end of input in {text!r}")
            tok = tokens[pos]
            pos += 1
            return tok

        def parse_expr():
            node = parse_term()
            while peek() in ("+", "-"):
                op = take()
                rhs = parse_term()
                node = node + rhs if op == "+" else node - rhs
            return node

        def parse_term():
            node = parse_unary()
            while peek() == "*":
                take()
                node = node * parse_unary()
            return node

        def parse_unary():
            if peek() == "-":
                take()
                return -parse_unary()
            if peek() == "+":
                take()
                return parse_unary()
            return parse_atom()

        def parse_atom():
            tok = take()
            if tok == "(":
                node = parse_expr()
                if take() != ")":
                    raise ValueError(f"unbalanced parentheses in {text!r}")
            elif tok == "z":
                node = self.gen()
            elif isinstance(tok, Fraction):
                node = self.from_fraction(tok)
            else:
                raise ValueError(f"unexpected token {tok!r} in {text!r}")
            if peek() == "^":
                take()
                exp = take()
                if not isinstance(exp, Fraction) or exp.denominator != 1:
                    raise ValueError(f"exponent must be an integer in {text!r}")
                if not self.characteristic and exp > _EXPONENT_CAP:
                    raise ValueError(
                        f"exponent {exp} exceeds {_EXPONENT_CAP} in {text!r}")
                node = node ** int(exp)
            return node

        out = parse_expr()
        if pos != len(tokens):
            raise ValueError(f"trailing input in {text!r}")
        return out

    def __eq__(self, other):
        return isinstance(other, Field) and self.spec == other.spec

    def __hash__(self):
        return hash(self.spec)

    def __repr__(self):
        if self.spec.kind == "rational":
            return "Q"
        if self.spec.kind == "prime":
            return f"F_{self.characteristic}"
        base = "Q" if self.characteristic == 0 else f"F_{self.characteristic}"
        if self.conductor:
            return f"Q(zeta_{self.conductor})"
        return f"{base}[z]/(deg {self.degree})"


def reduction_at(field: Field, p: int) -> Reduction:
    """The reduction of Q or Q(zeta_n) at a prime p = 1 (mod n).  It sends
    zeta to the first a^((p-1)/n), a = 2, 3, ..., that is a root r of the
    minimal polynomial mod p; one exists, as F_p* is cyclic of order
    divisible by n, and r is then a primitive n-th root of unity."""
    n = field.conductor
    if n is None or (p - 1) % n or not _is_prime(p):
        raise UnsupportedField(f"{field} has no reduction at {p}")
    r = 1
    if field.degree > 1:
        m = [int(c) % p for c in field.minpoly]
        for a in itertools.count(2):
            r = pow(a, (p - 1) // n, p)
            value = 0
            for c in reversed(m):
                value = (value * r + c) % p
            if not value:
                break
    return Reduction(p, tuple(pow(r, i, p) for i in range(field.degree)))


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*^()":
            tokens.append(ch)
            i += 1
        elif ch == "z":
            tokens.append("z")
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            if j < len(text) and text[j] == "/":
                k = j + 1
                while k < len(text) and text[k].isdigit():
                    k += 1
                if k == j + 1:
                    raise ValueError(f"bad fraction in {text!r}")
                tokens.append(_fraction(text[i:k]))
                i = k
            else:
                tokens.append(Fraction(int(text[i:j])))
                i = j
        else:
            raise ValueError(f"unexpected character {ch!r} in {text!r}")
    return tokens


def _squarefree_decompose(fr: Fraction) -> tuple[Optional[int], Optional[Fraction]]:
    """fr = s * t^2 with s squarefree (sign carried by s); None if too big to factor."""
    n = abs(fr.numerator) * fr.denominator
    if n >= _FACTOR_CAP:
        return None, None
    s, sq = 1, 1
    for f, e in _factorize(n).items():
        s *= f ** (e % 2)
        sq *= f ** (e // 2)
    if fr < 0:
        s = -s
    t = Fraction(sq, fr.denominator)
    # fr = s * t^2 requires t^2 = fr/s; verify
    assert s * t * t == fr
    return s, t


def rational_field() -> Field:
    return Field(RATIONAL_SPEC)


def prime_field(p: int) -> Field:
    return Field(FieldSpec("prime", p=p))


def extension_field(base: Field | FieldSpec, coeffs: Sequence[CoeffLike]) -> Field:
    base_spec = base.spec if isinstance(base, Field) else base
    return Field(extension_spec(base_spec, coeffs))


def cyclotomic_field(n: int) -> Field:
    """Q adjoined a primitive n-th root of unity (plain Q for n <= 2)."""
    if n < 1:
        raise UnsupportedField("n must be positive")
    if euler_phi(n) == 1:
        return rational_field()
    f = Field(extension_spec(RATIONAL_SPEC, cyclotomic_polynomial(n)))
    return f
