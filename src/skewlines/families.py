"""Ready-made skew-line configurations with known closure groups.

Each builder returns a :class:`BuiltFamily`: the validated configuration
together with the group order and classification label the construction is
designed to produce.  The golden test suite checks every family against its
own metadata, so the expectations recorded here are the honestly computed
ones, not wishful values.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Optional, Sequence

from .configs import InvalidConfiguration, LineConfig
from .fields import (
    Field,
    FieldElement,
    NonPrimeModulus,
    _FACTOR_CAP,
    _factorize,
    cyclotomic_field,
    extension_field,
    prime_field,
    rational_field,
)
from .matrices import Mat2


class InvalidParameters(ValueError):
    """A family builder was handed parameters outside its domain."""


def _cyclo(n: int) -> Field:
    """The smallest cyclotomic field containing a primitive n-th root."""
    if n % 4 == 2:
        n //= 2
    if n <= 1:
        return rational_field()
    return cyclotomic_field(n)


def root_of_unity(f: Field, m: int) -> FieldElement:
    """An element of exact multiplicative order ``m`` in the cyclotomic field ``f``.

    Works whenever the field actually contains one: ``m`` divides the
    conductor, or ``m = 2m'`` with ``m'`` odd dividing an odd conductor
    (then ``-zeta^(c/m')`` does the job).
    """
    if m < 1:
        raise InvalidParameters("order must be positive")
    if m == 1:
        return f.one()
    if m == 2:
        return -f.one()
    c = f.conductor
    if c is None:
        raise InvalidParameters("field is not cyclotomic")
    if c % m == 0:
        return f.gen() ** (c // m)
    if m % 2 == 0 and c % 2 == 1 and c % (m // 2) == 0:
        return -(f.gen() ** (c // (m // 2)))
    raise InvalidParameters(f"no element of order {m} in this field")


@dataclass(frozen=True)
class BuiltFamily:
    """A configuration plus the group data its construction guarantees."""

    name: str
    params: dict
    config: LineConfig
    expected_order: Optional[int]
    expected_label: Optional[str]
    notes: str = ""

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "expected_order": self.expected_order,
            "expected_label": self.expected_label,
            "notes": self.notes,
            "config": self.config.to_json(),
        }


def _validated(field: Field, matrices: Sequence[Mat2]) -> LineConfig:
    try:
        cfg = LineConfig(field, list(matrices))
        cfg.require_valid()
    except InvalidConfiguration as exc:
        raise InvalidParameters(f"parameters break skewness: {exc}") from exc
    return cfg


# ---------------------------------------------------------------------------
# rotation blocks


def standard_construction(n: int) -> BuiltFamily:
    """Lines 0, inf and the n diagonal rotations diag(e^j, e^-j), e = zeta_n.

    For n >= 3 the closure is cyclic of order lcm(2, n): ratios of the
    rotations supply the n-part, and differences of distinct non-identity
    rotations contribute -1.  For n = 2 every generator is scalar, so the
    group collapses to the trivial one.
    """
    if n < 2:
        raise InvalidParameters("need at least two rotations")
    f = _cyclo(n)
    eps = root_of_unity(f, n)
    inv = eps.inv()
    mats = [Mat2.diag(eps**j, inv**j) for j in range(n)]
    cfg = _validated(f, mats)
    if n == 2:
        expected, label = 1, "trivial"
        notes = "both rotations are scalar classes, so the closure is trivial"
    else:
        expected, label = lcm(2, n), f"cyclic({lcm(2, n)})"
        notes = ""
    return BuiltFamily("standard", {"n": n}, cfg, expected, label, notes)


def c3_scaled(s_order: int) -> BuiltFamily:
    """Two 3-rotation blocks, the second scaled by t = (e(1+s)+s)/(1-s).

    ``s`` is taken to be a primitive root of unity of order ``s_order``.
    The closure is generated by -e (from within-block ratios) and s (from
    cross-block ones), so its order is lcm(6, s_order).
    """
    if s_order < 2:
        raise InvalidParameters("s = 1 makes the scale factor undefined")
    f = _cyclo(lcm(3, s_order))
    eps = root_of_unity(f, 3)
    one = f.one()
    inv = eps.inv()
    base = root_of_unity(f, s_order)
    block = [Mat2.diag(eps**j, inv**j) for j in range(3)]
    last: Optional[InvalidParameters] = None
    # a few primitive roots of the same order make the scale factor collide
    # with the first block (t = 1 for s = -eps, say); any other choice of
    # primitive root generates the same group, so scan for a working one
    for k in range(1, s_order):
        if gcd(k, s_order) != 1:
            continue
        s = base**k
        t = (eps * (one + s) + s) / (one - s)
        scaled = [Mat2.diag(t * eps**j, t * inv**j) for j in range(3)]
        try:
            cfg = _validated(f, block + scaled)
        except InvalidParameters as exc:
            last = exc
            continue
        order = lcm(6, s_order)
        return BuiltFamily(
            "c3_scaled", {"s_order": s_order}, cfg, order, f"cyclic({order})"
        )
    raise InvalidParameters(
        f"every primitive root of order {s_order} degenerates the scale"
    ) from last


def cyclic_4line(u1_order: int, u2_order: int) -> BuiltFamily:
    """Four lines 0, inf, identity, diag(a, d) with prescribed eigenratios.

    The diagonal entries are chosen so that [M] has eigenratio u1 and
    [M - identity] has eigenratio u2, where u_i is a primitive root of
    unity of the given order.  The closure is cyclic of order
    lcm(u1_order, u2_order).
    """
    m, n = u1_order, u2_order
    if m < 2 or n < 2:
        raise InvalidParameters("eigenratios equal to 1 give scalar generators")
    if m == 2 and n == 2:
        raise InvalidParameters("u1 = u2 = -1 collapses the construction")
    f = _cyclo(lcm(m, n))
    u1 = root_of_unity(f, m)
    u2 = root_of_unity(f, n)
    if m == n:
        # pick a different primitive root for the second ratio
        shift = next(s for s in range(2, n) if gcd(s, n) == 1)
        u2 = u2**shift
    one = f.one()
    a = u1 * (one - u2) / (u1 - u2)
    d = (one - u2) / (u1 - u2)
    cfg = _validated(f, [Mat2.identity(f), Mat2.diag(a, d)])
    order = lcm(m, n)
    return BuiltFamily(
        "cyclic_4line",
        {"u1_order": m, "u2_order": n},
        cfg,
        order,
        f"cyclic({order})",
    )


# ---------------------------------------------------------------------------
# characteristic-p families


def _prime_field(p: int) -> Field:
    """F_p, a composite p reported as InvalidParameters."""
    try:
        return prime_field(p)
    except NonPrimeModulus as exc:
        raise InvalidParameters(str(exc)) from exc


def _quadratic_extension(p: int, c: Optional[int] = None) -> Field:
    """F_{p^2} presented as F_p[z]/(z^2 - c) for a non-square c, by default
    the least one; F_4 is F_2[z]/(z^2 + z + 1)."""
    base = _prime_field(p)
    if p == 2:
        return extension_field(base, [1, 1, 1])
    if c is None:
        c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
    return extension_field(base, [-c % p, 0, 1])


def _span_rank(vals: Sequence[FieldElement], p: int) -> int:
    vecs = [v.nums for v in vals]
    vecs = [v for v in vecs if any(c % p for c in v)]
    if not vecs:
        return 0
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            (a, b), (c, d) = vecs[i], vecs[j]
            if (a * d - b * c) % p:
                return 2
    return 1


def elementary_abelian(
    p: int,
    a_values: Optional[Sequence[str]] = None,
    b: str = "1",
) -> BuiltFamily:
    """Lines 0, inf, identity and unipotent-shaped [[a, b], [0, a]] blocks.

    Every class the configuration produces is the translation
    t -> t + b/a or t -> t + b/(a-1), so the closure is the additive span
    of those steps inside F_{p^2}: elementary abelian of rank 1 or 2.
    The default single value a = z (a generator of the quadratic extension)
    gives the full rank-2 group of order p^2.
    """
    f = _quadratic_extension(p)
    if a_values is None:
        a_values = ["z"]
    if not a_values:
        raise InvalidParameters("need at least one diagonal value")
    avs = [f.parse(str(a)) for a in a_values]
    bv = f.parse(str(b))
    if bv.is_zero():
        raise InvalidParameters("b = 0 gives scalar matrices")
    one = f.one()
    mats = [Mat2.identity(f)]
    mats += [Mat2.from_rows(f, [[a, bv], [f.zero(), a]]) for a in avs]
    cfg = _validated(f, mats)
    steps = [bv / a for a in avs] + [bv / (a - one) for a in avs]
    rank = _span_rank(steps, p)
    order = p**rank
    label = f"elementary_abelian({p},{rank})" if rank == 2 else f"cyclic({p})"
    return BuiltFamily(
        "elementary_abelian",
        {"p": p, "a_values": list(map(str, a_values)), "b": str(b)},
        cfg,
        order,
        label,
    )


def affine(p: int, dilation_square: Optional[int] = None) -> BuiltFamily:
    """Translation plus dilation lines over F_p[z]/(z^2 - c).

    The construction asks for a with a^2 = c of multiplicative order p - 1.
    Such a c is a primitive root mod p, hence a non-square, so a itself
    lives in the quadratic extension and contributes new translation
    directions: conjugating t -> t - 1 by the dilation classes spreads the
    translations over all of F_{p^2}, and the difference classes have
    eigenratio -a of order 2(p-1).  The closure is therefore the affine
    group of F_{p^2} with dilation part of order 2(p-1):

        order = 2 * p^2 * (p - 1),  label affine(p^2, 2(p-1)).
    """
    if p <= 2:
        raise InvalidParameters("odd characteristic required")
    _prime_field(p)
    if p - 1 >= _FACTOR_CAP:
        raise InvalidParameters(
            f"p - 1 must be below {_FACTOR_CAP} to test for a primitive root"
        )
    # c has order p - 1 exactly when no c^((p-1)/q) is 1, q a prime factor of p - 1
    cofactors = [(p - 1) // q for q in _factorize(p - 1)]

    def primitive(c: int) -> bool:
        return all(pow(c, e, p) != 1 for e in cofactors)

    if dilation_square is None:
        dilation_square = next(c for c in range(2, p) if primitive(c))
    c = dilation_square % p
    if c == 0:
        raise InvalidParameters("dilation square must be a unit")
    if not primitive(c):
        raise InvalidParameters(
            f"{dilation_square} does not have order {p - 1} mod {p}"
        )
    # c has order p - 1, so it is a non-square
    f = _quadratic_extension(p, c)
    a = f.gen()
    m2 = Mat2.from_rows(f, [[-f.one(), f.one()], [f.zero(), -f.one()]])
    m3 = Mat2.diag(a, a.inv())
    cfg = _validated(f, [Mat2.identity(f), m2, m3])
    order = 2 * p * p * (p - 1)
    return BuiltFamily(
        "affine",
        {"p": p, "dilation_square": c},
        cfg,
        order,
        f"affine({p * p},{2 * (p - 1)})",
        notes=(
            "the square root of the dilation square is irrational over F_p, "
            "so the translation lattice grows to the full quadratic extension"
        ),
    )


# ---------------------------------------------------------------------------
# polyhedral examples


def a5_example() -> BuiltFamily:
    """Five lines whose closure is the icosahedral group of order 60.

    Needs both i and the golden ratio, so the base field is the 20th
    cyclotomic one.
    """
    f = cyclotomic_field(20)
    i = root_of_unity(f, 4)
    zeta5 = root_of_unity(f, 5)
    phi = f.one() + zeta5 + zeta5**4
    phinv = phi - f.one()
    h = f.from_fraction(Fraction(1, 2))
    one = f.one()
    m2 = Mat2.from_rows(
        f, [[(one + i) * h, (one + i) * h], [(-one + i) * h, (one - i) * h]]
    )
    m3 = Mat2.from_rows(
        f, [[(phi + phinv * i) * h, h], [-h, (phi - phinv * i) * h]]
    )
    cfg = _validated(f, [Mat2.identity(f), m2, m3])
    return BuiltFamily("a5", {}, cfg, 60, "A5")


def s4_example(field: Optional[Field] = None) -> BuiltFamily:
    """Five lines whose closure is the octahedral group of order 24.

    Defaults to Q(i); pass any cyclotomic field of conductor divisible
    by 4 to embed the same configuration in a larger field.
    """
    f = field if field is not None else cyclotomic_field(4)
    i = root_of_unity(f, 4)
    h = f.from_fraction(Fraction(1, 2))
    one = f.one()
    m2 = Mat2.from_rows(
        f, [[(one + i) * h, (one + i) * h], [(-one + i) * h, (one - i) * h]]
    )
    m3 = Mat2.from_rows(f, [[f.zero(), one], [-one, f.zero()]])
    cfg = _validated(f, [Mat2.identity(f), m2, m3])
    return BuiltFamily("s4", {}, cfg, 24, "S4")


def a4_example(a: str = "1", field: Optional[Field] = None) -> BuiltFamily:
    """Five lines whose closure is the tetrahedral group of order 12.

    The configuration itself only needs a sixth root of unity and the free
    parameter a, but the distinguished orbit computations also use i, so
    the default field is the 12th cyclotomic one.
    """
    f = field if field is not None else cyclotomic_field(12)
    eps = root_of_unity(f, 6)
    av = f.parse(str(a))
    if av.is_zero():
        raise InvalidParameters("a must be invertible")
    m2 = Mat2.from_rows(f, [[eps, av], [f.zero(), eps.inv()]])
    m3 = Mat2.from_rows(f, [[eps, f.zero()], [av.inv(), eps.inv()]])
    cfg = _validated(f, [Mat2.identity(f), m2, m3])
    return BuiltFamily("a4", {"a": a}, cfg, 12, "A4")


# ---------------------------------------------------------------------------
# registry for the command line


FAMILY_BUILDERS: dict[str, Callable[..., BuiltFamily]] = {
    "standard": standard_construction,
    "c3_scaled": c3_scaled,
    "cyclic_4line": cyclic_4line,
    "elementary_abelian": elementary_abelian,
    "affine": affine,
    "a5": a5_example,
    "s4": s4_example,
    "a4": a4_example,
}


def build_family(name: str, **params) -> BuiltFamily:
    """Look up a family by name and build it with the given parameters."""
    try:
        builder = FAMILY_BUILDERS[name]
    except KeyError:
        known = ", ".join(sorted(FAMILY_BUILDERS))
        raise InvalidParameters(f"unknown family {name!r} (known: {known})")
    try:
        return builder(**params)
    except TypeError as exc:
        raise InvalidParameters(str(exc)) from exc
