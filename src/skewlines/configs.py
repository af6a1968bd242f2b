"""Line configurations encoded as matrix lists, skewness validation,
transversal search, and the pairwise commutation forecast.

A configuration holds the two special lines as flags plus matrices M_1..M_r.
Everything here is report-style: validation and analysis return data, never
raise on mathematical outcomes (only on malformed input or use of an invalid
configuration where a valid one is required).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

from .fields import Field, FieldSpec
from .matrices import (
    Mat2,
    ProjPoint,
    _commutation,
    _kernel_line,
    commutator,
    eigenvectors,
)

ZERO_LABEL = "0"
INF_LABEL = "inf"


class InvalidConfiguration(Exception):
    """Analysis was requested on a configuration that fails validation."""


class InvalidIndex(Exception):
    """A line label that does not name a line of this configuration."""


@dataclass
class ValidationReport:
    """Which skewness conditions fail, by line label."""

    pair_violations: list[tuple[str, str]] = dc_field(default_factory=list)
    meets_zero: list[str] = dc_field(default_factory=list)
    meets_identity: list[str] = dc_field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not (self.pair_violations or self.meets_zero)

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "pair_violations": [list(p) for p in self.pair_violations],
            "meets_zero": list(self.meets_zero),
            "meets_identity": list(self.meets_identity),
        }


@dataclass
class TransversalReport:
    """Common-eigenvector search outcome.

    witnesses are the directions v with M_i v proportional to v for every
    matrix line; the transversal through them is span{(v,0),(0,v)}.
    all_directions marks the degenerate all-scalar case where every v works.
    """

    exists: bool
    witnesses: list[ProjPoint] = dc_field(default_factory=list)
    method: str = "simultaneous-eigen"
    all_directions: bool = False

    def to_json(self) -> dict:
        return {
            "exists": self.exists,
            "witnesses": [w.to_json() for w in self.witnesses],
            "method": self.method,
            "all_directions": self.all_directions,
        }


@dataclass
class AbelianReport:
    """Pairwise commutation of the projective classes [M_i]."""

    abelian: bool
    cases: list[tuple[str, str, str]] = dc_field(default_factory=list)
    anti_commuting_warning: bool = False

    def to_json(self) -> dict:
        return {
            "abelian": self.abelian,
            "cases": [list(c) for c in self.cases],
            "anti_commuting_warning": self.anti_commuting_warning,
        }


class LineConfig:
    """An ordered configuration {L_0, L_inf, M_1, ..., M_r}.

    Matrix lines are labeled "1".."r" in input order; the special lines are
    labeled "0" and "inf".  Validation runs eagerly at construction and is
    kept on .validation; analysis entry points demand .validation.valid.
    """

    def __init__(self, field: Field, matrices: list[Mat2],
                 include_zero: bool = True, include_infinity: bool = True):
        for m in matrices:
            if m.field.spec != field.spec:
                raise InvalidConfiguration("matrix over a different field")
        self.field = field
        self.matrices = list(matrices)
        self.include_zero = include_zero
        self.include_infinity = include_infinity
        self.validation = self._validate()

    # -- labels

    def matrix_labels(self) -> list[str]:
        return [str(i + 1) for i in range(len(self.matrices))]

    def labels(self) -> list[str]:
        out = []
        if self.include_zero:
            out.append(ZERO_LABEL)
        if self.include_infinity:
            out.append(INF_LABEL)
        out.extend(self.matrix_labels())
        return out

    def matrix(self, label: str) -> Mat2:
        """The matrix of a finite line; label "0" yields the zero matrix."""
        if label == ZERO_LABEL:
            if not self.include_zero:
                raise InvalidIndex("line 0 is not part of this configuration")
            return Mat2.zero(self.field)
        if label == INF_LABEL:
            raise InvalidIndex("the infinity line has no matrix")
        try:
            idx = int(label) - 1
        except ValueError:
            raise InvalidIndex(f"unknown line label {label!r}") from None
        if not 0 <= idx < len(self.matrices):
            raise InvalidIndex(f"no line labeled {label!r}")
        return self.matrices[idx]

    def has_label(self, label: str) -> bool:
        return label in self.labels()

    @property
    def identity_label(self) -> Optional[str]:
        for i, m in enumerate(self.matrices):
            if m.is_identity():
                return str(i + 1)
        return None

    # -- validation

    def difference(self, a: str, b: str) -> Mat2:
        """D_ab = M_a - M_b for two distinct finite lines, with M_0 = 0: the
        matrices the skewness test formed, kept in both orders."""
        if (a, b) not in self._differences:
            raise InvalidIndex(f"no difference of finite lines {a!r} and {b!r}")
        return self._differences[a, b]

    def _validate(self) -> ValidationReport:
        report = ValidationReport()
        labels = self.matrix_labels()
        diffs: dict[tuple[str, str], Mat2] = {}
        if self.include_zero:
            for lab, m in zip(labels, self.matrices):
                diffs[lab, ZERO_LABEL], diffs[ZERO_LABEL, lab] = m, -m
                if not m.det():
                    report.meets_zero.append(lab)
        for i in range(len(self.matrices)):
            for j in range(i + 1, len(self.matrices)):
                d = self.matrices[i] - self.matrices[j]
                diffs[labels[i], labels[j]], diffs[labels[j], labels[i]] = d, -d
                if not d.det():
                    report.pair_violations.append((labels[i], labels[j]))
        self._differences = diffs
        # the identity line is a matrix line: meeting it is a pair violation
        id_label = self.identity_label
        report.meets_identity = [a if b == id_label else b
                                 for a, b in report.pair_violations
                                 if id_label in (a, b)]
        return report

    def require_valid(self):
        if not self.validation.valid:
            raise InvalidConfiguration(
                f"configuration fails skewness: {self.validation.to_json()}"
            )

    # -- serialization

    def to_json(self) -> dict:
        lines: list = []
        if self.include_zero:
            lines.append("zero")
        if self.include_infinity:
            lines.append("infinity")
        for m in self.matrices:
            lines.append("identity" if m.is_identity() else m.to_json())
        return {"field": self.field.spec.to_json(), "lines": lines}

    @staticmethod
    def from_json(obj: dict) -> "LineConfig":
        if not isinstance(obj, dict) or "field" not in obj or "lines" not in obj:
            raise InvalidConfiguration(
                'config JSON needs "field" and "lines" entries'
            )
        field = Field(FieldSpec.from_json(obj["field"]))
        include_zero = False
        include_infinity = False
        matrices: list[Mat2] = []
        for entry in obj["lines"]:
            if entry == "zero":
                if include_zero:
                    raise InvalidConfiguration("line 0 listed twice")
                include_zero = True
            elif entry == "infinity":
                if include_infinity:
                    raise InvalidConfiguration("line at infinity listed twice")
                include_infinity = True
            elif entry == "identity":
                matrices.append(Mat2.identity(field))
            else:
                matrices.append(Mat2.from_rows(field, entry))
        return LineConfig(field, matrices,
                          include_zero=include_zero,
                          include_infinity=include_infinity)

    def __eq__(self, other):
        if not isinstance(other, LineConfig):
            return NotImplemented
        return (
            self.field.spec == other.field.spec
            and self.include_zero == other.include_zero
            and self.include_infinity == other.include_infinity
            and self.matrices == other.matrices
        )

    def __repr__(self):
        return (f"LineConfig({self.field!r}, {len(self.matrices)} matrices, "
                f"zero={self.include_zero}, inf={self.include_infinity})")


def _nonscalar_matrices(cfg: LineConfig) -> list[tuple[str, Mat2]]:
    return [
        (lab, m)
        for lab, m in zip(cfg.matrix_labels(), cfg.matrices)
        if not m.is_scalar()
    ]


def transversal_compute(cfg: LineConfig) -> TransversalReport:
    """Find every direction v with M_i v proportional to v for all i.

    Decision path: a nonsingular commutator rules witnesses out; a nonzero
    singular commutator pins the only candidate down to its kernel; an
    all-commuting family shares the eigenlines of any one of its matrices.
    """
    cfg.require_valid()
    working = _nonscalar_matrices(cfg)
    f = cfg.field
    if not working:
        e1 = ProjPoint(f.one(), f.zero())
        e2 = ProjPoint(f.zero(), f.one())
        return TransversalReport(
            exists=True, witnesses=[e1, e2],
            method="simultaneous-eigen", all_directions=True,
        )

    def verify(v: ProjPoint) -> bool:
        vx, vy = v
        for _, m in working:
            x, y = m.apply((vx, vy))
            if x * vy != y * vx:  # image not proportional to v
                return False
        return True

    for i in range(len(working)):
        for j in range(i + 1, len(working)):
            c = commutator(working[i][1], working[j][1])
            if c.is_zero():
                continue
            if c.det():
                return TransversalReport(exists=False, method="commutator-kernel")
            # nonzero singular commutator: its kernel is the only candidate
            cand = _kernel_line(c)
            if verify(cand):
                return TransversalReport(
                    exists=True, witnesses=[cand], method="commutator-kernel"
                )
            return TransversalReport(exists=False, method="commutator-kernel")

    # all pairs commute exactly: a non-scalar N commuting with a non-scalar
    # M lies in K[M], so N = x + yM with y != 0 has M's eigenlines; the
    # first matrix whose eigenlines can be decided speaks for all of them
    pairs = next((r for r in map(eigenvectors, (m for _, m in working))
                  if r is not None), None)
    if not pairs:
        return TransversalReport(exists=False, method="extension-required")
    witnesses = [v for _, v in pairs if verify(v)]
    return TransversalReport(
        exists=bool(witnesses), witnesses=witnesses, method="simultaneous-eigen"
    )


def predict_abelian(cfg: LineConfig) -> AbelianReport:
    """Predict whether the closure group is abelian from pairwise commutation.

    The prediction is: abelian iff every pair of configuration matrices
    commutes *as matrices*.  Sufficiency holds for any label set (every
    generator is built from differences, adjugates and products of the M_i,
    all of which live in their common centralizer, and the centralizer of a
    non-scalar 2x2 matrix is the commutative algebra K[M]).  Necessity holds
    whenever lines 0 and infinity are present, which puts every class [M_i]
    and every difference class [M_i - M_j] inside the group.

    Each pair is also labeled: scalar / simultaneously_diagonalizable /
    shared_eigenspace (exact commutation cases), anti_commuting (AB = -BA),
    or non_commuting.  Anti-commuting pairs are the subtle case: [A] and [B]
    themselves commute projectively, yet the difference class [A - B] fails
    to commute with [A], so the group is still non-abelian; the warning flag
    records that the non-abelian verdict rests on that argument.
    """
    cfg.require_valid()
    labels = cfg.matrix_labels()
    mats = cfg.matrices
    for lab, m in zip(labels, mats):
        if not m.det():
            raise InvalidConfiguration(
                f"matrix {lab} is singular; its projective class is undefined "
                "(configurations without line 0 may contain such matrices)"
            )
    report = AbelianReport(abelian=True)
    # whether each matrix has a repeated eigenvalue, tested once
    repeated = [not m.discriminant() for m in mats]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            case = _commutation_case(mats[i], mats[j], repeated[i] and repeated[j])
            report.cases.append((labels[i], labels[j], case))
            if case == "non_commuting":
                report.abelian = False
            elif case == "anti_commuting":
                report.abelian = False
                report.anti_commuting_warning = True
    return report


def _commutation_case(a: Mat2, b: Mat2, both_repeated: bool) -> str:
    """The case of a pair, given whether both have a repeated eigenvalue."""
    if a.is_scalar() or b.is_scalar():
        return "scalar"
    sign = _commutation(a, b)
    if sign == 1:
        if both_repeated:
            return "shared_eigenspace"
        return "simultaneously_diagonalizable"
    if sign == -1:
        return "anti_commuting"
    return "non_commuting"
