"""One-pass analysis pipeline over a line configuration.

Runs validation, generator assembly, the eigenvalue-ratio finiteness
check, group closure, classification, and (on request) an orbit
enumeration, and folds the results into a single JSON-ready report.  A
ratio that is provably not a root of unity settles the group as infinite,
and the closure and orbit are then skipped.  Every stage is exact; reports
built from the same input are identical.

The pipeline runs at call time, so every refusal raises from analyze()
itself.  Five report sections are formed only when first read, and then
kept: the configuration and validation JSON, the transversal search, the
commutativity predictor, and the JSON of the ratio entries.  A command
that prints only the group, such as family or search, never forms them;
to_json() reads them all.
"""

from functools import cached_property
from typing import Callable, Optional

from .configs import (
    InvalidConfiguration,
    LineConfig,
    predict_abelian,
    transversal_compute,
)
from .groupoid import (
    DEFAULT_BUDGET,
    classify,
    eigratio_check,
    generator_set,
    group_closure,
)
from .matrices import ProjPoint
from .orbits import (OracleMismatch, SeedNotOnConfiguration, find_carrier,
                     orbit_full, orbit_geometric)

SCHEMA_VERSION = "1"


class AnalysisReport:
    """The sections of an analysis.  analyze() fills generators, group and
    orbit.  For config, validation, transversal, abelian_prediction and
    eigenvalue_ratios it files a function under the section's name in
    _pending, which the first read calls and whose value is kept; a value
    given to the constructor or assigned to one of them is kept as it is.
    A section the pipeline did not reach reads None."""

    def __init__(self, **sections: dict):
        self.generators = self.group = self.orbit = None
        self._pending: dict[str, Callable[[], dict]] = {}
        self.__dict__.update(sections)  # kept as a first read would keep them

    def _form(self, name: str) -> Optional[dict]:
        form = self._pending.get(name)
        return None if form is None else form()

    @cached_property
    def config(self) -> Optional[dict]:
        return self._form("config")

    @cached_property
    def validation(self) -> Optional[dict]:
        return self._form("validation")

    @cached_property
    def transversal(self) -> Optional[dict]:
        return self._form("transversal")

    @cached_property
    def abelian_prediction(self) -> Optional[dict]:
        return self._form("abelian_prediction")

    @cached_property
    def eigenvalue_ratios(self) -> Optional[dict]:
        return self._form("eigenvalue_ratios")

    @property
    def valid(self) -> bool:
        return bool(self.validation["valid"])

    @property
    def budget_hit(self) -> bool:
        return bool(self.group and self.group["budget_hit"])

    @property
    def theorem_violation(self) -> bool:
        return bool(self.group and self.group.get("theorem_violation"))

    def exit_code(self) -> int:
        if not self.valid:
            return 1
        if self.theorem_violation:
            return 3
        if self.budget_hit:
            return 2
        return 0

    def to_json(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "config": self.config,
            "validation": self.validation,
        }
        for key in ("transversal", "abelian_prediction", "generators",
                    "group", "eigenvalue_ratios", "orbit"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


def _group_section(order: int, budget_hit: bool, classification=None) -> dict:
    out = {
        "order": order,
        "budget_hit": budget_hit,
        "label": None,
        "order_census": None,
        "abelian": None,
        "witnesses": {},
        "theorem_violation": False,
    }
    if classification is not None:
        out.update(classification.to_json())
    return out


def _abelian_section(cfg) -> dict:
    try:
        return predict_abelian(cfg).to_json()
    except InvalidConfiguration as exc:
        # a singular M_i (allowed without line 0) has no class [M_i] to compare
        return {"available": False, "reason": str(exc)}


def _orbit_section(cfg, seed, carrier, closure, triples, oracle: bool) -> dict:
    report = orbit_full(cfg, seed, closure=closure, gens=triples, carrier=carrier)
    out = report.to_json()
    out["group_order"] = closure.order
    if oracle:
        # the plane oracle certifies the walk's lists as the seed's orbit in
        # walk order, or raises OracleMismatch
        orbit_geometric(cfg, report)
        out["oracle_agrees"] = True
    return out


def analyze(
    cfg: LineConfig,
    *,
    budget: int = DEFAULT_BUDGET,
    mode: str = "all_triples",
    seed: Optional[ProjPoint] = None,
    oracle: bool = False,
) -> AnalysisReport:
    """Run the full pipeline; later stages are skipped if validation fails."""
    validation = cfg.validation
    report = AnalysisReport()
    report._pending.update(config=cfg.to_json, validation=validation.to_json)
    if not validation.valid:
        return report
    # a seed on no line is an input error, refused before any closure work;
    # both orbit walks start from this one carrier
    carrier = None if seed is None else find_carrier(cfg, seed)
    if seed is not None and carrier is None:
        raise SeedNotOnConfiguration(f"{seed!r} is on no line of the configuration")

    report._pending.update(transversal=lambda: transversal_compute(cfg).to_json(),
                           abelian_prediction=lambda: _abelian_section(cfg))

    # the ratio test and the orbit walk read the all_triples set; build it once
    triples = generator_set(cfg)
    gens = triples if mode == "all_triples" else generator_set(cfg, mode=mode)
    report.generators = {"mode": mode, "count": len(gens.elements)}

    # checked here, since a witness below skips the closure that checks it
    if budget < 1:
        raise ValueError("budget must be at least 1")
    # a ratio order is the order of an element of G, at most |G|, so over F_q
    # a scan to the budget misses none when the closure completes; over Q the
    # field's small cap is what certifies an infinite group, so it is kept
    bound = budget if cfg.field.is_finite else None
    ratios = eigratio_check(triples, bound=bound)
    report._pending["eigenvalue_ratios"] = ratios.to_json
    if ratios.infinite_witness:
        # G is infinite, so its closure would stop at exactly budget elements
        report.group = _group_section(budget, True)
        return report

    # fewer than three lines give no triple F_ijk: the empty set closes to 1
    closure = group_closure(gens, budget=budget)
    classification = None if closure.budget_hit else classify(closure)
    report.group = _group_section(closure.order, closure.budget_hit, classification)
    if seed is not None and not closure.budget_hit:
        report.orbit = _orbit_section(cfg, seed, carrier, closure, triples, oracle)
    return report
