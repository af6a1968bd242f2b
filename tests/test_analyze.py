"""analyze(): the ratio test settles an infinite group before any closure."""

import importlib

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skewlines.analyze import AnalysisReport, _group_section, analyze
from skewlines.configs import (
    InvalidConfiguration,
    LineConfig,
    predict_abelian,
    transversal_compute,
)
from skewlines.fields import rational_field
from skewlines.groupoid import classify, eigratio_check, generator_set, group_closure
from skewlines.matrices import Mat2

Q = rational_field()
MODES = ("all_triples", "differences")
analyze_mod = importlib.import_module("skewlines.analyze")


def _closing_analyze(cfg, budget, mode="all_triples") -> AnalysisReport:
    """The report of a pipeline that always closes, then runs the ratio test."""
    validation = cfg.validation
    report = AnalysisReport(config=cfg.to_json(), validation=validation.to_json())
    report.transversal = transversal_compute(cfg).to_json()
    try:
        report.abelian_prediction = predict_abelian(cfg).to_json()
    except InvalidConfiguration as exc:
        report.abelian_prediction = {"available": False, "reason": str(exc)}
    triples = generator_set(cfg)
    gens = triples if mode == "all_triples" else generator_set(cfg, mode=mode)
    report.generators = {"mode": mode, "count": len(gens.elements)}
    closure = group_closure(gens, budget=budget)
    classification = None if closure.budget_hit else classify(closure)
    report.group = _group_section(closure.order, closure.budget_hit, classification)
    bound = budget if cfg.field.is_finite else None
    report.eigenvalue_ratios = eigratio_check(triples, bound=bound).to_json()
    return report


def _rational_config(*rows):
    """Lines 0, inf and the given 2x2 matrices over Q."""
    return LineConfig(Q, [Mat2.from_rows(Q, r) for r in rows])


def _infinite_config():
    # lines 0, inf, I, diag(4, 2): the class diag(4, 2) has ratio 2
    return _rational_config([["1", "0"], ["0", "1"]], [["4", "0"], ["0", "2"]])


def _refuse(*args, **kwargs):
    raise AssertionError("group_closure ran after an infinite witness")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("budget", [1, 7, 100, 5000])
def test_infinite_witness_gives_the_budget_hit_report_without_a_closure(
        monkeypatch, budget, mode):
    cfg = _infinite_config()
    want = _closing_analyze(cfg, budget, mode)
    assert want.group["order"] == budget and want.budget_hit
    monkeypatch.setattr(analyze_mod, "group_closure", _refuse)
    report = analyze(cfg, budget=budget, mode=mode)
    assert report.eigenvalue_ratios["infinite_witness"]
    assert report.to_json() == want.to_json()
    assert report.exit_code() == 2


_ENTRY = st.integers(-3, 3)


@st.composite
def _triangular_configs(draw):
    """Lines 0, inf, I and one or two upper triangular rational matrices,
    diagonal ones among them."""
    mats = []
    for _ in range(draw(st.integers(1, 2))):
        a, d = draw(_ENTRY), draw(_ENTRY)
        b = draw(st.sampled_from([0, 0, *range(-2, 3)]))
        mats.append([[str(a), str(b)], ["0", str(d)]])
    cfg = _rational_config([["1", "0"], ["0", "1"]], *mats)
    assume(cfg.validation.valid)
    return cfg


@settings(max_examples=40, deadline=None)
@given(_triangular_configs(), st.sampled_from(MODES), st.sampled_from([1, 9, 40]))
def test_hypothesis_triangular_configs_match_the_closing_pipeline(cfg, mode, budget):
    assert analyze(cfg, budget=budget, mode=mode).to_json() == \
        _closing_analyze(cfg, budget, mode).to_json()


@pytest.mark.parametrize("oracle", [False, True])
def test_seeded_analyze_finds_the_carrier_once(monkeypatch, oracle):
    from skewlines.families import a4_example, elementary_abelian
    from skewlines.orbits import p3_from_string

    orbits_mod = importlib.import_module("skewlines.orbits")
    plain = orbits_mod.find_carrier
    calls = []

    def counted(cfg, p):
        calls.append(p)
        return plain(cfg, p)

    monkeypatch.setattr(orbits_mod, "find_carrier", counted)
    monkeypatch.setattr(analyze_mod, "find_carrier", counted)
    for fam in (a4_example(), elementary_abelian(5)):
        cfg = fam.config
        seed = p3_from_string(cfg.field, "[0:0:0:1]")
        calls.clear()
        report = analyze(cfg, seed=seed, oracle=oracle)
        assert report.orbit["carrier"] == plain(cfg, seed)
        assert report.orbit.get("oracle_agrees", False) is oracle
        assert len(calls) == 1


def test_oracle_points_out_of_order_are_a_mismatch(monkeypatch):
    # the oracle is handed the orbit's points with one line in reverse order
    from skewlines.analyze import OracleMismatch
    from skewlines.families import a4_example
    from skewlines.orbits import orbit_geometric, p3_from_string

    def reversed_line(cfg, report):
        lab = next(lab for lab, pts in report.points.items() if len(pts) > 1)
        report.points[lab] = report.points[lab][::-1]
        return orbit_geometric(cfg, report)

    monkeypatch.setattr(analyze_mod, "orbit_geometric", reversed_line)
    cfg = a4_example().config
    with pytest.raises(OracleMismatch):
        analyze(cfg, seed=p3_from_string(cfg.field, "[0:0:0:1]"), oracle=True)
