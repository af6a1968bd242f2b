"""End-to-end checks of the command-line interface and its exit codes."""

import contextlib
import io
import itertools
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlines.analyze import SCHEMA_VERSION
from skewlines.cli import main
from skewlines.configs import LineConfig
from skewlines.families import FAMILY_BUILDERS, a4_example, build_family
from skewlines.fields import rational_field
from skewlines.groupoid import group_closure
from skewlines.matrices import Mat2

Q = rational_field()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg.to_json()))
    return str(path)


@pytest.fixture
def a4_path(tmp_path):
    return write_config(tmp_path, "a4.json", a4_example().config)


@pytest.fixture
def infinite_path(tmp_path):
    cfg = LineConfig(Q, [Mat2.identity(Q),
                         Mat2.diag(Q.from_int(4), Q.from_int(2))])
    return write_config(tmp_path, "unbounded.json", cfg)


@pytest.fixture
def broken_path(tmp_path):
    cfg = LineConfig(Q, [Mat2.identity(Q), Mat2.identity(Q)])
    return write_config(tmp_path, "broken.json", cfg)


# ---------------------------------------------------------------------------
# validate / transversals


def test_validate_accepts_good_config(a4_path, capsys):
    code, out, _ = run(capsys, "validate", a4_path)
    assert code == 0
    assert "valid: yes" in out


def test_validate_rejects_duplicate_line(broken_path, capsys):
    code, out, _ = run(capsys, "validate", broken_path, "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["pair_violations"]


def test_validate_garbage_path(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/cfg.json")
    assert code == 1
    assert "error:" in err


def test_transversals_diagonal_config(tmp_path, capsys):
    cfg = LineConfig(Q, [Mat2.identity(Q),
                         Mat2.diag(Q.from_int(2), Q.from_int(7))])
    path = write_config(tmp_path, "diag.json", cfg)
    code, out, _ = run(capsys, "transversals", path, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["exists"] is True
    assert payload["witnesses"]


def test_transversals_absent(a4_path, capsys):
    code, out, _ = run(capsys, "transversals", a4_path, "--json")
    assert code == 0
    assert json.loads(out)["exists"] is False


# ---------------------------------------------------------------------------
# group


def test_group_json_payload(a4_path, capsys):
    code, out, _ = run(capsys, "group", a4_path, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == "1"
    assert payload["order"] == 12
    assert payload["label"] == "A4"
    assert payload["order_census"] == {"1": 1, "2": 3, "3": 8}
    assert payload["budget_hit"] is False
    assert set(payload["witnesses"]) == {"r", "s", "orders"}
    assert payload["theorem_violation"] is False


def test_group_output_is_deterministic(a4_path, capsys):
    first = run(capsys, "group", a4_path, "--json")
    second = run(capsys, "group", a4_path, "--json")
    assert first == second


def test_group_generator_modes_agree(a4_path, capsys):
    _, full, _ = run(capsys, "group", a4_path, "--json")
    _, diffs, _ = run(capsys, "group", a4_path, "--json", "--mode", "differences")
    a, b = json.loads(full), json.loads(diffs)
    assert (a["order"], a["label"]) == (b["order"], b["label"])


def test_group_differences_mode_needs_infinity_line(tmp_path, capsys):
    # Without the infinity line the classes [M_a - M_b] need not lie in G:
    # here G is cyclic(6) while the differences close to all of PGL2(F_5).
    path = tmp_path / "no_inf.json"
    path.write_text(json.dumps({
        "field": {"kind": "prime", "p": 5},
        "lines": ["zero", [["3", "2"], ["0", "3"]], [["4", "0"], ["1", "2"]]],
    }))
    code, out, _ = run(capsys, "group", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["order"], payload["label"]) == (6, "cyclic(6)")
    code, out, err = run(capsys, "group", str(path), "--mode", "differences")
    assert code == 1
    assert err.startswith("error:") and "infinity line" in err
    assert out == ""


def test_group_budget_exhaustion(infinite_path, capsys):
    code, out, _ = run(capsys, "group", infinite_path, "--json", "--budget", "100")
    assert code == 2
    payload = json.loads(out)
    assert payload["budget_hit"] is True
    assert payload["order"] == 100
    assert payload["label"] is None
    assert payload["eigenvalue_ratios"]["infinite_witness"] is True


def test_group_translation_without_a_witness_stops_at_the_budget(tmp_path, capsys,
                                                                 monkeypatch):
    # t -> t + 1 generates an infinite group whose ratio is 1: nothing proves
    # it infinite before the closure, which runs to the budget
    import importlib

    analyze_mod = importlib.import_module("skewlines.analyze")
    closed = []

    def counted(gens, budget):
        closed.append(budget)
        return group_closure(gens, budget=budget)

    monkeypatch.setattr(analyze_mod, "group_closure", counted)
    path = tmp_path / "translation.json"
    path.write_text(json.dumps({"field": {"kind": "rational"},
                                "lines": ["zero", "infinity", [["1", "1"], ["0", "1"]]]}))
    code, out, _ = run(capsys, "group", str(path), "--json", "--budget", "50")
    assert code == 2
    assert closed == [50]
    payload = json.loads(out)
    assert (payload["order"], payload["budget_hit"]) == (50, True)
    assert payload["eigenvalue_ratios"]["infinite_witness"] is False


def test_group_invalid_config(broken_path, capsys):
    code, _, _ = run(capsys, "group", broken_path)
    assert code == 1


@pytest.mark.parametrize("argv", [
    ("transversals",), ("group",), ("orbit", "--seed-point", "[1:0:1:0]"),
])
def test_invalid_config_is_refused_alike_by_every_analysis_command(
        broken_path, capsys, argv):
    cmd, *rest = argv
    code, out, _ = run(capsys, cmd, broken_path, *rest)
    assert (code, out) == (1, "configuration is not pairwise skew; fix it first\n")
    code, out, _ = run(capsys, cmd, broken_path, *rest, "--json")
    validation = LineConfig(Q, [Mat2.identity(Q), Mat2.identity(Q)]).validation
    assert code == 1
    assert json.loads(out) == {"schema_version": SCHEMA_VERSION,
                               "validation": validation.to_json()}


def test_group_two_lines_is_trivial(tmp_path, infinite_path, capsys):
    # two lines admit no triple (i, j, k) of distinct lines, so there is no
    # transport map F_ijk and G_L is the trivial group
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"field": {"kind": "rational"},
                                "lines": ["zero", "infinity"]}))
    code, out, _ = run(capsys, "group", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 1
    assert payload["label"] == "trivial"
    assert payload["order_census"] == {"1": 1}
    # no closure runs, but a budget below 1 is still an input error; so too
    # where the ratio test alone proves the group infinite
    for config in (str(path), infinite_path):
        code, _, err = run(capsys, "group", config, "--budget", "0")
        assert code == 1
        assert err.startswith("error:")


def test_group_with_singular_matrix_line(tmp_path, capsys):
    # lines inf, I and D = diag(2, 0); without line 0 a singular D is allowed,
    # and I - D = diag(-1, 1) is nonsingular, so the lines are skew.  Every
    # triple holds inf: F_{i,j,inf} is the identity, F_{1,inf,2} = [I - D] =
    # [diag(-1, 1)], F_{2,inf,1} = [D - I] = [diag(1, -1)], and
    # F_{inf,j,k} = [adj(M_j - M_k)] = [diag(1, -1)] or [diag(-1, 1)].  These
    # are one class of order 2, so G_L is cyclic(2).  [D] itself has no class,
    # so the abelian prediction is reported as unavailable.
    path = tmp_path / "singular.json"
    path.write_text(json.dumps({
        "field": {"kind": "rational"},
        "lines": ["infinity", "identity", [["2", "0"], ["0", "0"]]],
    }))
    code, out, _ = run(capsys, "group", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 2
    assert payload["label"] == "cyclic(2)"
    prediction = payload["abelian_prediction"]
    assert prediction["available"] is False
    assert "singular" in prediction["reason"]


# ---------------------------------------------------------------------------
# orbit


def test_orbit_report(a4_path, capsys):
    code, out, _ = run(capsys, "orbit", a4_path,
                       "--seed-point", "[0:0:0:1]", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["total_size"] == 20
    assert payload["stabilizer_order"] == 3
    assert payload["carrier"] == "inf"
    assert payload["group_order"] == 12
    assert set(payload["per_line_sizes"].values()) == {4}


def test_orbit_oracle_crosscheck(a4_path, capsys):
    code, out, _ = run(capsys, "orbit", a4_path,
                       "--seed-point", "[0:0:0:1]", "--oracle", "--json")
    assert code == 0
    assert json.loads(out)["oracle_agrees"] is True


def test_orbit_seed_not_on_config(a4_path, capsys):
    code, _, err = run(capsys, "orbit", a4_path, "--seed-point", "[1:1:1:2]")
    assert code == 1
    assert "no line" in err


def test_orbit_seed_on_no_line_is_refused_before_the_closure(
        infinite_path, capsys, monkeypatch):
    # the group of lines 0, inf, I, diag(4, 2) over Q is infinite, so a
    # closure would run to its budget before the seed were looked at
    def refuse(*args, **kwargs):
        raise AssertionError("no closure for a seed on no line")

    monkeypatch.setattr(sys.modules["skewlines.analyze"], "group_closure", refuse)
    code, _, err = run(capsys, "orbit", infinite_path, "--seed-point", "[1:2:3:5]")
    assert code == 1
    assert err.startswith("error:")


def test_orbit_seed_on_singular_line(tmp_path, capsys):
    # Without line 0 a singular M is allowed: D = diag(2, 0) sends (0, 1) to
    # (0, 0), so [0:1:0:0] = (v, Dv) with v = [0:1] lies on line 2.  G is
    # {1, [diag(-1, 1)]} (test_group_with_singular_matrix_line), and both
    # elements fix [0:1], so the stabilizer is all of G and the orbit is one
    # point on each of the three lines.
    path = tmp_path / "singular.json"
    path.write_text(json.dumps({
        "field": {"kind": "rational"},
        "lines": ["infinity", "identity", [["2", "0"], ["0", "0"]]],
    }))
    code, out, _ = run(capsys, "orbit", str(path), "--seed-point", "[0:1:0:0]",
                       "--oracle", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["carrier"] == "2"
    assert payload["total_size"] == 3
    assert payload["stabilizer_order"] == 2
    assert payload["oracle_agrees"] is True


def test_orbit_malformed_seed(a4_path, capsys):
    code, _, _ = run(capsys, "orbit", a4_path, "--seed-point", "[1:2]")
    assert code == 1


def test_an_exponent_past_the_cap_is_refused_at_once(a4_path, capsys):
    # over Q(zeta_12) the coefficients of (1+z)^N grow with N: a parse of
    # N = 10^7 takes a minute, so the parser refuses N past its cap
    start = time.perf_counter()
    code, _, err = run(capsys, "orbit", a4_path,
                       "--seed-point", "[0:0:0:(1+z)^100000000]")
    assert code == 1 and err.startswith("error:") and "exceeds" in err
    assert time.perf_counter() - start < 5
    # an exponent under the cap still parses, here in a family parameter
    code, out, _ = run(capsys, "family", "a4", "a=z^3", "--json")
    assert code == 0 and json.loads(out)["matches_expected"] is True


def test_orbit_respects_group_budget(infinite_path, capsys):
    code, out, _ = run(capsys, "orbit", infinite_path,
                       "--seed-point", "[0:0:0:1]", "--budget", "60", "--json")
    assert code == 2
    assert json.loads(out)["budget_hit"] is True


def test_orbit_after_an_infinite_witness_runs_no_closure(infinite_path, capsys,
                                                        monkeypatch):
    import importlib

    analyze_mod = importlib.import_module("skewlines.analyze")

    def refuse(*args, **kwargs):
        raise AssertionError("closure or orbit work ran after an infinite witness")

    for name in ("group_closure", "orbit_full", "orbit_geometric"):
        monkeypatch.setattr(analyze_mod, name, refuse)
    code, out, _ = run(capsys, "orbit", infinite_path, "--seed-point", "[0:0:0:1]",
                       "--oracle", "--budget", "60", "--json")
    assert code == 2
    assert json.loads(out) == {"schema_version": "1", "budget_hit": True, "order": 60}


def test_oracle_mismatch_is_invariant_violation(a4_path, capsys, monkeypatch):
    # the oracle is handed a report that lists no line
    import importlib

    analyze_mod = importlib.import_module("skewlines.analyze")
    plain = analyze_mod.orbit_geometric

    class Bogus:
        points = {}
        total_size = 0

    monkeypatch.setattr(analyze_mod, "orbit_geometric",
                        lambda cfg, report: plain(cfg, Bogus()))
    code, _, err = run(capsys, "orbit", a4_path,
                       "--seed-point", "[0:0:0:1]", "--oracle")
    assert code == 3
    assert "invariant violation" in err


def test_oracle_points_out_of_order_exit_3(a4_path, capsys, monkeypatch):
    # the oracle is handed the orbit's points with one line in reverse order
    import importlib

    analyze_mod = importlib.import_module("skewlines.analyze")
    plain = analyze_mod.orbit_geometric

    def reversed_line(cfg, report):
        lab = next(lab for lab, pts in report.points.items() if len(pts) > 1)
        report.points[lab] = report.points[lab][::-1]
        return plain(cfg, report)

    monkeypatch.setattr(analyze_mod, "orbit_geometric", reversed_line)
    code, _, err = run(capsys, "orbit", a4_path,
                       "--seed-point", "[0:0:0:1]", "--oracle")
    assert code == 3
    assert "invariant violation" in err


def test_oracle_refuses_a_forged_point_with_exit_3(a4_path, capsys, monkeypatch):
    # the transport walk's report with one point of line 0 moved along the
    # line, off the orbit: the oracle meets no listed point there
    import importlib

    from skewlines.matrices import ProjPoint

    analyze_mod = importlib.import_module("skewlines.analyze")
    plain = analyze_mod.orbit_full

    def forged(cfg, *args, **kwargs):
        report = plain(cfg, *args, **kwargs)
        f = cfg.field
        x0, x1, x2, x3 = report.points["0"][1].coords
        report.points["0"][1] = ProjPoint(x0 + f.from_int(5), x1, x2, x3)
        return report

    monkeypatch.setattr(analyze_mod, "orbit_full", forged)
    code, out, err = run(capsys, "orbit", a4_path,
                         "--seed-point", "[0:0:0:1]", "--oracle")
    assert code == 3 and out == ""
    assert err.startswith("invariant violation:")


def test_orbit_walk_off_the_orbit_exits_3(a4_path, capsys, monkeypatch):
    # the closure never met [1 : 7], so the transport walk images its ids
    # afresh, and there every image is a new parameter [1 : n], never one
    # of G.v0; the closure's own images are left exact
    import importlib

    from skewlines.groupoid import _PointIds

    analyze_mod = importlib.import_module("skewlines.analyze")
    plain = analyze_mod.orbit_full
    counter = itertools.count(1)

    def fresh(self, m, i):
        one = self.field.one()
        n = self.field.from_int(next(counter))
        return self.intern((one.nums, one.den), (n.nums, n.den))

    def off_orbit(*args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(_PointIds, "image", fresh)
            return plain(*args, **kwargs)

    monkeypatch.setattr(analyze_mod, "orbit_full", off_orbit)
    code, _, err = run(capsys, "orbit", a4_path, "--seed-point", "[0:0:1:7]")
    assert code == 3
    assert "invariant violation" in err and "|G|/|Stab|" in err


# ---------------------------------------------------------------------------
# family


def test_family_reports_match(capsys):
    code, out, _ = run(capsys, "family", "standard", "n=4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["computed_order"] == 4
    assert payload["computed_label"] == "cyclic(4)"
    assert payload["matches_expected"] is True


def test_family_string_parameters(capsys):
    code, out, _ = run(capsys, "family", "elementary_abelian",
                       "p=3", "a_values=z,1+z", "b=1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["computed_label"] == "elementary_abelian(3,2)"


@pytest.mark.parametrize("argv, message", [
    (["family", "standard", "n=99999999999"], "degree above 64"),
    (["family", "c3_scaled", "s_order=100000"], "degree above 64"),
    (["family", "cyclic_4line", "u1_order=100000", "u2_order=3"], "degree above 64"),
    (["family", "standard", "n=abc"], "n must be an integer, not 'abc'"),
    (["family", "affine", "p=abc"], "p must be an integer, not 'abc'"),
    (["family", "affine", "p=5", "dilation_square=abc"],
     "dilation_square must be an integer, not 'abc'"),
], ids=["standard_huge_n", "c3_scaled_huge_order", "cyclic_4line_huge_order",
        "standard_text_n", "affine_text_p", "affine_text_dilation_square"])
def test_family_refuses_oversized_or_mistyped_parameters(capsys, argv, message):
    # a cyclotomic field of degree above families._PHI_CAP is refused before
    # it is built: these ran out of memory or for more than a minute
    started = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and message in err
    assert time.monotonic() - started < 5


def test_search_records_an_oversized_parameter_inline(capsys):
    # search reports a refused row inline, as it does every refusal
    code, out, err = run(capsys, "search", "standard",
                         "n=99999999999:99999999999", "--json")
    assert (code, err) == (0, "")
    [row] = json.loads(out)["rows"]
    assert row["params"] == {"n": 99999999999}
    assert "degree above 64" in row["error"]


def test_family_unknown_name(capsys):
    code, _, err = run(capsys, "family", "nonesuch")
    assert code == 1
    assert "error:" in err


def test_family_bad_parameters(capsys):
    code, _, _ = run(capsys, "family", "affine", "p=4")
    assert code == 1
    code, _, _ = run(capsys, "family", "standard", "frobs=2")
    assert code == 1
    code, _, _ = run(capsys, "family", "standard", "loose-token")
    assert code == 1


def test_every_family_config_roundtrips_exactly():
    built = [
        build_family("standard", n=3),
        build_family("standard", n=2),
        build_family("c3_scaled", s_order=2),
        build_family("cyclic_4line", u1_order=3, u2_order=3),
        build_family("elementary_abelian", p=3),
        build_family("affine", p=3),
        build_family("a4"),
        build_family("a5"),
        build_family("s4"),
    ]
    assert {f.name for f in built} == set(FAMILY_BUILDERS)
    for fam in built:
        blob = json.dumps(fam.config.to_json(), sort_keys=True)
        reloaded = LineConfig.from_json(json.loads(blob))
        assert json.dumps(reloaded.to_json(), sort_keys=True) == blob


# ---------------------------------------------------------------------------
# search


def test_search_standard_range(capsys):
    code, out, _ = run(capsys, "search", "standard", "n=2:5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert [row["params"]["n"] for row in payload["rows"]] == [2, 3, 4, 5]
    assert [row["order"] for row in payload["rows"]] == [1, 6, 4, 10]
    assert all(row["matches_expected"] for row in payload["rows"])


def test_search_records_rejections_inline(capsys):
    code, out, _ = run(capsys, "search", "cyclic_4line",
                       "u1_order=1:3", "u2_order=3", "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert "error" in rows[0]
    assert rows[1]["order"] == 6
    assert rows[2]["order"] == 3


def test_search_list_axis(capsys):
    code, out, _ = run(capsys, "search", "elementary_abelian", "p=2,3", "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["order"] for row in rows] == [4, 9]


def test_search_needs_axes(capsys):
    code, _, _ = run(capsys, "search", "standard")
    assert code == 1
    code, _, _ = run(capsys, "search", "nonesuch", "n=2:3")
    assert code == 1


def test_search_refuses_an_empty_axis(capsys):
    # n=5:3 is a range with no values: an input error, not an empty table
    code, out, err = run(capsys, "search", "standard", "n=5:3", "--json")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "n=5:3" in err
    code, _, _ = run(capsys, "search", "standard", "n=3:3", "--json")
    assert code == 0


# ---------------------------------------------------------------------------
# report sections formed on read, and one parser per process


def test_group_only_commands_never_form_the_transversal_or_the_prediction(
        tmp_path, capsys, monkeypatch):
    import importlib

    from skewlines.analyze import analyze
    from skewlines.configs import predict_abelian, transversal_compute
    from skewlines.families import elementary_abelian

    analyze_mod = importlib.import_module("skewlines.analyze")

    def refuse(*args, **kwargs):
        raise AssertionError("a section the command does not print was formed")

    f25 = write_config(tmp_path, "f25.json", elementary_abelian(5).config)
    commands = [
        ["family", "a4"],
        ["family", "elementary_abelian", "p=7"],
        ["search", "c3_scaled", "s_order=2:4"],
        ["search", "cyclic_4line", "u1_order=2:3", "u2_order=3"],
        ["orbit", f25, "--seed-point", "[0:0:0:1]", "--oracle"],
    ]
    with monkeypatch.context() as m:
        for name in ("transversal_compute", "predict_abelian"):
            m.setattr(analyze_mod, name, refuse)
        for argv in commands:
            code, out, err = run(capsys, *argv, "--json")
            assert (code, err) == (0, ""), argv
            assert json.loads(out)["schema_version"] == SCHEMA_VERSION

    # group and a full report read both, once each, and keep what they read
    calls = []

    def counted(fn):
        return lambda cfg: calls.append(fn.__name__) or fn(cfg)

    for name, fn in (("transversal_compute", transversal_compute),
                     ("predict_abelian", predict_abelian)):
        monkeypatch.setattr(analyze_mod, name, counted(fn))
    cfg = a4_example().config
    code, out, _ = run(capsys, "group", write_config(tmp_path, "a4.json", cfg), "--json")
    payload = json.loads(out)
    assert code == 0
    assert sorted(calls) == ["predict_abelian", "transversal_compute"]
    assert payload["transversal"] == transversal_compute(cfg).to_json()
    assert payload["abelian_prediction"] == predict_abelian(cfg).to_json()
    calls.clear()
    report = analyze(cfg)
    assert calls == []
    first = json.dumps(report.to_json(), sort_keys=True)
    assert sorted(calls) == ["predict_abelian", "transversal_compute"]
    assert json.dumps(report.to_json(), sort_keys=True) == first
    assert len(calls) == 2


def test_family_and_search_never_form_the_config_or_validation_sections(
        capsys, monkeypatch):
    from skewlines.analyze import analyze
    from skewlines.configs import LineConfig, ValidationReport

    calls = []
    for owner in (LineConfig, ValidationReport):
        plain = owner.to_json
        monkeypatch.setattr(owner, "to_json", lambda self, _fn=plain, _name=owner.__name__:
                            calls.append(_name) or _fn(self))
    # family prints the family's own config once, and no report section
    commands = [
        (["family", "a4"], ["LineConfig"]),
        (["search", "c3_scaled", "s_order=2:4"], []),
        (["search", "cyclic_4line", "u1_order=2:3", "u2_order=3"], []),
    ]
    for argv, formed in commands:
        calls.clear()
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (0, ""), argv
        assert json.loads(out)["schema_version"] == SCHEMA_VERSION
        assert calls == formed, argv

    # a full report forms each once, on its first read, and keeps it
    cfg = a4_example().config
    want = cfg.to_json(), cfg.validation.to_json()
    calls.clear()
    report = analyze(cfg)
    assert calls == []
    first = report.to_json()
    assert sorted(calls) == ["LineConfig", "ValidationReport"]
    assert (first["config"], first["validation"]) == want
    calls.clear()
    assert report.to_json() == first and report.valid
    assert calls == []


def test_the_reused_parser_leaks_no_state(tmp_path, capsys):
    # a5 closes to 60 elements: under --budget 50 the closure stops (exit
    # 2), and a budget left behind on the parser would stop the next call
    from skewlines import cli
    from skewlines.families import a5_example

    a5 = write_config(tmp_path, "a5.json", a5_example().config)
    calls = [["family", "a4", "--json"], ["family", "a4"],
             ["group", a5, "--budget", "50"], ["group", a5]]

    def fresh(argv):
        cli._parser.cache_clear()
        return run(capsys, *argv)

    want = [fresh(argv) for argv in calls]
    assert [code for code, _, _ in want] == [0, 0, 2, 0]
    assert want[0][1].startswith("{") and not want[1][1].startswith("{")
    cli._parser.cache_clear()
    assert [run(capsys, *argv) for argv in calls] == want
    assert cli._parser.cache_info().misses == 1


# ---------------------------------------------------------------------------
# process-level entry


def run_module(*argv):
    return subprocess.run([sys.executable, "-m", "skewlines.cli", *argv],
                          capture_output=True, text=True, check=False)


def test_module_entry_reads_stdin():
    cfg = a4_example().config
    proc = subprocess.run(
        [sys.executable, "-m", "skewlines.cli", "validate", "-", "--json"],
        input=json.dumps(cfg.to_json()),
        capture_output=True, text=True, check=False)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["valid"] is True


def test_zero_denominator_entry_is_an_input_error(tmp_path):
    path = tmp_path / "div0.json"
    path.write_text(json.dumps({
        "field": {"kind": "rational"},
        "lines": ["zero", "infinity", "identity", [["1/0", "0"], ["0", "2"]]],
    }))
    proc = run_module("validate", str(path))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_zero_denominator_seed_point_is_an_input_error(a4_path):
    proc = run_module("orbit", a4_path, "--seed-point", "[1/0:0:0:1]")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def _assert_input_error(proc):
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_zero_seed_point_is_an_input_error(a4_path):
    _assert_input_error(run_module("orbit", a4_path, "--seed-point", "[0:0:0:0]"))


# input nested past the interpreter's recursion limit (1000 frames by
# default) is malformed input, not an internal fault
_DEEP = 3000
_NESTED_ONE = "(" * _DEEP + "1" + ")" * _DEEP


def test_deeply_nested_seed_coordinate_is_an_input_error(infinite_path):
    _assert_input_error(run_module("orbit", infinite_path,
                                   "--seed-point", f"[{_NESTED_ONE}:0:0:1]"))


def test_deeply_nested_family_parameter_is_an_input_error():
    _assert_input_error(run_module("family", "a4", f"a={_NESTED_ONE}"))


def test_deeply_nested_field_is_an_input_error(tmp_path):
    # the field's base nests _DEEP extensions deep; json.load itself recurses
    field = ('{"kind": "extension", "base": ' * _DEEP + '{"kind": "rational"}'
             + ', "minpoly": ["1", "0", "1"]}' * _DEEP)
    path = tmp_path / "deep.json"
    path.write_text('{"field": ' + field + ', "lines": ["zero", "infinity", "identity"]}')
    _assert_input_error(run_module("validate", str(path)))


def test_group_on_a_huge_prime_field_stops_at_the_budget(tmp_path):
    # lines 0, inf, I, diag(2, 3) over F_p, p = 10^18 + 3: the ratio scan
    # would run to p^2 - 1, so it stops at the closure budget instead
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "field": {"kind": "prime", "p": 10**18 + 3},
        "lines": ["zero", "infinity", "identity", [["2", "0"], ["0", "3"]]],
    }))
    proc = subprocess.run([sys.executable, "-m", "skewlines.cli", "group",
                           str(path), "--json"],
                          capture_output=True, text=True, check=False, timeout=10)
    assert proc.returncode == 2
    payload = json.loads(proc.stdout)
    assert payload["budget_hit"] is True
    statuses = {e["status"] for e in payload["eigenvalue_ratios"]["entries"]}
    assert "undetermined" in statuses and "not_root_of_unity" not in statuses


def test_family_over_a_prime_above_the_factor_search_stops_at_the_budget():
    # F_{p^2}, p = 1000003 > 10^6: Rabin's test accepts z^2 - c with no
    # search over F_p; the group of order p^2 then exceeds the budget
    proc = subprocess.run([sys.executable, "-m", "skewlines.cli", "family",
                           "elementary_abelian", "p=1000003"],
                          capture_output=True, text=True, check=False, timeout=30)
    assert proc.returncode == 2
    assert "closure exceeded budget 5000" in proc.stdout
    assert "Traceback" not in proc.stderr


_CAPPED = ("import resource, sys\n"
           "resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))\n"
           "from skewlines.cli import main\n"
           "sys.exit(main(sys.argv[1:]))\n")


@pytest.mark.parametrize("argv, code", [
    (["transversals"], 0),
    (["group", "--budget", "50"], 2),
], ids=["transversals", "group"])
def test_sqrt_over_a_billion_sized_prime_field_runs_in_little_memory(
        tmp_path, argv, code):
    # p = 10^9 + 9 is 1 mod 4, so Tonelli-Shanks needs a non-square; the
    # search for one must not build a list of the field's elements.  The
    # discriminant of [[3, 1], [2, 2]] is 9, which needs that search.
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "field": {"kind": "prime", "p": 1000000009},
        "lines": ["zero", "infinity", [["3", "1"], ["2", "2"]]],
    }))
    proc = subprocess.run([sys.executable, "-c", _CAPPED, argv[0], str(path),
                           *argv[1:]],
                          capture_output=True, text=True, check=False, timeout=60)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


def test_family_affine_on_a_huge_prime_is_refused():
    proc = subprocess.run([sys.executable, "-m", "skewlines.cli", "family",
                           "affine", f"p={10**18 + 3}"],
                          capture_output=True, text=True, check=False, timeout=10)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# malformed input of any shape ends in an exit code, never an exception

_ENTRY = st.one_of(
    st.integers(-4, 4),
    st.sampled_from(["1", "-1", "1/2", "2/3"]),
    st.sampled_from(["1/0", "nan", "z^2", "z", ""]),
    st.lists(st.sampled_from(["0", "1", "1/2", "1/0"]), max_size=3),
)
_JSON = st.recursive(
    st.one_of(_ENTRY, st.none(), st.booleans(), st.floats(allow_nan=False)),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=8,
)
_MATRIX = st.one_of(
    # well-formed lines, so that some configurations reach the group analysis
    st.sampled_from([[["2", "0"], ["0", "1"]], [["1", "1"], ["0", "1"]],
                     [["0", "1"], ["-1", "0"]], [["4", "0"], ["0", "2"]]]),
    st.lists(st.lists(_ENTRY, min_size=2, max_size=2), min_size=2, max_size=2),
)
_FIELDS = st.sampled_from([
    {"kind": "rational"},
    {"kind": "prime", "p": 5},
    {"kind": "extension", "base": {"kind": "rational"}, "minpoly": ["1", "0", "1"]},
    {"kind": "extension", "base": {"kind": "prime", "p": 5}, "minpoly": ["2", "0", "1"]},
    {"kind": "prime", "p": 4},
    {"kind": "prime", "p": "7"},
    {"kind": "extension", "base": {"kind": "rational"}, "minpoly": ["1/0", "1"]},
    None,
])
_LINES = st.builds(
    lambda head, tail: head + tail,
    st.sampled_from([["zero", "infinity"], ["zero"], []]),
    st.lists(st.one_of(_MATRIX, st.sampled_from(["zero", "infinity", "identity"]), _JSON),
             min_size=1, max_size=3),
)
_CONFIGS = st.one_of(
    st.fixed_dictionaries({"field": _FIELDS, "lines": _LINES}),
    st.fixed_dictionaries({"field": _FIELDS, "lines": _JSON}),
    _JSON,
)


@given(_CONFIGS)
@settings(max_examples=60, deadline=None)
def test_hypothesis_malformed_configs_exit_cleanly(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        for argv in (["validate", str(path)], ["group", str(path), "--budget", "50"]):
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(argv)
            assert code in (0, 1, 2)
