"""Default reports stay byte-identical to the digests recorded for the
benchmark in bench/reference.json (read here, never written)."""

import hashlib
import json
from pathlib import Path

import pytest

from skewlines import cli
from skewlines.analyze import analyze
from skewlines.configs import LineConfig
from skewlines.families import build_family
from skewlines.fields import rational_field
from skewlines.matrices import Mat2, ProjPoint
from skewlines.orbits import point_on_line

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"


def _orbit_report(name):
    cfg = build_family(name).config
    f = cfg.field
    seed = point_on_line(cfg, "inf", ProjPoint(f.zero(), f.one()))  # [0:0:0:1]
    return analyze(cfg, seed=seed, oracle=True)


# the default-seed analyze() jobs of three bench workloads, by job name
_JOBS = {
    ("polyhedral_orbit", name): lambda name=name: _orbit_report(name)
    for name in ("a4", "s4", "a5")
}
_JOBS.update({
    ("many_lines", f"standard_n{n}"):
        lambda n=n: analyze(build_family("standard", n=n).config)
    for n in (8, 12, 16)
})
_JOBS.update({
    ("char_p_affine", f"affine_p{p}"):
        lambda p=p: analyze(build_family("affine", p=p).config)
    for p in (5, 7, 11)
})


def _recorded(workload: str) -> dict:
    return {entry["name"]: entry["sha256"]
            for entry in json.loads(REFERENCE.read_text())[workload]}


@pytest.mark.parametrize("workload, job", list(_JOBS))
def test_default_report_matches_the_recorded_digest(workload, job):
    text = json.dumps(_JOBS[workload, job]().to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == _recorded(workload)[job]


# the default-seed command lines of the cli_mixed workload and their exit
# codes, by job name; Q is the infinite configuration (lines 0, inf, I,
# diag(4, 2)), whose closure stops at the budget, and F25 is
# elementary_abelian p=5, b=1
_CLI_JOBS = {
    "validate_q": (["validate", "Q"], 0),
    "transversals_q": (["transversals", "Q"], 0),
    "group_q": (["group", "Q", "--budget", "5000"], 2),
    "search_cyclic_4line": (["search", "cyclic_4line", "u1_order=2:6", "u2_order=3:4"], 0),
    "search_c3_scaled": (["search", "c3_scaled", "s_order=2:6"], 0),
    "family_elementary_abelian": (["family", "elementary_abelian", "p=7"], 0),
    "validate_f25": (["validate", "F25"], 0),
    "transversals_f25": (["transversals", "F25"], 0),
    "orbit_f25": (["orbit", "F25", "--seed-point", "[0:0:0:1]", "--oracle"], 0),
}


@pytest.mark.parametrize("job", list(_CLI_JOBS))
def test_default_cli_report_matches_the_recorded_digest(job, tmp_path, capsys):
    Q = rational_field()
    configs = {
        "Q": LineConfig(Q, [Mat2.identity(Q), Mat2.diag(Q.from_int(4), Q.from_int(2))]),
        "F25": build_family("elementary_abelian", p=5, b="1").config,
    }
    paths = {}
    for name, cfg in configs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(cfg.to_json()))
    argv, exit_code = _CLI_JOBS[job]
    assert cli.main([str(paths.get(arg, arg)) for arg in argv] + ["--json"]) == exit_code
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == _recorded("cli_mixed")[f"cli:{job}"]
