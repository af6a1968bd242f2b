"""Default reports stay byte-identical to the digests recorded for the
benchmark in bench/reference.json (read here, never written)."""

import hashlib
import json
from pathlib import Path

import pytest

from skewlines.analyze import analyze
from skewlines.families import build_family
from skewlines.matrices import ProjPoint
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


@pytest.mark.parametrize("workload, job", list(_JOBS))
def test_default_report_matches_the_recorded_digest(workload, job):
    recorded = {entry["name"]: entry["sha256"]
                for entry in json.loads(REFERENCE.read_text())[workload]}
    text = json.dumps(_JOBS[workload, job]().to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == recorded[job]
