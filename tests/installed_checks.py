"""End-to-end checks of the installed `skewlines` console script.

Each check runs the script on a documented family or configuration and
compares its report with the values the mathematics gives; the last runs
README's Library example against the installed package.  pytest does not
collect this file: CI runs it once after installing the package.

    python tests/installed_checks.py
    PYTHONPATH=src python tests/installed_checks.py python -m skewlines.cli

Arguments, when given, are the command run in place of `skewlines`.  The
script prints one line a check and exits 1 when any check fails.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import skewlines

COMMAND = sys.argv[1:] or ["skewlines"]
README = Path(__file__).resolve().parents[1] / "README.md"
ORBIT_KEYS = ("oracle_agrees", "total_size", "stabilizer_order", "per_line_sizes")
FAMILY_KEYS = ("computed_order", "computed_label", "matches_expected")


class Failed(Exception):
    pass


def run(*args, stdin=None, code=0):
    """The script's stdout and stderr on args; Failed unless it exits code."""
    proc = subprocess.run([*COMMAND, *args], input=stdin, capture_output=True,
                          text=True)
    if proc.returncode != code:
        raise Failed(f"`skewlines {' '.join(args)}` exited {proc.returncode}, "
                     f"expected {code}: {proc.stderr.strip()}")
    return proc.stdout, proc.stderr


def config_text(cfg) -> str:
    return json.dumps(cfg.to_json())


def expect(what, got, want):
    if got != want:
        raise Failed(f"{what} {got}, expected {want}")


def orbit_report(cfg, seed):
    out, _ = run("orbit", "-", "--seed-point", seed, "--oracle", "--json",
                 stdin=config_text(cfg))
    report = json.loads(out)
    return {k: report.get(k) for k in ORBIT_KEYS}


def family_report(*args):
    out, _ = run("family", *args, "--json")
    report = json.loads(out)
    return {k: report.get(k) for k in FAMILY_KEYS}


def a5_lines(count):
    return {lab: count for lab in ("0", "inf", "1", "2", "3")}


def check_family_and_zero_seed():
    """exit 0 on a family, exit 1 on a zero seed"""
    run("family", "a4", "--json")
    _, err = run("orbit", "-", "--seed-point", "[0:0:0:0]",
                 stdin=config_text(skewlines.a4_example().config), code=1)
    if not any(line.startswith("error:") for line in err.splitlines()):
        raise Failed("zero seed gave no error: line")


def check_a5_orbit():
    """the a5 orbit with the oracle, over Q(zeta_20), from a seed whose
    orbit the closure holds"""
    # F_{i,j,inf} = 1, so each of the five lines holds the whole set G.v0
    # of |G| / |Stab(v0)| = 60 / 2 = 30 parameters
    expect("a5 orbit report",
           orbit_report(skewlines.a5_example().config, "[0:0:0:1]"),
           {"oracle_agrees": True, "total_size": 150, "stabilizer_order": 2,
            "per_line_sizes": a5_lines(30)})


def check_a5_orbit_at_high_heights():
    """the a5 orbit at heights near 2^61: every oracle key hit is decided
    by the exact plane test"""
    # a5 moved by diag(A, A), A = diag(1, 2^61 + 1): the same group up to
    # conjugation, with entries and Pluecker coordinates of that height
    cfg = skewlines.a5_example().config
    f = cfg.field
    a = skewlines.Mat2.diag(f.one(), f.parse("2^61 + 1"))
    ai = a.inv()
    moved = skewlines.LineConfig(f, [a * cfg.matrix(lab) * ai for lab in cfg.matrix_labels()],
                                 cfg.include_zero, cfg.include_infinity)
    # conjugation keeps |G| = 60 and the stabilizer of [0:1], of order 2
    expect("a5 orbit report at high heights", orbit_report(moved, "[0:0:0:1]"),
           {"oracle_agrees": True, "total_size": 150, "stabilizer_order": 2,
            "per_line_sizes": a5_lines(30)})


def check_a5_generic_orbit():
    """the a5 orbit from a generic seed: the transport walk forms new
    images"""
    # the closure's point table holds the orbits of [1:0], [0:1] and
    # [1:1] alone, so from [1 : 7] the walk images every parameter; no
    # element fixes it, so each line holds |G| = 60 parameters
    expect("a5 generic orbit report",
           orbit_report(skewlines.a5_example().config, "[0:0:1:7]"),
           {"oracle_agrees": True, "total_size": 300, "stabilizer_order": 1,
            "per_line_sizes": a5_lines(60)})


def check_f25_orbit():
    """the elementary_abelian p=5 orbit with the oracle, over F_25, which
    has no reduction, so every oracle meet is formed exactly"""
    # G is the 25 translations of F_25, and a translation fixes only
    # [1:0], so the seed's parameter [0:1] has a trivial stabilizer;
    # F_{i,j,inf} = 1 puts all of G.v0, 25 parameters, on every line
    expect("elementary_abelian p=5 orbit report",
           orbit_report(skewlines.elementary_abelian(5).config, "[0:0:0:1]"),
           {"oracle_agrees": True, "total_size": 100, "stabilizer_order": 1,
            "per_line_sizes": {lab: 25 for lab in ("0", "1", "2", "inf")}})


def check_affine13():
    """a closure over F_169: affine p=13, |G| = 4056 under the default
    budget"""
    expect("affine p=13 report", family_report("affine", "p=13"),
           {"computed_order": 4056, "computed_label": "affine(169,24)",
            "matches_expected": True})


def check_translation_budget():
    """the translation config t -> t + 1 over Q: no ratio certifies it, and
    the closure stops at its budget of 40"""
    text = ('{"field": {"kind": "rational"}, "lines": ["zero", "infinity", '
            '[["1", "0"], ["0", "1"]], [["2", "2"], ["0", "2"]]]}')
    out, _ = run("group", "-", "--budget", "40", "--json", stdin=text, code=2)
    report = json.loads(out)
    got = (report.get("order"), report.get("budget_hit"),
           report.get("eigenvalue_ratios", {}).get("infinite_witness"))
    # every generator is a translation t -> t + m, so G = {t -> t + m}
    # is infinite and unipotent: each ratio is 1, no ratio certifies
    # it, and the walk stops at exactly the budget of 40 elements
    expect("translation report (order, budget_hit, infinite_witness)", got,
           (40, True, False))


def check_c3_scaled5():
    """c3_scaled s_order=5: the longest ratio scans of any family, over
    Q(zeta_15)"""
    expect("c3_scaled s_order=5 report", family_report("c3_scaled", "s_order=5"),
           {"computed_order": 30, "computed_label": "cyclic(30)",
            "matches_expected": True})


def check_c3_search():
    """search c3_scaled s_order=2:6: rows print only the group, so their
    other report sections are never formed"""
    out, _ = run("search", "c3_scaled", "s_order=2:6", "--json")
    rows = json.loads(out)["rows"]
    expect("search c3_scaled s_order=2:6 rows",
           [(row.get("order"), row.get("matches_expected")) for row in rows],
           [(6, True), (6, True), (12, True), (30, True), (6, True)])


def check_standard16():
    """standard n=16: generator assembly over the 4 896 triples of 18 lines,
    over Q(zeta_16)"""
    expect("standard n=16 report", family_report("standard", "n=16"),
           {"computed_order": 16, "computed_label": "cyclic(16)",
            "matches_expected": True})


def check_readme_library():
    """README's Library example against the installed package prints 60 A5,
    then 150 2"""
    section = README.read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    if proc.returncode:
        raise Failed(f"README's Library example failed: {proc.stderr.strip()}")
    expect("README's Library example printed", proc.stdout, "60 A5\n150 2\n")


CHECKS = [check_family_and_zero_seed, check_a5_orbit, check_a5_orbit_at_high_heights,
          check_a5_generic_orbit, check_f25_orbit, check_affine13,
          check_translation_budget, check_c3_scaled5, check_c3_search,
          check_standard16, check_readme_library]


def main() -> int:
    failed = 0
    for check in CHECKS:
        summary = " ".join(check.__doc__.split())
        try:
            check()
        except Failed as exc:
            failed += 1
            print(f"FAILED {check.__name__} ({summary}): {exc}")
        else:
            print(f"ok {check.__name__} ({summary})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
