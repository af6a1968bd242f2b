"""Workload inputs, report jobs and correctness checks for the benchmark.

A workload turns a seed into a list of jobs.  A job runs one input through
the public API (or the ``skewlines`` command line, in-process) and returns
its exit code and canonical JSON text; a pass runs every job once.

The seed picks among inputs of the same shape and never changes the amount
of work: orbit seeds are other points of the same orbit, configurations are
relisted, rescaled or rebuilt from another primitive root, and search grids
are reordered.  For ``DEFAULT_SEED`` the inputs are exactly the documented
ones, so their reports can be compared with recorded digests.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 0
WORKLOADS = ("polyhedral_orbit", "many_lines", "char_p_affine", "cli_mixed")

# closure size of the infinite Q configuration in cli_mixed: the budget stops it
CLI_BUDGET = 5000


@dataclass
class Job:
    """One report: ``run`` returns (exit code, canonical JSON text) and
    ``check`` lists what is wrong with the decoded payload of that text."""

    name: str
    run: Callable[[], tuple[int, str]]
    check: Callable[[dict], list[str]]
    exit_code: int = 0


@dataclass
class Inputs:
    jobs: list[Job]
    configs: list  # LineConfig objects whose closures feed the field micro-kernel


def serialize(report) -> tuple[int, str]:
    """Exit code and canonical JSON of an AnalysisReport."""
    return report.exit_code(), json.dumps(report.to_json(), sort_keys=True)


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# checks


def _expect_group(fam, group: dict) -> list[str]:
    problems = []
    if group.get("order") != fam.expected_order:
        problems.append(f"order {group.get('order')} != expected {fam.expected_order}")
    if group.get("label") != fam.expected_label:
        problems.append(f"label {group.get('label')} != expected {fam.expected_label}")
    return problems


def check_orbit(orbit: dict) -> list[str]:
    """Oracle agreement and orbit size x stabilizer = |G| on every line."""
    problems = []
    if orbit.get("oracle_agrees") is not True:
        problems.append("orbit oracle did not agree")
    if orbit.get("truncated"):
        problems.append("orbit truncated")
    stab, order = orbit.get("stabilizer_order"), orbit.get("group_order")
    sizes = orbit.get("per_line_sizes", {})
    for lab, size in sorted(sizes.items()):
        if size * stab != order:
            problems.append(f"line {lab}: orbit {size} x stabilizer {stab} != {order}")
    if sum(sizes.values()) != orbit.get("total_size"):
        problems.append("per-line sizes do not add up to the total")
    return problems


def _analysis_check(fam, orbit: bool) -> Callable[[dict], list[str]]:
    def check(payload: dict) -> list[str]:
        problems = _expect_group(fam, payload.get("group", {}))
        if payload.get("eigenvalue_ratios", {}).get("infinite_witness"):
            problems.append("finite family reported an infinite witness")
        if orbit:
            problems += check_orbit(payload.get("orbit", {}))
        return problems
    return check


def _budget_check(payload: dict) -> list[str]:
    problems = []
    if not payload.get("budget_hit") or payload.get("order") != CLI_BUDGET:
        problems.append(f"closure should stop at the budget {CLI_BUDGET}")
    if not payload.get("eigenvalue_ratios", {}).get("infinite_witness"):
        problems.append("no infinite-group witness")
    return problems


def _search_check(rows: int) -> Callable[[dict], list[str]]:
    def check(payload: dict) -> list[str]:
        problems = []
        if len(payload.get("rows", [])) != rows:
            problems.append(f"expected {rows} search rows")
        for row in payload.get("rows", []):
            if (row.get("order") != row.get("expected_order")
                    or row.get("label") != row.get("expected_label")
                    or row.get("matches_expected") is not True):
                problems.append(f"search row {row.get('params')} does not match its family")
        return problems
    return check


def _family_check(payload: dict) -> list[str]:
    if (payload.get("computed_order") != payload.get("expected_order")
            or payload.get("computed_label") != payload.get("expected_label")
            or payload.get("matches_expected") is not True):
        return ["family report does not match its own expectation"]
    return []


def _key_check(key: str) -> Callable[[dict], list[str]]:
    def check(payload: dict) -> list[str]:
        return [] if payload.get(key) is True else [f"{key} is not true"]
    return check


# ---------------------------------------------------------------------------
# inputs


def _orbit_point(sl, cfg, rng: random.Random | None):
    """[0:0:0:1] for the default seed, else a seeded point of its orbit.

    The walk applies seeded transport maps F_ijk starting from that point,
    so the orbit enumerated from the result is the same set of points: the
    same work, started on a seeded line.
    """
    f = cfg.field
    label, v = "inf", sl.ProjPoint(f.zero(), f.one())
    if rng is not None:
        labels = cfg.labels()
        for _ in range(rng.randint(2, 4)):
            j = rng.choice([lab for lab in labels if lab != label])
            k = rng.choice([lab for lab in labels if lab not in (label, j)])
            v = sl.moebius_apply(sl.generator(cfg, label, j, k), v)
            label = j
    return sl.point_on_line(cfg, label, v)


def _polyhedral_orbit(sl, rng) -> Inputs:
    jobs, configs = [], []
    for name in ("a4", "s4", "a5"):
        fam = sl.build_family(name)
        cfg = fam.config
        point = _orbit_point(sl, cfg, rng)
        jobs.append(Job(
            name,
            lambda cfg=cfg, point=point: serialize(
                sl.analyze(cfg, seed=point, oracle=True)),
            _analysis_check(fam, orbit=True),
        ))
        configs.append(cfg)
    return Inputs(jobs, configs)


def _many_lines(sl, rng) -> Inputs:
    jobs, configs = [], []
    for n in (8, 12, 16):
        fam = sl.build_family("standard", n=n)
        cfg = fam.config
        if rng is not None:
            # relisting the rotations keeps every triple, generator and closure
            mats = list(cfg.matrices)
            rng.shuffle(mats)
            cfg = sl.LineConfig(cfg.field, mats)
            cfg.require_valid()
        jobs.append(Job(f"standard_n{n}", lambda cfg=cfg: serialize(sl.analyze(cfg)),
                        _analysis_check(fam, orbit=False)))
        configs.append(cfg)
    return Inputs(jobs, configs)


def _primitive_roots(p: int) -> list[int]:
    return [c for c in range(2, p)
            if all(pow(c, (p - 1) // q, p) != 1
                   for q in range(2, p) if (p - 1) % q == 0)]


def _char_p_affine(sl, rng) -> Inputs:
    jobs, configs = [], []
    for p in (5, 7, 11):
        params = {"p": p}
        if rng is not None:
            params["dilation_square"] = rng.choice(_primitive_roots(p))
        fam = sl.build_family("affine", **params)
        jobs.append(Job(f"affine_p{p}", lambda cfg=fam.config: serialize(sl.analyze(cfg)),
                        _analysis_check(fam, orbit=False)))
        configs.append(fam.config)
    return Inputs(jobs, configs)


def _grid(rng, key: str, lo: int, hi: int) -> str:
    if rng is None:
        return f"{key}={lo}:{hi}"
    values = list(range(lo, hi + 1))
    rng.shuffle(values)
    return f"{key}=" + ",".join(map(str, values))


def _cli_mixed(sl, cli, rng, workdir: Path) -> Inputs:
    Q = sl.rational_field()
    scale = Q.one() if rng is None else Q.from_fraction(
        rng.choice([Fraction(2), Fraction(3), Fraction(1, 2), Fraction(5, 3), Fraction(7)]))
    # scaling every matrix by one constant leaves every projective generator as it is
    mats = [sl.Mat2.identity(Q).scale(scale),
            sl.Mat2.diag(Q.from_int(4), Q.from_int(2)).scale(scale)]
    if rng is not None:
        rng.shuffle(mats)
    q_cfg = sl.LineConfig(Q, mats)
    b = 1 if rng is None else rng.randint(1, 4)
    f25_cfg = sl.build_family("elementary_abelian", p=5, b=str(b)).config
    point = _orbit_point(sl, f25_cfg, rng)

    workdir.mkdir(parents=True, exist_ok=True)
    q_path, f25_path = workdir / "q_infinite.json", workdir / "f25.json"
    q_path.write_text(json.dumps(q_cfg.to_json()))
    f25_path.write_text(json.dumps(f25_cfg.to_json()))

    grids = [_grid(rng, "u1_order", 2, 6), _grid(rng, "u2_order", 3, 4)]
    if rng is not None:
        rng.shuffle(grids)
    family_params = ["p=7"] if rng is None else ["p=7", f"b={rng.randint(1, 6)}"]
    point_text = "[" + ":".join(repr(c) for c in point.coords) + "]"

    def job(name, argv, check, exit_code=0):
        return Job(f"cli:{name}", lambda: run_cli(cli, argv + ["--json"]), check, exit_code)

    jobs = [
        job("validate_q", ["validate", str(q_path)], _key_check("valid")),
        job("transversals_q", ["transversals", str(q_path)], _key_check("exists")),
        job("group_q", ["group", str(q_path), "--budget", str(CLI_BUDGET)],
            _budget_check, exit_code=2),
        job("search_cyclic_4line", ["search", "cyclic_4line", *grids], _search_check(10)),
        job("search_c3_scaled", ["search", "c3_scaled", _grid(rng, "s_order", 2, 6)],
            _search_check(5)),
        job("family_elementary_abelian", ["family", "elementary_abelian", *family_params],
            _family_check),
        job("validate_f25", ["validate", str(f25_path)], _key_check("valid")),
        job("transversals_f25", ["transversals", str(f25_path)], _key_check("exists")),
        job("orbit_f25", ["orbit", str(f25_path), "--seed-point", point_text, "--oracle"],
            check_orbit),
    ]
    return Inputs(jobs, [q_cfg, f25_cfg])


def build(workload: str, seed: int, sl, cli, workdir: Path) -> Inputs:
    """The jobs of one workload for one seed (``sl`` is the skewlines package)."""
    rng = None if seed == DEFAULT_SEED else random.Random(f"{workload}:{seed}")
    if workload == "cli_mixed":
        return _cli_mixed(sl, cli, rng, workdir)
    builders = {
        "polyhedral_orbit": _polyhedral_orbit,
        "many_lines": _many_lines,
        "char_p_affine": _char_p_affine,
    }
    return builders[workload](sl, rng)
