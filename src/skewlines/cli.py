"""Command-line front end.

Subcommands:

    validate      check the skewness conditions of a configuration file
    transversals  search for a line meeting every line of the configuration
    group         close the generators and classify the resulting group
    orbit         enumerate the orbit of a point of P^3 under the groupoid
    family        build one of the documented constructions and analyze it
    search        sweep a family's parameter grid and tabulate the groups

Configurations travel as JSON (see LineConfig.to_json); reports are emitted
as text, or as canonical JSON under --json.  Exit codes: 0 success, 1 invalid
input, 2 budget exceeded, 3 internal invariant violation.
"""

import argparse
import functools
import json
import sys
from itertools import product

from .analyze import SCHEMA_VERSION, OracleMismatch, analyze
from .configs import (
    InvalidConfiguration,
    InvalidIndex,
    LineConfig,
    transversal_compute,
)
from .families import FAMILY_BUILDERS, InvalidParameters, build_family
from .fields import FieldError
from .groupoid import DEFAULT_BUDGET, IncompleteClosure, IndexCollision
from .orbits import SeedNotOnConfiguration, p3_from_string

_INPUT_ERRORS = (
    OSError,
    ValueError,
    KeyError,
    TypeError,
    FieldError,
    InvalidConfiguration,
    InvalidIndex,
    IndexCollision,
    SeedNotOnConfiguration,
)


def _load_config(path: str) -> LineConfig:
    if path == "-":
        data = json.load(sys.stdin)
    else:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    return LineConfig.from_json(data)


def _emit(payload: dict, args, text_lines) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _refuse_invalid(validation: dict, args) -> int:
    """Report a configuration that is not pairwise skew: exit code 1."""
    _emit({"schema_version": SCHEMA_VERSION, "validation": validation},
          args, ["configuration is not pairwise skew; fix it first"])
    return 1


def _census_text(census) -> str:
    if not census:
        return "-"
    return " ".join(f"{k}:{v}" for k, v in sorted(census.items(), key=lambda kv: int(kv[0])))


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    cfg = _load_config(args.config)
    rep = cfg.validation
    payload = {"schema_version": SCHEMA_VERSION, "labels": cfg.labels(), **rep.to_json()}
    lines = [f"lines: {', '.join(cfg.labels())}"]
    if rep.valid:
        lines.append("valid: yes")
    else:
        lines.append("valid: NO")
        for a, b in rep.pair_violations:
            lines.append(f"  lines {a} and {b} meet")
        for a in rep.meets_zero:
            lines.append(f"  line {a} meets line 0 (singular matrix)")
    for a in rep.meets_identity:
        lines.append(f"  note: line {a} meets the identity line")
    _emit(payload, args, lines)
    return 0 if rep.valid else 1


def cmd_transversals(args) -> int:
    cfg = _load_config(args.config)
    if not cfg.validation.valid:
        return _refuse_invalid(cfg.validation.to_json(), args)
    rep = transversal_compute(cfg)
    payload = {"schema_version": SCHEMA_VERSION, **rep.to_json()}
    if rep.exists:
        spots = ", ".join(str(w) for w in rep.witnesses)
        lines = [f"transversal exists: yes (common eigenvector {spots})"]
        if rep.all_directions:
            lines.append("every direction works: all matrices are scalar")
    else:
        lines = ["transversal exists: no"]
    _emit(payload, args, lines)
    return 0


def cmd_group(args) -> int:
    cfg = _load_config(args.config)
    rep = analyze(cfg, budget=args.budget, mode=args.mode)
    if not rep.valid:
        return _refuse_invalid(rep.validation, args)
    payload = {
        "schema_version": SCHEMA_VERSION,
        **rep.group,
        "transversal": rep.transversal,
        "abelian_prediction": rep.abelian_prediction,
        "generators": rep.generators,
        "eigenvalue_ratios": rep.eigenvalue_ratios,
    }
    lines = [f"order: {rep.group['order']}" + (" (budget hit)" if rep.group["budget_hit"] else "")]
    if rep.group["label"] is not None:
        lines.append(f"label: {rep.group['label']}")
        lines.append(f"element orders: {_census_text(rep.group['order_census'])}")
    if rep.group["theorem_violation"]:
        lines.append("WARNING: dihedral group — outside the proven range")
    if rep.eigenvalue_ratios["infinite_witness"]:
        lines.append("eigenvalue ratio is not a root of unity: the group is infinite")
    _emit(payload, args, lines)
    return rep.exit_code()


def cmd_orbit(args) -> int:
    cfg = _load_config(args.config)
    seed = p3_from_string(cfg.field, args.seed_point)
    rep = analyze(cfg, budget=args.budget, seed=seed, oracle=args.oracle)
    if not rep.valid:
        return _refuse_invalid(rep.validation, args)
    if rep.group["budget_hit"]:
        _emit({"schema_version": SCHEMA_VERSION, "budget_hit": True,
               "order": rep.group["order"]},
              args, [f"group closure exceeded budget {args.budget}; orbit skipped"])
        return 2
    payload = {"schema_version": SCHEMA_VERSION, **rep.orbit}
    lines = [
        f"carrier line: {rep.orbit['carrier']}",
        f"orbit size: {rep.orbit['total_size']}",
        f"stabilizer order: {rep.orbit['stabilizer_order']}",
        "per-line sizes: " + " ".join(
            f"{lab}:{n}" for lab, n in rep.orbit["per_line_sizes"].items()),
    ]
    if args.oracle:
        lines.append("geometric oracle agrees: yes")
    _emit(payload, args, lines)
    return rep.exit_code()


def _parse_param(key: str, text: str):
    if key == "a_values":
        return [t.strip() for t in text.split(",")]
    stripped = text.lstrip("-")
    if stripped.isdigit():
        return int(text)
    return text


def _parse_family_params(tokens) -> dict:
    params = {}
    for tok in tokens:
        if "=" not in tok:
            raise InvalidParameters(f"expected key=value, got {tok!r}")
        key, _, raw = tok.partition("=")
        params[key] = _parse_param(key, raw)
    return params


def _matches_expected(fam, group: dict) -> bool:
    return (group["order"] == fam.expected_order
            and group["label"] == fam.expected_label)


def cmd_family(args) -> int:
    fam = build_family(args.name, **_parse_family_params(args.params))
    payload = {"schema_version": SCHEMA_VERSION, **fam.to_json()}
    group = analyze(fam.config, budget=args.budget).group
    if group["budget_hit"]:
        payload["budget_hit"] = True
        _emit(payload, args,
              [f"{args.name}: closure exceeded budget {args.budget}"])
        return 2
    payload["computed_order"] = group["order"]
    payload["computed_label"] = group["label"]
    matches = _matches_expected(fam, group)
    payload["matches_expected"] = matches
    shown = ", ".join(f"{k}={v}" for k, v in fam.params.items()) or "-"
    lines = [
        f"family {fam.name} ({shown})",
        f"lines: {len(fam.config.labels())} over {fam.config.field}",
        f"order: {group['order']} (expected {fam.expected_order})",
        f"label: {group['label']} (expected {fam.expected_label})",
        f"matches expected: {'yes' if matches else 'NO'}",
    ]
    if fam.notes:
        lines.append(f"note: {fam.notes}")
    _emit(payload, args, lines)
    return 0 if matches else 3


def _parse_axis(key: str, text: str) -> list:
    lo, colon, hi = text.partition(":")
    if colon and lo.lstrip("-").isdigit() and hi.lstrip("-").isdigit():
        if int(lo) > int(hi):
            raise InvalidParameters(f"axis {key}={text} has no values")
        return list(range(int(lo), int(hi) + 1))
    if "," in text:
        return [_parse_param(key, t) for t in text.split(",")]
    return [_parse_param(key, text)]


def cmd_search(args) -> int:
    if args.name not in FAMILY_BUILDERS:
        raise InvalidParameters(
            f"unknown family {args.name!r}; choose from {sorted(FAMILY_BUILDERS)}")
    axes = []
    for tok in args.params:
        if "=" not in tok:
            raise InvalidParameters(f"expected key=value or key=lo:hi, got {tok!r}")
        key, _, raw = tok.partition("=")
        axes.append((key, _parse_axis(key, raw)))
    if not axes:
        raise InvalidParameters("search needs at least one parameter axis")

    rows = []
    hit_budget = False
    for combo in product(*(vals for _, vals in axes)):
        params = {key: value for (key, _), value in zip(axes, combo)}
        row = {"params": params}
        try:
            fam = build_family(args.name, **params)
        except InvalidParameters as exc:
            row["error"] = str(exc)
            rows.append(row)
            continue
        row["expected_order"] = fam.expected_order
        row["expected_label"] = fam.expected_label
        group = analyze(fam.config, budget=args.budget).group
        if group["budget_hit"]:
            row["budget_hit"] = True
            hit_budget = True
        else:
            row["order"] = group["order"]
            row["label"] = group["label"]
            row["matches_expected"] = _matches_expected(fam, group)
        rows.append(row)

    payload = {"schema_version": SCHEMA_VERSION, "family": args.name, "rows": rows}
    lines = []
    for row in rows:
        shown = " ".join(f"{k}={v}" for k, v in row["params"].items())
        if "error" in row:
            lines.append(f"{shown}  -> rejected: {row['error']}")
        elif row.get("budget_hit"):
            lines.append(f"{shown}  -> budget hit")
        else:
            tick = "ok" if row["matches_expected"] else "MISMATCH"
            lines.append(f"{shown}  -> order {row['order']} {row['label']} ({tick})")
    _emit(payload, args, lines)
    return 2 if hit_budget else 0


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true",
                        help="emit a canonical JSON report instead of text")

    budgeted = argparse.ArgumentParser(add_help=False)
    budgeted.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                          help="closure element budget (default %(default)s)")

    ap = argparse.ArgumentParser(
        prog="skewlines",
        description="Groups generated by projections between pairwise skew "
                    "lines in P^3, in exact arithmetic.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[shared],
                       help="check pairwise skewness of a configuration")
    p.add_argument("config", help="configuration JSON file, or - for stdin")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("transversals", parents=[shared],
                       help="look for a line meeting every configured line")
    p.add_argument("config", help="configuration JSON file, or - for stdin")
    p.set_defaults(handler=cmd_transversals)

    p = sub.add_parser("group", parents=[shared, budgeted],
                       help="close the generators and classify the group")
    p.add_argument("config", help="configuration JSON file, or - for stdin")
    p.add_argument("--mode", choices=["all_triples", "differences"],
                   default="all_triples", help="generating set to use")
    p.set_defaults(handler=cmd_group)

    p = sub.add_parser("orbit", parents=[shared, budgeted],
                       help="enumerate the orbit of a point of P^3")
    p.add_argument("config", help="configuration JSON file, or - for stdin")
    p.add_argument("--seed-point", required=True, metavar="[x:y:z:w]",
                   help="starting point, e.g. '[0:0:0:1]'")
    p.add_argument("--oracle", action="store_true",
                   help="certify the orbit by plane intersections")
    p.set_defaults(handler=cmd_orbit)

    builders = ", ".join(sorted(FAMILY_BUILDERS))
    p = sub.add_parser("family", parents=[shared, budgeted],
                       help="build a documented construction and analyze it")
    p.add_argument("name", help=f"which construction to build: {builders}")
    p.add_argument("params", nargs="*", metavar="key=value",
                   help="builder parameters, e.g. n=4 or p=3 b=1")
    p.set_defaults(handler=cmd_family)

    p = sub.add_parser("search", parents=[shared, budgeted],
                       help="sweep a family's parameters and tabulate groups")
    p.add_argument("name", help=f"which construction to sweep: {builders}")
    p.add_argument("params", nargs="*", metavar="key=spec",
                   help="axes: key=lo:hi, key=a,b,c, or fixed key=value")
    p.set_defaults(handler=cmd_search)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing keeps no state on it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except IncompleteClosure as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except OracleMismatch as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        # a RuntimeError, but raised by the parsers on input nested too deeply
        print("error: input is nested too deeply", file=sys.stderr)
        return 1
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
