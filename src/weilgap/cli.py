"""Command-line frontend: reproducible experiments with JSON input/output.

Every run emits a JSON document {"config": ..., "result": ..., "timestamp": ...}
where config is the fully resolved parameter set; identical configs (and
seeds) give byte-identical output apart from the timestamp.  The exit
status is nonzero iff a check fails or the input is invalid.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
import time
from fractions import Fraction

from .characters import DirichletChar, primitive_characters
from .matrices import Mat2
from .presentation import build_presentation, compute_Q, decompose_gamma0, is_prime
from .multiplier import (
    MultiplierSystem,
    pretend_constraints,
    sixth_root_check,
    solve_pretend,
    trivial_multiplier,
)
from .series import (
    CoeffSeries,
    delta_coeffs,
    delta_delta_p,
    eisenstein_multiplier_coeffs,
)
from .analytic import (
    AdditiveTwist,
    additive_statements_for_psi,
    certify_modularity,
    check_fe_additive,
    check_fe_multiplicative,
    fe_for_q,
    lambda_additive,
)


class CliError(Exception):
    pass


def _require_prime(p: int) -> int:
    if not is_prime(p):
        raise CliError(f"{p} is not prime")
    if p <= 3:
        raise CliError(f"level must be a prime > 3, got {p}")
    return p


def _parse_complex(text: str) -> complex:
    re, im = text.split(",") if "," in text else (text, 0.0)
    value = complex(float(re), float(im))
    if not cmath.isfinite(value):
        raise CliError(f"--s expects finite values, got {text!r}")
    return value


def _require_positive(flag: str, value: float | None) -> None:
    if value is not None and not (math.isfinite(value) and value > 0):
        raise CliError(f"{flag} must be a finite positive number, got {value}")


def _emit(config: dict, result: dict, out_path: str | None) -> None:
    doc = {"config": config, "result": result, "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    text = json.dumps(doc, indent=2, sort_keys=True, default=_json_default)
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {out_path}")
    else:
        print(text)


def _json_default(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, set):
        return sorted(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _load_series(path: str) -> CoeffSeries:
    if not os.path.exists(path):
        raise CliError(f"coefficient file not found: {path}")
    with open(path) as handle:
        return CoeffSeries.from_json_lines(handle.read())


def _chi_from_arg(arg: str, p: int) -> DirichletChar:
    if arg == "trivial":
        return DirichletChar(p, 0)
    try:
        t = int(arg)
    except ValueError as exc:
        raise CliError(f"--chi expects an integer index or 'trivial', got {arg!r}") from exc
    chi = DirichletChar(p, t)
    if not chi.is_even():
        raise CliError(f"chi with index {t} mod {p} is odd; only even characters are multipliers")
    return chi


# -- subcommands -------------------------------------------------------------


def cmd_gens(args) -> int:
    p = _require_prime(args.p)
    gens = build_presentation(p)
    result = gens.to_json()
    _emit({"command": "gens", "p": p}, result, args.out)
    return 0


def cmd_word(args) -> int:
    p = _require_prime(args.p)
    try:
        a, b, c, d = (int(x) for x in args.matrix.split(","))
    except ValueError as exc:
        raise CliError("--matrix expects four comma-separated integers a,b,c,d") from exc
    gamma = Mat2(a, b, c, d)
    if gamma.det() != 1:
        raise CliError(f"matrix has determinant {gamma.det()}, expected 1")
    if c % p != 0:
        raise CliError(f"matrix is not in Gamma0({p}): {p} does not divide c = {c}")
    gens = build_presentation(p)
    word = decompose_gamma0(gens, gamma)
    _emit(
        {"command": "word", "p": p, "matrix": [a, b, c, d]},
        word.to_json(),
        args.out,
    )
    return 0


def cmd_q(args) -> int:
    p = _require_prime(args.p)
    qs = sorted(compute_Q(p))
    _emit({"command": "Q", "p": p}, {"p": p, "Q": qs, "size": len(qs)}, args.out)
    return 0


def cmd_multiplier(args) -> int:
    p = _require_prime(args.p)
    gens = build_presentation(p)
    chi = _chi_from_arg(args.chi, p)
    cs = pretend_constraints(p, gens, chi, args.qmax)
    sol = solve_pretend(cs, chi, gens, kernel_index=args.kernel_index)
    l = gens.signature[0]
    bound_predicts = cs.majorized_row_bound() + 5 <= l
    result = {
        "p": p,
        "q_max": args.qmax,
        "rows": cs.row_count(),
        "rank": sol.rank,
        "kernel_dim": sol.kernel_dim,
        "kernel_index": args.kernel_index,
        "infinite_order": sol.upsilon.has_infinite_order(),
        "majorized_rows": cs.majorized_row_bound(),
        "majorization_predicts_kernel_ge_5": bound_predicts,
        "bound_vs_computed_disagree": bound_predicts != (sol.kernel_dim >= 5),
        "multiplier": sol.upsilon.to_json(),
    }
    # --out receives the bare MultiplierSystem JSON, ready for series --multiplier
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(sol.upsilon.to_json(), handle, indent=2, default=_json_default)
            handle.write("\n")
        print(f"wrote {args.out}")
    _emit(
        {"command": "multiplier", "p": p, "qmax": args.qmax, "chi": args.chi,
         "kernel_index": args.kernel_index},
        result,
        None,
    )
    return 0


def cmd_sixth_root(args) -> int:
    p = _require_prime(args.p)
    gens = build_presentation(p)
    report = sixth_root_check(p, gens)
    _emit({"command": "sixth-root", "p": p}, report, args.out)
    return 0 if report["free_ok"] else 1


def cmd_series(args) -> int:
    if args.kind == "delta":
        series = delta_coeffs(args.M)
        config = {"command": "series", "kind": "delta", "M": args.M}
    elif args.kind == "delta-delta-p":
        p = _require_prime(args.p)
        series, _ = delta_delta_p(p, args.M)
        config = {"command": "series", "kind": "delta-delta-p", "p": p, "M": args.M}
    elif args.kind == "eis-mult":
        p = _require_prime(args.p)
        gens = build_presentation(p)
        if args.multiplier:
            with open(args.multiplier) as handle:
                doc = json.load(handle)
            if "angles" not in doc and "result" in doc:  # a full run document
                doc = doc["result"]["multiplier"]
            ups = MultiplierSystem.from_json(gens, doc)
        else:
            ups = trivial_multiplier(gens)
        series = eisenstein_multiplier_coeffs(p, ups, weight=args.weight, M=args.M, c_max=args.cmax)
        config = {
            "command": "series", "kind": "eis-mult", "p": p, "M": args.M,
            "weight": args.weight, "cmax": args.cmax, "multiplier": args.multiplier,
        }
    else:
        raise CliError(f"unknown series kind {args.kind!r}")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(series.to_json_lines())
        print(f"wrote {args.out} ({series.M} coefficients)")
    else:
        sys.stdout.write(series.to_json_lines())
    return 0


def cmd_lambda(args) -> int:
    s = _parse_complex(args.s)
    _require_positive("--y0", args.y0)
    f = _load_series(args.coeffs)
    twist = AdditiveTwist(args.a, args.q)
    lv = lambda_additive(f, twist, s, y0=args.y0)
    result = {
        "value": lv.value,
        "error": lv.error if lv.error != float("inf") else "inf",
        "s": s,
        "twist": str(twist),
        "M": lv.M,
        "y0": lv.y0,
    }
    _emit(
        {"command": "lambda", "coeffs": args.coeffs, "q": args.q, "a": args.a,
         "s": args.s, "y0": args.y0},
        result,
        args.out,
    )
    return 0


def cmd_check_fe(args) -> int:
    if args.q < 1:
        raise CliError(f"modulus q = {args.q} must be a positive integer")
    _require_positive("--tol", args.tol)
    f = _load_series(args.coeffs)
    g = _load_series(args.coeffs_g) if args.coeffs_g else f
    p = args.p if args.p == 1 else _require_prime(args.p)
    chi = _chi_from_arg(args.chi, p) if p > 1 else None
    phase = complex(chi(args.q)) if (chi is not None and args.q % p != 0) else 1.0 + 0j
    if args.a is None:
        fe = fe_for_q(p, args.k, args.q, phase)
    else:
        statements = additive_statements_for_psi(p, args.k, args.q, lambda m: phase)
        key = args.a % args.q
        if key not in statements:
            raise CliError(f"twist {args.a}/{args.q} is not reduced")
        fe = statements[key]
    s_samples = [_parse_complex(part) for part in args.s.split(";")] if args.s else None
    report = check_fe_additive(f, g, p, args.k, fe, s_samples, tolerance=args.tol)
    _emit(
        {"command": "check-fe", "p": p, "k": args.k, "q": args.q, "a": args.a,
         "chi": args.chi, "coeffs": args.coeffs, "coeffs_g": args.coeffs_g,
         "s": args.s, "tol": args.tol},
        report.to_json(),
        args.out,
    )
    return 0 if report.verdict else 1


def cmd_check_fe_mult(args) -> int:
    _require_positive("--tol", args.tol)
    f = _load_series(args.coeffs)
    g = _load_series(args.coeffs_g) if args.coeffs_g else f
    p = _require_prime(args.p)
    chi = _chi_from_arg(args.chi, p)
    candidates = primitive_characters(args.q)
    if not candidates:
        raise CliError(f"no primitive characters mod {args.q}")
    if not 0 <= args.psi_index < len(candidates):
        raise CliError(f"--psi-index must lie in [0, {len(candidates)}) for q = {args.q}, got {args.psi_index}")
    psi = candidates[args.psi_index]
    report = check_fe_multiplicative(
        f, g, p, args.k, complex(chi(args.q % p)), psi, tolerance=args.tol
    )
    result = {
        "psi_modulus": report.psi_modulus,
        "constant": report.constant,
        "assembly_residual": report.assembly_residual,
        "samples": [
            {"s": smp["s"], "residual": smp["residual"], "pass": smp["pass"]}
            for smp in report.samples
        ],
        "verdict": report.verdict,
    }
    _emit(
        {"command": "check-fe-mult", "p": p, "k": args.k, "q": args.q,
         "psi_index": args.psi_index, "chi": args.chi, "tol": args.tol},
        result,
        args.out,
    )
    return 0 if report.verdict else 1


def cmd_certify(args) -> int:
    _require_positive("--tol", args.tol)
    f = _load_series(args.coeffs)
    g = _load_series(args.coeffs_g) if args.coeffs_g else f
    p = _require_prime(args.p)
    chi = _chi_from_arg(args.chi, p)
    cert = certify_modularity(f, g, p, args.k, (lambda q: chi(q)), tolerance=args.tol, chi_label=args.chi)
    _emit(
        {"command": "certify", "p": p, "k": args.k, "chi": args.chi,
         "coeffs": args.coeffs, "coeffs_g": args.coeffs_g, "tol": args.tol},
        cert.to_json(),
        args.out,
    )
    return 0 if cert.verdict else 1


def cmd_reproduce_all(args) -> int:
    from .acceptance import CRITERIA, run_all

    only = None
    if args.only:
        only = [int(x) for x in args.only.split(",")]
        unknown = sorted(set(only) - set(CRITERIA))
        if unknown:
            raise CliError(f"unknown criterion {unknown}; valid criteria are {min(CRITERIA)}-{max(CRITERIA)}")
    results = run_all(only=only, seed=args.seed)
    payload = [r.to_json() for r in results]
    ok = all(r.passed for r in results)
    for r in results:
        print(f"criterion {r.criterion}: {'PASS' if r.passed else 'FAIL'} ({r.seconds:.1f}s) - {r.description}")
    _emit({"command": "reproduce-all", "only": args.only, "seed": args.seed},
          {"criteria": payload, "all_passed": ok}, args.out)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weilgap",
        description="Rademacher presentations, character-pretending multipliers, and "
        "twisted functional-equation checks for Gamma0(p)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(sp):
        sp.add_argument("--out", help="write the JSON document to this path")

    sp = sub.add_parser("gens", help="generating set and signature of Gamma0(p)/{+-I}")
    sp.add_argument("--p", type=int, required=True)
    add_out(sp)
    sp.set_defaults(func=cmd_gens)

    sp = sub.add_parser("word", help="decompose a Gamma0(p) matrix into generators")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--matrix", required=True, help="a,b,c,d")
    add_out(sp)
    sp.set_defaults(func=cmd_word)

    sp = sub.add_parser("Q", help="the additive-twist moduli set Q")
    sp.add_argument("--p", type=int, required=True)
    add_out(sp)
    sp.set_defaults(func=cmd_q)

    sp = sub.add_parser("multiplier", help="solve the character-pretending system")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--qmax", type=int, required=True)
    sp.add_argument("--chi", default="trivial", help="character index t or 'trivial'")
    sp.add_argument("--kernel-index", type=int, default=0)
    add_out(sp)
    sp.set_defaults(func=cmd_multiplier)

    sp = sub.add_parser("sixth-root", help="structure of upsilon(T S^p T^-1)")
    sp.add_argument("--p", type=int, required=True)
    add_out(sp)
    sp.set_defaults(func=cmd_sixth_root)

    sp = sub.add_parser("series", help="generate coefficient prefixes")
    sp.add_argument("--kind", required=True, choices=["delta", "delta-delta-p", "eis-mult"])
    sp.add_argument("--p", type=int, default=5)
    sp.add_argument("--M", type=int, required=True)
    sp.add_argument("--weight", type=int, default=4)
    sp.add_argument("--cmax", type=int, default=None)
    sp.add_argument("--multiplier", help="multiplier JSON file (eis-mult)")
    add_out(sp)
    sp.set_defaults(func=cmd_series)

    sp = sub.add_parser("lambda", help="completed twisted L-value of a prefix")
    sp.add_argument("--coeffs", required=True)
    sp.add_argument("--q", type=int, default=1)
    sp.add_argument("--a", type=int, default=0)
    sp.add_argument("--s", required=True, help="re,im")
    sp.add_argument("--y0", type=float, default=None)
    add_out(sp)
    sp.set_defaults(func=cmd_lambda)

    sp = sub.add_parser("check-fe", help="verify a twisted functional equation")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--q", type=int, default=1)
    sp.add_argument("--a", type=int, default=None,
                    help="twist numerator (defaults to the canonical -1/q statement)")
    sp.add_argument("--chi", default="trivial")
    sp.add_argument("--coeffs", required=True)
    sp.add_argument("--coeffs-g", dest="coeffs_g")
    sp.add_argument("--s", help="semicolon-separated re,im samples")
    sp.add_argument("--tol", type=float, default=1e-6)
    add_out(sp)
    sp.set_defaults(func=cmd_check_fe)

    sp = sub.add_parser("check-fe-mult", help="verify a multiplicative-twist functional equation")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--q", type=int, required=True, help="modulus of psi")
    sp.add_argument("--psi-index", type=int, default=0)
    sp.add_argument("--chi", default="trivial")
    sp.add_argument("--coeffs", required=True)
    sp.add_argument("--coeffs-g", dest="coeffs_g")
    sp.add_argument("--tol", type=float, default=1e-6)
    add_out(sp)
    sp.set_defaults(func=cmd_check_fe_mult)

    sp = sub.add_parser("certify", help="converse-theorem certificate for a coefficient pair")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--chi", default="trivial")
    sp.add_argument("--coeffs", required=True)
    sp.add_argument("--coeffs-g", dest="coeffs_g")
    sp.add_argument("--tol", type=float, default=1e-6)
    add_out(sp)
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("reproduce-all", help="run the acceptance criteria")
    sp.add_argument("--only", help="comma-separated criterion numbers")
    sp.add_argument("--seed", type=int, default=20260808)
    add_out(sp)
    sp.set_defaults(func=cmd_reproduce_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
