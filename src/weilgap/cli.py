"""Command-line frontend: reproducible experiments with JSON input/output.

Every run emits a JSON document {"config": ..., "result": ..., "timestamp": ...}
whose config is every parsed flag except --out; identical configs (and
seeds) give byte-identical output apart from the timestamp.  Each command
returns (result, passed) and :func:`main` emits the document and maps the
outcome to the exit status: 0 when the run passes, 1 when a check fails,
2 for invalid input.  ``series`` writes JSON lines and ``multiplier --out``
the bare multiplier document instead.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import re
import sys
import time
from typing import TYPE_CHECKING

from .characters import DirichletChar, primitive_characters
from .matrices import Mat2
from .presentation import _check_level, build_presentation, compute_Q, constraint_matrix, decompose_gamma0

# the multiplier, series and analytic layers load numpy and mpmath, so each
# handler imports the ones it uses: gens, word and Q start without them
if TYPE_CHECKING:
    from .series import CoeffSeries


class CliError(Exception):
    pass


def _parse_complex(text: str) -> complex:
    try:
        value = complex(*map(float, text.split(",", 1)))
    except ValueError:
        raise CliError(f"--s expects re or re,im, got {text!r}") from None
    if not cmath.isfinite(value):
        raise CliError(f"--s expects finite values, got {text!r}")
    return value


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
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _load_series(path: str) -> CoeffSeries:
    from .series import CoeffSeries

    if not os.path.exists(path):
        raise CliError(f"coefficient file not found: {path}")
    with open(path) as handle:
        return CoeffSeries.from_json_lines(handle.read())


def _load_pair(args) -> tuple[CoeffSeries, CoeffSeries]:
    """Check --tol and read f from --coeffs and g from --coeffs-g (default f)."""
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise CliError(f"--tol must be a finite positive number, got {args.tol}")
    f = _load_series(args.coeffs)
    return f, _load_series(args.coeffs_g) if args.coeffs_g else f


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


# -- subcommands: each returns (result, passed) --------------------------------


def cmd_gens(args):
    return build_presentation(args.p).to_json(), True


def cmd_word(args):
    p = _check_level(args.p)
    try:
        a, b, c, d = (int(x) for x in args.matrix.split(","))
    except ValueError as exc:
        raise CliError("--matrix expects four comma-separated integers a,b,c,d") from exc
    args.matrix = [a, b, c, d]  # the config records the parsed matrix
    gamma = Mat2(a, b, c, d)
    if gamma.det() != 1:
        raise CliError(f"matrix has determinant {gamma.det()}, expected 1")
    if c % p != 0:
        raise CliError(f"matrix is not in Gamma0({p}): {p} does not divide c = {c}")
    return decompose_gamma0(build_presentation(p), gamma).to_json(), True


def cmd_q(args):
    qs = sorted(compute_Q(args.p))
    return {"p": args.p, "Q": qs, "size": len(qs)}, True


def cmd_multiplier(args):
    from .multiplier import pretend_constraints, solve_pretend

    p = _check_level(args.p)
    gens = build_presentation(p)
    chi = _chi_from_arg(args.chi, p)
    cs = pretend_constraints(p, gens, chi, args.qmax)
    sol = solve_pretend(cs, chi, gens, kernel_index=args.kernel_index)
    # the kernel lives on the free coordinates: kernel_dim = n_free - rank >= n_free - rows
    bound_predicts = cs.majorized_row_bound() + 5 <= len(gens.free_labels)
    result = {
        "p": p,
        "q_max": args.qmax,
        "rows": cs.row_count(),
        "rank": sol.rank,
        "kernel_dim": sol.kernel_dim,
        "kernel_index": args.kernel_index,
        "infinite_order": sol.upsilon.has_infinite_order(),
        "reflection_symmetric": sol.upsilon.reflection_symmetric,
        "majorized_rows": cs.majorized_row_bound(),
        "majorization_predicts_kernel_ge_5": bound_predicts,
        "bound_vs_computed_disagree": bound_predicts and sol.kernel_dim < 5,
        "multiplier": sol.upsilon.to_json(),
    }
    # --out receives the bare MultiplierSystem JSON, ready for series --multiplier,
    # only when the kernel gives one of infinite order; the run document still
    # goes to stdout
    passed = sol.kernel_dim > 0
    if args.out and passed:
        with open(args.out, "w") as handle:
            json.dump(sol.upsilon.to_json(), handle, indent=2, default=_json_default)
            handle.write("\n")
        print(f"wrote {args.out}")
    args.out = None
    return result, passed


def cmd_sixth_root(args):
    from .multiplier import sixth_root_check

    p = _check_level(args.p)
    report = sixth_root_check(p, build_presentation(p))
    return report, report["free_ok"]


def cmd_series(args):
    """Writes JSON lines itself; returns no result."""
    from .multiplier import MultiplierSystem, trivial_multiplier
    from .series import delta_coeffs, delta_delta_p, eisenstein_multiplier_coeffs

    if args.kind == "delta":
        series = delta_coeffs(args.M)
    elif args.kind == "delta-delta-p":
        series, _ = delta_delta_p(_check_level(args.p), args.M)
    else:  # eis-mult
        p = _check_level(args.p)
        gens = build_presentation(p)
        if args.multiplier:
            with open(args.multiplier) as handle:
                doc = json.load(handle)
            if isinstance(doc, dict) and "angles" not in doc and "result" in doc:  # a full run document
                doc = doc["result"]
                if not isinstance(doc, dict) or "multiplier" not in doc:
                    raise CliError(f"run document {args.multiplier} has no result.multiplier")
                doc = doc["multiplier"]
            ups = MultiplierSystem.from_json(gens, doc)
        else:
            ups = trivial_multiplier(gens)
        series = eisenstein_multiplier_coeffs(p, ups, weight=args.weight, M=args.M, c_max=args.cmax)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(series.to_json_lines())
        print(f"wrote {args.out} ({series.M} coefficients)")
    else:
        sys.stdout.write(series.to_json_lines())
    return None, True


def cmd_lambda(args):
    from .analytic import AdditiveTwist, lambda_additive

    s = _parse_complex(args.s)
    f = _load_series(args.coeffs)
    twist = AdditiveTwist(args.a, args.q)
    lv = lambda_additive(f, twist, s)
    return {
        "value": lv.value,
        "error": lv.error if lv.error != float("inf") else "inf",
        "s": s,
        "twist": str(twist),
        "M": lv.M,
    }, True


def cmd_check_fe(args):
    from .analytic import FEStatement, check_fe_additive, fe_for_q

    if args.q < 1:
        raise CliError(f"modulus q = {args.q} must be a positive integer")
    f, g = _load_pair(args)
    p = args.p if args.p == 1 else _check_level(args.p)
    chi = _chi_from_arg(args.chi, p) if p > 1 else None
    phase = complex(chi(args.q)) if (chi is not None and args.q % p != 0) else 1.0 + 0j
    if args.a is None:
        fe = fe_for_q(p, args.k, args.q, phase)
    else:
        a = args.a % args.q
        if math.gcd(a, args.q) != 1:
            raise CliError(f"twist {args.a}/{args.q} is not reduced")
        fe = FEStatement(p, args.k, constraint_matrix(p, a, args.q)[0], phase)
    s_samples = [_parse_complex(part) for part in args.s.split(";")] if args.s else None
    report = check_fe_additive(f, g, p, args.k, fe, s_samples, tolerance=args.tol)
    return report.to_json(), report.verdict


def cmd_check_fe_mult(args):
    from .analytic import check_fe_multiplicative

    f, g = _load_pair(args)
    p = _check_level(args.p)
    chi = _chi_from_arg(args.chi, p)
    candidates = primitive_characters(args.q)
    if not candidates:
        raise CliError(f"no primitive characters mod {args.q}")
    if not 0 <= args.psi_index < len(candidates):
        raise CliError(f"--psi-index must lie in [0, {len(candidates)}) for q = {args.q}, got {args.psi_index}")
    report = check_fe_multiplicative(
        f, g, p, args.k, complex(chi(args.q % p)), candidates[args.psi_index], tolerance=args.tol
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
    return result, report.verdict


def cmd_certify(args):
    from .analytic import certify_modularity

    f, g = _load_pair(args)
    p = _check_level(args.p)
    chi = _chi_from_arg(args.chi, p)
    cert = certify_modularity(f, g, p, args.k, (lambda q: chi(q)), tolerance=args.tol, chi_label=args.chi)
    return cert.to_json(), cert.verdict


def cmd_reproduce_all(args):
    from .acceptance import CRITERIA, run_all

    only = None
    if args.only:
        valid = f"valid criteria are {min(CRITERIA)}-{max(CRITERIA)}"
        try:
            only = [int(x) for x in args.only.split(",")]
        except ValueError as exc:
            raise CliError(f"--only expects comma-separated criterion numbers, got {args.only!r}; {valid}") from exc
        unknown = sorted(set(only) - set(CRITERIA))
        if unknown:
            raise CliError(f"unknown criterion {unknown}; {valid}")
    results = run_all(only=only, seed=args.seed)
    for r in results:
        print(f"criterion {r.criterion}: {'PASS' if r.passed else 'FAIL'} ({r.seconds:.1f}s) - {r.description}")
    ok = all(r.passed for r in results)
    return {"criteria": [r.to_json() for r in results], "all_passed": ok}, ok


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weilgap",
        description="Rademacher presentations, character-pretending multipliers, and "
        "twisted functional-equation checks for Gamma0(p)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # shared options: --out everywhere, --p for a level, and the pair checks' options
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write the JSON document to this path")
    level = argparse.ArgumentParser(add_help=False, parents=[out])
    level.add_argument("--p", type=int, required=True)
    pair = argparse.ArgumentParser(add_help=False, parents=[level])
    pair.add_argument("--k", type=int, required=True)
    pair.add_argument("--chi", default="trivial", help="character index t or 'trivial'")
    pair.add_argument("--coeffs", required=True)
    pair.add_argument("--coeffs-g", dest="coeffs_g")
    pair.add_argument("--tol", type=float, default=1e-6)

    def command(name, func, help, parent=level):
        sp = sub.add_parser(name, help=help, parents=[parent])
        sp.set_defaults(func=func)
        return sp

    command("gens", cmd_gens, "generating set and signature of Gamma0(p)/{+-I}")
    sp = command("word", cmd_word, "decompose a Gamma0(p) matrix into generators")
    sp.add_argument("--matrix", required=True, help="a,b,c,d")
    command("Q", cmd_q, "the additive-twist moduli set Q")

    sp = command("multiplier", cmd_multiplier, "solve the character-pretending system")
    sp.add_argument("--qmax", type=int, required=True)
    sp.add_argument("--chi", default="trivial", help="character index t or 'trivial'")
    sp.add_argument("--kernel-index", type=int, default=0)

    command("sixth-root", cmd_sixth_root, "structure of upsilon(T S^p T^-1)")

    sp = command("series", cmd_series, "generate coefficient prefixes", out)
    sp.add_argument("--kind", required=True, choices=["delta", "delta-delta-p", "eis-mult"])
    sp.add_argument("--p", type=int, default=5)
    sp.add_argument("--M", type=int, required=True)
    sp.add_argument("--weight", type=int, default=4)
    sp.add_argument("--cmax", type=int, default=None)
    sp.add_argument("--multiplier", help="multiplier JSON file (eis-mult)")

    sp = command("lambda", cmd_lambda, "completed twisted L-value of a prefix", out)
    sp.add_argument("--coeffs", required=True)
    sp.add_argument("--q", type=int, default=1)
    sp.add_argument("--a", type=int, default=0)
    sp.add_argument("--s", required=True, help="re,im")

    sp = command("check-fe", cmd_check_fe, "verify a twisted functional equation", pair)
    sp.add_argument("--q", type=int, default=1)
    sp.add_argument("--a", type=int, default=None,
                    help="twist numerator (defaults to the canonical -1/q statement)")
    sp.add_argument("--s", help="semicolon-separated re,im samples")

    sp = command("check-fe-mult", cmd_check_fe_mult, "verify a multiplicative-twist functional equation", pair)
    sp.add_argument("--q", type=int, required=True, help="modulus of psi")
    sp.add_argument("--psi-index", type=int, default=0)

    command("certify", cmd_certify, "converse-theorem certificate for a coefficient pair", pair)

    sp = command("reproduce-all", cmd_reproduce_all, "run the acceptance criteria", out)
    sp.add_argument("--only", help="comma-separated criterion numbers")
    sp.add_argument("--seed", type=int, default=20260808)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes a value such as -1,5,0,-1 for an option: join it to its --matrix or --s
    for i in reversed(range(1, len(argv))):
        if argv[i - 1] in ("--matrix", "--s") and re.match(r"-\.?\d", argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    try:
        result, passed = args.func(args)
        if result is not None:
            config = {key: value for key, value in vars(args).items() if key not in ("func", "out")}
            _emit(config, result, args.out)
    except (CliError, ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
