"""The acceptance criteria, runnable as a suite.

Each criterion is declared once with the :func:`criterion` decorator,
which registers it in CRITERIA and turns its (passed, details) body into
a timed CriterionResult; the pytest module tests/test_acceptance.py
asserts them one by one and the CLI command ``weilgap reproduce-all``
runs the same code and emits a machine-readable report.  Tolerances are
fixed here, not configurable.
"""

from __future__ import annotations

import cmath
import functools
import inspect
import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .characters import DirichletChar, _units, primitive_characters
from .matrices import IDENTITY, FrickeMat, S, T
from .presentation import (
    build_presentation,
    compute_Q,
    decompose_gamma0,
    is_prime,
    rademacher_signature,
    random_gamma0_element,
    v_matrix,
)
from .multiplier import (
    char_multiplier,
    constraint_matrix,
    in_kappa_subgroup,
    pretend_constraints,
    sixth_root_check,
    solve_pretend,
    trivial_multiplier,
)
from .series import (
    delta_coeffs,
    delta_delta_p,
    eisenstein_multiplier_coeffs,
    multiply,
    twisted_kloosterman,
    coeffs_via_fourier_extraction,
    series_evaluator,
    slash_evaluator,
)
from .analytic import (
    certify_modularity,
    check_fe_additive,
    check_fe_multiplicative,
    fe_for_q,
    gauss_assembly_residual,
    gauss_sum,
)


@dataclass
class CriterionResult:
    criterion: int
    description: str
    passed: bool
    seconds: float
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "criterion": self.criterion,
            "description": self.description,
            "pass": self.passed,
            "seconds": round(self.seconds, 3),
            "details": _jsonable(self.details),
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


DEFAULT_SEED = 20260808

CRITERIA: dict[int, Callable[..., CriterionResult]] = {}


def criterion(number: int, description: str, limit: Optional[float] = None):
    """Register a criterion body returning (passed, details) as CRITERIA[number].

    The registered function takes the suite seed and returns a timed
    CriterionResult; the seed reaches the body only if the body declares a
    ``seed`` parameter.  With a runtime limit, the criterion also fails when
    it runs for ``limit`` seconds or more, and the limit is recorded in the
    details as ``runtime_limit``.
    """

    def register(body: Callable[..., tuple[bool, dict]]) -> Callable[..., CriterionResult]:
        seeded = "seed" in inspect.signature(body).parameters

        @functools.wraps(body)
        def run(seed: int = DEFAULT_SEED) -> CriterionResult:
            start = time.perf_counter()
            passed, details = body(seed) if seeded else body()
            seconds = time.perf_counter() - start
            if limit is not None:
                passed = passed and seconds < limit
                details["runtime_limit"] = limit
            return CriterionResult(number, description, passed, seconds, details)

        CRITERIA[number] = run
        return run

    return register


PRIMES_UNDER_200 = [p for p in range(5, 200) if is_prime(p)]


@criterion(1, "Rademacher signatures for all 3 < p < 200", limit=60)
def criterion_1() -> tuple[bool, dict]:
    """Presentation signatures match 2*floor(p/12)+3 and the parity rules
    for every prime 3 < p < 200."""
    mismatches = []
    for p in PRIMES_UNDER_200:
        got = build_presentation(p).signature
        want = rademacher_signature(p)
        if got != want:
            mismatches.append({"p": p, "got": got, "want": want})
    return not mismatches, {"primes": len(PRIMES_UNDER_200), "mismatches": mismatches}


@criterion(2, "word decomposition round-trips exactly", limit=120)
def criterion_2(seed: int) -> tuple[bool, dict]:
    """100 random Gamma0(p) elements per p decompose and re-multiply to
    +-original, exactly, for p in {5, 7, 11, 13, 29, 101}."""
    rng = random.Random(seed)
    failures = []
    for p in (5, 7, 11, 13, 29, 101):
        gens = build_presentation(p)
        mats = [m for _, m in gens.generators]
        for i in range(100):
            if i % 2 == 0:
                gamma = random_gamma0_element(p, rng)
            else:
                gamma = IDENTITY
                for _ in range(rng.randint(1, 10)):
                    g = rng.choice(mats)
                    gamma = gamma * (g if rng.random() < 0.5 else g.inv())
            word = decompose_gamma0(gens, gamma)
            value = word.evaluate(gens)
            ok = (value == gamma and word.sign == 1) or (value == -gamma and word.sign == -1)
            if not ok:
                failures.append({"p": p, "matrix": gamma.to_json()})
    return not failures, {"per_prime": 100, "failures": failures}


@criterion(3, "p = 13 parabolic product identity in the projective group")
def criterion_3() -> tuple[bool, dict]:
    """The p = 13 identity V_10^-2 V_8^-1 V_5^-1 V_4^-2 S^-1 = T S^13 T^-1,
    tested under both multiplication-order conventions."""
    factors = [
        v_matrix(13, 10) ** -2,
        v_matrix(13, 8) ** -1,
        v_matrix(13, 5) ** -1,
        v_matrix(13, 4) ** -2,
        S ** -1,
    ]
    target = T * S**13 * T.inv()
    l2r = IDENTITY
    for m in factors:
        l2r = l2r * m
    r2l = IDENTITY
    for m in factors:
        r2l = m * r2l
    conventions = {}
    for name, value in (("left-to-right", l2r), ("right-to-left", r2l)):
        if value == target:
            conventions[name] = "+1"
        elif value == -target:
            conventions[name] = "-1"
        else:
            conventions[name] = "no match"
    passed = any(v in ("+1", "-1") for v in conventions.values())
    return passed, {"target": target.to_json(), "conventions": conventions}


@criterion(4, "sixth-root structure of upsilon(T S^p T^-1)")
def criterion_4() -> tuple[bool, dict]:
    """For all 3 < p < 200: the abelianized image of T S^p T^-1 has free
    part proportional to that of S, with vanishing torsion exactly when
    p = 11 mod 12."""
    failures = []
    samples = {}
    for p in PRIMES_UNDER_200:
        gens = build_presentation(p)
        rep = sixth_root_check(p, gens)
        expected_zero = p % 12 == 11
        ok = rep["free_ok"] and (rep["torsion_zero"] == expected_zero)
        if not ok:
            failures.append(rep)
        if p in (11, 13, 23):
            samples[p] = rep
    return not failures, {"failures": failures, "samples": samples}


@criterion(5, "character-pretending solver kernel dimensions", limit=600)
def criterion_5() -> tuple[bool, dict]:
    """p = 101, Q_max = 5: exact kernel dimension >= 5, all constraints
    satisfied exactly, and the returned multiplier has infinite order;
    p = 29, Q_max = 1 reports its computed dimension >= 1."""
    details = {}
    gens = build_presentation(101)
    chi = DirichletChar(101, 2)
    cs = pretend_constraints(101, gens, chi, 5)
    sol = solve_pretend(cs, chi, gens)
    details["p101"] = {
        "rows": cs.row_count(),
        "rank": sol.rank,
        "kernel_dim": sol.kernel_dim,
        "infinite_order": sol.upsilon.has_infinite_order(),
    }
    ok = sol.kernel_dim >= 5 and sol.upsilon.has_infinite_order()
    # constraints re-verified exactly on fresh random B-lifts
    rng = random.Random(101)
    for row in cs.rows:
        if row.a is None:
            continue
        _, B0, _ = constraint_matrix(101, row.a, row.q)
        lifted, _, _ = constraint_matrix(101, row.a, row.q, B0 + rng.randint(1, 4) * row.q)
        if sol.upsilon.evaluate(lifted) != row.target.mod1():
            ok = False
            details.setdefault("violations", []).append(row.tag)

    gens29 = build_presentation(29)
    chi29 = DirichletChar(29, 0)
    cs29 = pretend_constraints(29, gens29, chi29, 1)
    sol29 = solve_pretend(cs29, chi29, gens29)
    details["p29"] = {"rows": cs29.row_count(), "rank": sol29.rank, "kernel_dim": sol29.kernel_dim}
    ok = ok and sol29.kernel_dim >= 1
    return ok, details


@criterion(6, "constraint dependence only on B mod q")
def criterion_6(seed: int) -> tuple[bool, dict]:
    """B-invariance at p in {13, 29}: for random (a, q, B, B' = B + tq) the
    constraint matrices have equal multiplier value under any solution of
    the cusp rows (exact subgroup membership), and equal values under
    explicit solutions."""
    rng = random.Random(seed)
    failures = []
    for p in (13, 29):
        gens = build_presentation(p)
        chi = DirichletChar(p, 0)
        explicit = [
            char_multiplier(DirichletChar(p, t), gens)
            for t in range(0, p - 1, 2)
            if DirichletChar(p, t).is_even()
        ][:3]
        cs = pretend_constraints(p, gens, chi, 1, verify_b_dependence=False)
        explicit.append(solve_pretend(cs, chi, gens).upsilon)  # upsilon_chi on a trivial kernel
        for _ in range(20):
            q = rng.randint(1, 9)
            while q % p == 0:
                q = rng.randint(1, 9)
            a = rng.choice(_units(q))
            m1, B, _ = constraint_matrix(p, a, q)
            t = rng.randint(1, 5)
            m2, _, _ = constraint_matrix(p, a, q, B + t * q)
            if not in_kappa_subgroup(gens, gens.class_of(m2) + (-gens.class_of(m1))):
                failures.append({"p": p, "a": a, "q": q, "B": B, "t": t, "kind": "subgroup"})
            for ups in explicit:
                if ups.evaluate(m1) != ups.evaluate(m2):
                    failures.append({"p": p, "a": a, "q": q, "B": B, "t": t, "kind": "value"})
    return not failures, {"failures": failures, "pairs_per_prime": 20}


@criterion(7, "Hecke functional equation for Delta at level 1", limit=10)
def criterion_7() -> tuple[bool, dict]:
    """Hecke level 1: |Lambda(Delta, s) - Lambda(Delta, 12 - s)| < 1e-8 at
    s in {6, 7 + i} with M = 2000 coefficients."""
    d = delta_coeffs(2000)
    rep = check_fe_additive(d, d, 1, 12, fe_for_q(1, 12, 1), s_samples=[6 + 0j, 7 + 1j], tolerance=1e-8)
    residuals = {str(s.s): abs(s.defect_integral) for s in rep.samples}
    ok = all(r < 1e-8 for r in residuals.values()) and rep.verdict
    return ok, {"residuals": residuals, "window": list(rep.window)}


@criterion(8, "desk-scale converse-theorem checks for Delta(z)Delta(pz)", limit=300)
def criterion_8() -> tuple[bool, dict]:
    """Converse-theorem relations at desk scale: f = g = Delta(z)Delta(pz),
    p in {5, 11}, k = 24: additive FE checks pass below 1e-6 for all q in Q,
    the certificate passes, and one corrupted coefficient flips the verdict."""
    details = {}
    ok = True
    for p, M in ((5, 1200), (11, 2400)):
        f, g = delta_delta_p(p, M)
        gens = build_presentation(p)
        per_q = {}
        for q in sorted(compute_Q(p, gens)):
            fe = fe_for_q(p, 24, q, 1.0)
            rep = check_fe_additive(f, g, p, 24, fe, tolerance=1e-6)
            worst = max(s.relative for s in rep.samples)
            per_q[q] = {"max_relative_defect": worst, "verdict": rep.verdict}
            ok = ok and rep.verdict and worst < 1e-6
        cert = certify_modularity(f, g, p, 24, None, tolerance=1e-6, gens=gens)
        corrupted = f.copy_with(
            coeffs=[c + (1 if m == p else 0) for m, c in enumerate(f.coeffs)], exact=None
        )
        cert_bad = certify_modularity(corrupted, g, p, 24, None, tolerance=1e-6, gens=gens)
        details[f"p{p}"] = {
            "per_q": per_q,
            "certificate": cert.to_json(),
            "corrupted_verdict": cert_bad.verdict,
            "corrupted_failing": cert_bad.failing,
        }
        ok = ok and cert.verdict and not cert_bad.verdict
    return ok, details


@criterion(9, "Gauss sums, assembly identity, multiplicative FE")
def criterion_9(seed: int) -> tuple[bool, dict]:
    """Gauss-sum machinery: |tau(psi)|^2 = q for primitive psi with q <= 8;
    the multiplicative assembly identity holds to 1e-10 on random vectors;
    check_fe_multiplicative passes for Delta(z)Delta(11z), psi quadratic
    mod 3, at 1e-6."""
    rng = random.Random(seed)
    ok = True
    details = {}
    worst_tau = 0.0
    for q in range(1, 9):
        for psi in primitive_characters(q):
            tau = gauss_sum(psi)
            worst_tau = max(worst_tau, abs(abs(tau) ** 2 - q))
    details["tau_norm_worst"] = worst_tau
    ok = ok and worst_tau < 1e-12

    worst_assembly = 0.0
    for q in (3, 5, 7):
        for psi in primitive_characters(q):
            for p in (11, 13):
                vector = {b: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for b in range(q)}
                worst_assembly = max(worst_assembly, gauss_assembly_residual(psi, p, vector))
    details["assembly_worst"] = worst_assembly
    ok = ok and worst_assembly < 1e-10

    f, g = delta_delta_p(11, 2000)
    psi = next(c for c in primitive_characters(3) if not c.is_trivial())
    rep = check_fe_multiplicative(f, g, 11, 24, 1.0, psi, s_samples=[12 + 0j], tolerance=1e-6)
    details["fe_mult"] = {
        "assembly_residual": rep.assembly_residual,
        "samples": [{"s": s["s"], "residual": s["residual"]} for s in rep.samples],
        "verdict": rep.verdict,
    }
    ok = ok and rep.verdict
    return ok, details


@criterion(10, "Eisenstein-with-multiplier modularity residuals", limit=600)
def criterion_10() -> tuple[bool, dict]:
    """Eisenstein with trivial multiplier at p = 5, w = 4: the modularity
    residual decreases along c_max in {50, 100, 200, 400} * p and is below
    1e-4 at the largest; twisted Kloosterman sums match brute force for
    all c <= 3p.  The infinite-order-multiplier numerics run afterwards as
    a reported, non-gating experiment."""
    p = 5
    gens = build_presentation(p)
    ups = trivial_multiplier(gens)
    details = {}

    worst_kloosterman = 0.0
    for c in range(p, 3 * p + 1, p):
        for m in range(0, 2 * c, max(1, c // 3)):
            ks = twisted_kloosterman(p, ups, m, c)
            brute = sum(cmath.exp(2j * cmath.pi * m * d / c) for d in _units(c))
            worst_kloosterman = max(worst_kloosterman, abs(ks.value - brute))
    details["kloosterman_worst"] = worst_kloosterman
    ok = worst_kloosterman < 1e-9

    test_points = [0.1 + 0.8j, -0.3 + 1.1j, 0.05 + 0.6j]
    gen_mats = [m for _, m in gens.generators]
    residuals = []
    M = 400
    for factor in (50, 100, 200, 400):
        c_max = factor * p
        eis = eisenstein_multiplier_coeffs(p, ups, 4, M=M, c_max=c_max)
        slashed = [slash_evaluator(eis.eval_truncated, 4, mat) for mat in gen_mats]
        worst = 0.0
        for z in test_points:
            fz = eis.eval_truncated(z)
            for transformed in slashed:
                worst = max(worst, abs(transformed(z) - fz))
        residuals.append(worst)
    details["residuals_by_cmax"] = dict(zip(("250", "500", "1000", "2000"), residuals))
    decreasing = all(residuals[i + 1] <= residuals[i] * 1.05 for i in range(len(residuals) - 1))
    ok = ok and decreasing and residuals[-1] < 1e-4

    details["infinite_order_experiment"] = _infinite_order_multiplier_experiment()
    return ok, details


def _infinite_order_multiplier_experiment() -> dict:
    """Build the infinite-order multiplier at p = 29, its weight-16 cusp
    form Eisenstein(4, upsilon) * Delta, extract g = f|W_p numerically, and
    report the q = 1 functional-equation residuals.  Non-gating: the
    achievable truncation error, not correctness, limits these numbers."""
    import mpmath as mp

    p = 29
    gens = build_presentation(p)
    chi = DirichletChar(p, 0)
    cs = pretend_constraints(p, gens, chi, 1, verify_b_dependence=False)
    sol = solve_pretend(cs, chi, gens)
    M = 2000
    eis = eisenstein_multiplier_coeffs(p, sol.upsilon, 4, M=M, c_max=40 * p)
    f = multiply(eis, delta_coeffs(M))
    f = f.copy_with(label="thm11_f", level=p, sigma=9.0)

    # f|W_p is 1-periodic because upsilon(T S^p T^{-1}) = 1, so evaluate at
    # the representative with |Re z| <= 1/2 where the dual height is largest
    y_ext = 0.16
    base = slash_evaluator(series_evaluator(f), 16, FrickeMat(p))

    def evaluator(z):
        z = mp.mpc(z)
        return base(mp.mpc(z.real - mp.nint(z.real), z.imag))

    h_worst = y_ext / (p * (0.25 + y_ext**2))
    eval_err = f.tail_bound(h_worst) * float(
        (math.sqrt(p) * math.hypot(0.5, y_ext)) ** (-16.0)
    )
    try:
        g = coeffs_via_fourier_extraction(
            evaluator, 16, y_ext, 80, label="thm11_g", level=p,
            growth_c=max(f.growth_c, 1.0), growth_sigma=9.0,
            eval_error=eval_err,
        )
        fe = fe_for_q(p, 16, 1, 1.0)
        g = g.copy_with(sigma=9.0)
        # 5e-2 is the achievable level here: the Eisenstein c_max
        # truncation enters the coefficients coherently and dominates
        achievable = 5e-2
        rep = check_fe_additive(
            f, g, p, 16, fe,
            s_samples=[8 + 0j, 9.5 + 0j], tolerance=achievable, with_lambda=False,
        )
        # multiplicative twists for every primitive psi of modulus up to
        # sqrt((p - 24)/3); at p = 29 that is the trivial psi mod 1
        q_mult_bound = int(math.isqrt((p - 24) // 3))
        mult_reports = []
        for q in range(1, q_mult_bound + 1):
            for psi in primitive_characters(q):
                mrep = check_fe_multiplicative(
                    f, g, p, 16, 1.0, psi, s_samples=[8 + 0j, 9.5 + 0j],
                    tolerance=achievable,
                )
                mult_reports.append(
                    {
                        "psi_modulus": q,
                        "residuals": [smp["residual"] for smp in mrep.samples],
                        "verdict": mrep.verdict,
                    }
                )
        return {
            "p": p,
            "kernel_dim": sol.kernel_dim,
            "upsilon_infinite_order": sol.upsilon.has_infinite_order(),
            "eisenstein_cmax": 40 * p,
            "eisenstein_tail_bound": eis.error_bound,
            "achievable_tolerance": achievable,
            "additive_verdict": rep.verdict,
            "window": list(rep.window),
            "samples": [
                {"s": [s.s.real, s.s.imag], "relative_defect": s.relative} for s in rep.samples
            ],
            "modular_points": [
                {"z": [m.z.real, m.z.imag], "residual": m.residual} for m in rep.modular_points
            ],
            "multiplicative": mult_reports,
            "note": "reported, non-gating: truncation error dominates",
        }
    except ValueError as exc:
        return {
            "p": p,
            "kernel_dim": sol.kernel_dim,
            "upsilon_infinite_order": sol.upsilon.has_infinite_order(),
            "note": f"window not achievable at this truncation: {exc}",
        }


def run_all(only: Optional[list[int]] = None, seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    return [run(seed) for number, run in sorted(CRITERIA.items()) if only is None or number in only]
