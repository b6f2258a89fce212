"""The three benchmark workloads, each a job a researcher runs start to finish.

Every workload has three parts:

* ``prepare(seed, size)`` makes the seeded inputs (this is set-up time);
* ``run(inputs, tracer)`` is the timed job, calling the public weilgap API;
* ``check(inputs, out)`` checks the outputs outside the timed region and
  returns ``(name, passed)`` pairs.

Functions are looked up on their modules at call time so that the tracer's
wrappers (see tracing.py) are seen.  Exact outputs of fixed-size parts are
compared with the digests in digests.json; seeded parts are checked by
invariants that do not depend on the implementation.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import random
from pathlib import Path

import mpmath as mp

import weilgap.analytic as analytic
import weilgap.characters as characters
import weilgap.matrices as matrices
import weilgap.multiplier as multiplier
import weilgap.presentation as presentation
import weilgap.series as series

DIGESTS = Path(__file__).with_name("digests.json")

SIZES = {
    "full": {
        "exact-presentation": {"p": 1009, "elements": 100, "q_max": 10, "pairs": 8},
        "converse-desk": {"levels": ((5, 2000), (11, 3000)), "tau_pairs": 20},
        "infinite-order": {"p": 29, "M": 2000, "c_factor": 40, "extract": 80,
                           "kloosterman_checks": 3, "product_checks": 5},
    },
    # all checks on, small enough for a smoke test
    "tiny": {
        "exact-presentation": {"p": 101, "elements": 10, "q_max": 5, "pairs": 3},
        "converse-desk": {"levels": ((5, 600), (11, 1200)), "tau_pairs": 5},
        "infinite-order": {"p": 29, "M": 1500, "c_factor": 4, "extract": 60,
                           "kloosterman_checks": 2, "product_checks": 2},
    },
}


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def expected_digest(key: str) -> str | None:
    return json.loads(DIGESTS.read_text()).get(key)


def _digest_check(key: str, obj) -> tuple[str, bool]:
    return f"digest {key}", digest(obj) == expected_digest(key)


def _close(a: complex, b: complex, scale: float) -> bool:
    return abs(a - b) <= 1e-9 * max(scale, 1.0)


# ---------------------------------------------------------------------------
# exact-presentation: presentation build, word decomposition, pretend solve


def exact_prepare(seed: int, size: dict) -> dict:
    rng = random.Random(seed)
    p, n = size["p"], size["elements"]
    elements = [presentation.random_gamma0_element(p, rng, 10**6) for _ in range(n)]
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(size["pairs"])]
    return {**size, "elements": elements, "pairs": pairs, "check_seed": rng.getrandbits(32)}


def exact_run(inputs: dict, tracer) -> dict:
    p = inputs["p"]
    gens = presentation.build_presentation(p)
    words = [presentation.decompose_gamma0(gens, g) for g in inputs["elements"]]
    chi = characters.DirichletChar(p, 2)
    cs = multiplier.pretend_constraints(p, gens, chi, inputs["q_max"])
    sol = multiplier.solve_pretend(cs, chi, gens)
    angles = [sol.upsilon.evaluate(g) for g in inputs["elements"]]
    return {"gens": gens, "words": words, "cs": cs, "sol": sol, "angles": angles}


def exact_check(inputs: dict, out: dict) -> list[tuple[str, bool]]:
    p, gens, ups = inputs["p"], out["gens"], out["sol"].upsilon
    checks = [
        _digest_check(f"gens:p={p}", gens.to_json()),
        _digest_check(f"upsilon:p={p},chi=2,q_max={inputs['q_max']}", ups.to_json()),
        ("signature", gens.signature == presentation.rademacher_signature(p)),
        ("infinite order", ups.has_infinite_order()),
    ]
    for gamma, word in zip(inputs["elements"], out["words"]):
        value = word.evaluate(gens)
        checks.append(("word re-multiplies", value == (gamma if word.sign == 1 else -gamma)))
    for i, j in inputs["pairs"]:
        g1, g2 = inputs["elements"][i], inputs["elements"][j]
        want = (out["angles"][i] + out["angles"][j]).mod1()
        checks.append(("homomorphism", ups.evaluate(g1 * g2) == want))
    rng = random.Random(inputs["check_seed"])
    for row in out["cs"].rows:
        if row.a is None:
            continue
        _, B0, _ = multiplier.constraint_matrix(p, row.a, row.q)
        lifted, _, _ = multiplier.constraint_matrix(p, row.a, row.q, B0 + rng.randint(1, 4) * row.q)
        checks.append((f"row {row.tag} on a fresh lift", ups.evaluate(lifted) == row.target.mod1()))
    return checks


# ---------------------------------------------------------------------------
# converse-desk: Delta(z)Delta(pz), additive FE, certificate, multiplicative FE


def converse_prepare(seed: int, size: dict) -> dict:
    rng = random.Random(seed)
    # one corrupted low coefficient a_m, p < m <= 2p, per level
    corrupt = {p: rng.randint(p + 1, 2 * p) for p, _ in size["levels"]}
    m_max = max(M for _, M in size["levels"])
    tau_pairs = []
    while len(tau_pairs) < size["tau_pairs"]:
        m = rng.randint(2, math.isqrt(m_max))
        n = rng.randint(2, m_max // m)
        if math.gcd(m, n) == 1:
            tau_pairs.append((m, n))
    return {**size, "corrupt": corrupt, "tau_pairs": tau_pairs}


def converse_run(inputs: dict, tracer) -> dict:
    levels = {}
    for p, M in inputs["levels"]:
        f, g = series.delta_delta_p(p, M)
        gens = presentation.build_presentation(p)
        reports = {
            q: analytic.check_fe_additive(f, g, p, 24, analytic.fe_for_q(p, 24, q, 1.0), tolerance=1e-6)
            for q in sorted(presentation.compute_Q(p, gens))
        }
        cert = analytic.certify_modularity(f, g, p, 24, None, tolerance=1e-6, gens=gens)
        m = inputs["corrupt"][p]
        corrupted = f.copy_with(
            coeffs=[c + (1 if i == m - 1 else 0) for i, c in enumerate(f.coeffs)], exact=None
        )
        cert_bad = analytic.certify_modularity(corrupted, g, p, 24, None, tolerance=1e-6, gens=gens)
        levels[p] = {"f": f, "g": g, "reports": reports, "cert": cert, "cert_bad": cert_bad}
    psi = next(c for c in characters.primitive_characters(3) if not c.is_trivial())
    mult = analytic.check_fe_multiplicative(
        levels[11]["f"], levels[11]["g"], 11, 24, 1.0, psi, s_samples=[12 + 0j], tolerance=1e-6
    )
    return {"levels": levels, "mult": mult}


def converse_check(inputs: dict, out: dict) -> list[tuple[str, bool]]:
    m_max = max(M for _, M in inputs["levels"])
    tau = series.delta_coeffs(m_max).exact
    checks = [_digest_check(f"tau:M={m_max}", tau)]
    for m, n in inputs["tau_pairs"]:
        checks.append(("tau multiplicative", tau[m * n - 1] == tau[m - 1] * tau[n - 1]))
    for p, M in inputs["levels"]:
        level = out["levels"][p]
        checks.append(_digest_check(f"delta_delta_p:p={p},M={M}", level["f"].exact))
        for q, rep in level["reports"].items():
            checks.append((f"additive FE p={p} q={q}", rep.verdict and rep.max_relative_defect() < 1e-6))
        checks.append((f"certificate p={p}", level["cert"].verdict))
        checks.append((f"corrupted a_{inputs['corrupt'][p]} fails p={p}", not level["cert_bad"].verdict))
    checks.append(("multiplicative FE p=11 psi mod 3", out["mult"].verdict))
    return checks


def _fe_reports(out: dict) -> list:
    if "levels" in out:
        reports = [r for level in out["levels"].values() for r in level["reports"].values()]
        return reports + list(out["mult"].additive_reports)
    return [out["fe"]] if "fe" in out else []


# ---------------------------------------------------------------------------
# infinite-order: criterion 10's non-gating experiment, run as a real job


def infinite_prepare(seed: int, size: dict) -> dict:
    rng = random.Random(seed)
    p = size["p"]
    # moduli c <= 10p keep the term-by-term oracle cheap
    kloosterman = [
        (rng.randint(1, size["M"]), p * rng.randint(1, min(10, size["c_factor"])))
        for _ in range(size["kloosterman_checks"])
    ]
    products = [rng.randint(1, size["M"]) for _ in range(size["product_checks"])]
    return {**size, "kloosterman": kloosterman, "products": products}


def infinite_run(inputs: dict, tracer) -> dict:
    p, M = inputs["p"], inputs["M"]
    gens = presentation.build_presentation(p)
    chi = characters.DirichletChar(p, 0)
    cs = multiplier.pretend_constraints(p, gens, chi, 1, verify_b_dependence=False)
    sol = multiplier.solve_pretend(cs, chi, gens)
    eis = series.eisenstein_multiplier_coeffs(p, sol.upsilon, 4, M=M, c_max=inputs["c_factor"] * p)
    delta = series.delta_coeffs(M)
    f = series.multiply(eis, delta).copy_with(label="eis_delta", level=p, sigma=9.0)

    # f|W_p is 1-periodic because upsilon(T S^p T^-1) = 1; evaluate at the
    # representative with |Re z| <= 1/2, where the dual height is largest
    y_ext = 0.16
    base = series.slash_evaluator(series.series_evaluator(f), 16, matrices.FrickeMat(p))

    def evaluator(z):
        tracer.record_max("series.coeffs_via_fourier_extraction.dps", mp.mp.dps)
        tracer.count("series.coeffs_via_fourier_extraction.horner_terms", f.M)
        z = mp.mpc(z)
        return tracer.call("series.series_evaluator.evaluate", base, mp.mpc(z.real - mp.nint(z.real), z.imag))

    h_worst = y_ext / (p * (0.25 + y_ext**2))
    eval_err = f.tail_bound(h_worst) * float((math.sqrt(p) * math.hypot(0.5, y_ext)) ** (-16.0))
    extracted = series.coeffs_via_fourier_extraction(
        evaluator, 16, y_ext, inputs["extract"], label="eis_delta_fricke", level=p,
        growth_c=max(f.growth_c, 1.0), growth_sigma=9.0, eval_error=min(eval_err, 1e-10),
    )
    g = extracted.copy_with(sigma=9.0)
    # non-gating, as in criterion 10: 5e-2 is the level the c_max truncation allows
    fe = analytic.check_fe_additive(
        f, g, p, 16, analytic.fe_for_q(p, 16, 1, 1.0),
        s_samples=[8 + 0j, 9.5 + 0j], tolerance=5e-2, with_lambda=False,
    )
    return {"sol": sol, "eis": eis, "delta": delta, "f": f, "extracted": extracted, "fe": fe}


def infinite_check(inputs: dict, out: dict) -> list[tuple[str, bool]]:
    p, ups, eis, delta, f = inputs["p"], out["sol"].upsilon, out["eis"], out["delta"], out["f"]
    checks = [
        _digest_check("upsilon:p=29,chi=0,q_max=1", ups.to_json()),
        _digest_check(f"tau:M={inputs['M']}", delta.exact),
        ("infinite order", ups.has_infinite_order()),
        ("extracted coefficients finite", all(cmath.isfinite(c) for c in out["extracted"].coeffs)),
        ("FE defects finite", all(math.isfinite(s.relative) for s in out["fe"].samples)),
    ]
    # S_ups(m, c) against the term-by-term sum over upsilon(lift_bottom_row(c, d))
    for m, c in inputs["kloosterman"]:
        fast = series.twisted_kloosterman(p, ups, m, c).value
        slow = sum(
            ups.value(series.lift_bottom_row(c, d)).conjugate() * cmath.exp(2j * cmath.pi * m * d / c)
            for d in range(1, c + 1)
            if math.gcd(d, c) == 1
        )
        checks.append((f"S_ups({m}, {c}) oracle", _close(fast, slow, c)))
    # the float product against its convolution, term by term
    for m in inputs["products"]:
        terms = [eis.a(i) * delta.a(m - i) for i in range(0, m)] + [eis.a(m) * delta.a0]
        scale = sum(abs(t) for t in terms)
        checks.append((f"(E*Delta)_{m}", _close(f.a(m), sum(terms), scale)))
    return checks


# ---------------------------------------------------------------------------


def fe_defect(out: dict) -> float:
    """Worst gating relative defect of the job's FE checks; 0 if it has none."""
    defects = [s.relative for r in _fe_reports(out) for s in r.samples]
    if "mult" in out:
        defects += [s["residual"] for s in out["mult"].samples]
    return max(defects, default=0.0)


def error_budget(out: dict) -> dict:
    """The error budget read from the returned objects, not from their JSON."""
    reports = _fe_reports(out)
    samples = [s for r in reports for s in r.samples]
    truncations = [m.truncation for r in reports for m in r.modular_points]
    for level in out.get("levels", {}).values():
        truncations += [c.truncation for c in level["cert"].checks]
    budget = {
        "analytic.relative_defect_max": max((s.relative for s in samples), default=0.0),
        "analytic.window_error_max": max((s.window_error / s.scale for s in samples), default=0.0),
        "analytic.quadrature_error_max": max((s.quadrature_error / s.scale for s in samples), default=0.0),
        "analytic.truncation_max": max(truncations, default=0.0),
    }
    if "eis" in out:
        budget["series.eisenstein_multiplier_coeffs.error_bound"] = out["eis"].error_bound
    if "extracted" in out:
        budget["series.coeffs_via_fourier_extraction.error_bound"] = max(out["extracted"].per_coeff_error)
    return budget


WORKLOADS = {
    "exact-presentation": (exact_prepare, exact_run, exact_check),
    "converse-desk": (converse_prepare, converse_run, converse_check),
    "infinite-order": (infinite_prepare, infinite_run, infinite_check),
}
