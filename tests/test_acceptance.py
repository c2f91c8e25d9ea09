"""Acceptance battery: eleven end-to-end criteria, one pass/fail line each.

Each criterion's test prints exactly one line naming the criterion and its
verdict, then asserts it; criterion 4 has two more tests, which count its
validations and tie its numeric certificates to the work ledger. Tolerances
and workload sizes are part of the contract and are not adjustable here.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np

from orliczkit import (
    FAILS,
    HOLDS,
    MeasureSpace,
    OrliczFunction,
    Rv,
    average_value_at_risk,
    biconjugate_check,
    classify_space,
    conjugate,
    conjugate_value,
    entropic,
    expectation,
    extract_ae_subsequence,
    fatou_check,
    fenchel_conjugate_value,
    generate_sequence,
    increasing_catalog,
    luxemburg_norm,
    non_lsc_control,
    reconstruct,
    strictly_positive_witness,
    uniform_probability,
    zeros,
)
from orliczkit.cli import main

POWER2 = OrliczFunction.power(2.0)
PSI2 = conjugate(POWER2)
WORK_LEDGER = Path(__file__).resolve().parent.parent / "ci" / "work.json"


def _report(num: int, label: str, ok: bool, detail: str = "") -> bool:
    line = f"criterion {num:2d} [{label}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(line, flush=True)
    return ok


def test_criterion_01_norm_oracle_agreement():
    rng = np.random.default_rng(1001)
    worst = 0.0
    start = time.perf_counter()
    for case in range(200):
        p = (1.5, 2.0, 3.0)[case % 3]
        space = MeasureSpace.finite(rng.uniform(0.1, 2.0, 20))
        f = Rv(space, rng.normal(0.0, 3.0, 20))
        ref = float(np.dot(space.weights, np.abs(f.values) ** p) ** (1.0 / p))
        got = luxemburg_norm(f, OrliczFunction.power(p)).value
        worst = max(worst, abs(got - ref) / (1.0 + ref))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 1.0
    assert _report(1, "norm oracle agreement", ok,
                   f"worst rel err {worst:.2e}, {elapsed:.2f}s / 200 cases")


def test_criterion_02_conjugate_pair_roundtrip():
    grid = np.linspace(0.0, 10.0, 50)
    worst = 0.0
    for p in (1.5, 2.0, 3.0):
        q = p / (p - 1.0)
        phi = OrliczFunction.scaled_power(p)  # t^p / p
        for s in grid:
            analytic = float(s) ** q / q
            worst = max(worst, abs(conjugate_value(phi, float(s)) - analytic))
    step_dual = conjugate(OrliczFunction.linf_step())
    identity_exact = all(step_dual(float(s)) == float(s) for s in grid)
    ok = worst <= 1e-6 and identity_exact
    assert _report(2, "conjugate pair roundtrip", ok,
                   f"max abs err {worst:.2e}, step dual identity "
                   f"{'exact' if identity_exact else 'broken'}")


def test_criterion_03_young_inequality_sweep():
    catalog = (OrliczFunction.power(2.0), OrliczFunction.scaled_power(3.0),
               OrliczFunction.linear(), OrliczFunction.exp_young(),
               OrliczFunction.linf_step())
    rng = np.random.default_rng(1003)
    violations = 0
    for phi in catalog:
        psi = conjugate(phi)
        ts = rng.uniform(0.0, 20.0, 10_000)
        ss = rng.uniform(0.0, 20.0, 10_000)
        lhs = ts * ss
        rhs = phi.values(ts) + psi.values(ss)
        violations += int(np.sum(lhs > rhs + 1e-9))
    ok = violations == 0
    assert _report(3, "Young inequality sweep", ok,
                   f"{violations} violations in 5 x 10^4 pairs")


def _entropic_representations() -> tuple[float, float, float]:
    """Criterion 4's certificates: the worst closed-form and numeric gaps,
    and the seconds its 50 cases took."""
    rng = np.random.default_rng(1004)
    betas = (0.5, 1.0, 2.0)
    worst_closed = 0.0
    worst_numeric = 0.0
    start = time.perf_counter()
    for case in range(50):
        beta = betas[case % 3]
        n = int(rng.integers(3, 9))
        space = uniform_probability(n)
        functional = entropic(beta, space)
        f = Rv(space, rng.normal(0.0, 1.5, n))
        _, cert = reconstruct(functional, f, PSI2, seed=case,
                              validation_trials=40)
        worst_closed = max(worst_closed, abs(cert.gap))
        _, cert = reconstruct(functional, f, PSI2, seed=case, restarts=2,
                              force_numeric=True, validation_trials=40)
        worst_numeric = max(worst_numeric, abs(cert.gap))
    elapsed = time.perf_counter() - start
    # a larger instance per beta, closed-form certificate only
    for beta in betas:
        space = uniform_probability(50)
        f = Rv(space, rng.normal(0.0, 1.0, 50))
        _, cert = reconstruct(entropic(beta, space), f, PSI2, seed=1,
                              validation_trials=40)
        worst_closed = max(worst_closed, abs(cert.gap))
    return worst_closed, worst_numeric, elapsed


def test_criterion_04_entropic_representation():
    worst_closed, worst_numeric, elapsed = _entropic_representations()
    ok = worst_closed <= 1e-6 and worst_numeric <= 1e-4 and elapsed < 5.0
    assert _report(4, "entropic representation", ok,
                   f"closed gap {worst_closed:.2e}, numeric gap "
                   f"{worst_numeric:.2e}, {elapsed:.2f}s / 50 cases")


def test_criterion_04_validates_each_functional_once(validations):
    # each of the 50 cases certifies one functional twice, closed and
    # numeric, with one seed and 40 trials, and the 3 large cases once
    # each: one validation per functional object, 53 in all
    _entropic_representations()
    assert len(validations) == len(set(map(id, validations))) == 53


def test_criterion_04_numeric_certificates_are_the_work_ledger(monkeypatch):
    # ci/work.py's criterion_4() replays the 50 numeric certificates; their
    # evaluations must sum to its ledger row, or the copy has drifted
    numeric = []
    certify = reconstruct

    def counted(*args, **kwargs):
        value, cert = certify(*args, **kwargs)
        if kwargs.get("force_numeric"):
            numeric.append(cert.evaluations)
        return value, cert

    monkeypatch.setitem(globals(), "reconstruct", counted)
    _entropic_representations()
    with open(WORK_LEDGER, encoding="utf-8") as fh:
        ledger = json.load(fh)
    assert len(numeric) == 50
    assert sum(numeric) == ledger["criterion_4.certificates.evaluations"]


def _avar_vertex_oracle(f: np.ndarray, w: np.ndarray, alpha: float) -> float:
    """Enumerate the vertices of {0 <= m <= w/alpha, sum m = 1}, maximize."""
    n = len(f)
    caps = w / alpha
    best = -math.inf
    for j in range(n):
        others = [i for i in range(n) if i != j]
        for bits in itertools.product((0, 1), repeat=n - 1):
            mass = sum(caps[i] for i, b in zip(others, bits) if b)
            rem = 1.0 - mass
            if -1e-12 <= rem <= caps[j] + 1e-12:
                val = sum(f[i] * caps[i] for i, b in zip(others, bits) if b)
                val += f[j] * min(max(rem, 0.0), caps[j])
                best = max(best, val)
    return best


def test_criterion_05_avar_versus_vertex_enumeration():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for case in range(100):
        n = int(rng.integers(2, 7))
        raw = rng.uniform(0.2, 1.0, n)
        weights = raw / raw.sum()
        space = MeasureSpace.finite(weights)
        f = rng.normal(0.0, 2.0, n)
        for alpha in (0.25, 0.5, 0.75):
            got = average_value_at_risk(alpha, space).evaluate(Rv(space, f))
            ref = _avar_vertex_oracle(f, weights, alpha)
            worst = max(worst, abs(got - ref))
    ok = worst <= 1e-10
    assert _report(5, "AVaR vertex-enumeration oracle", ok,
                   f"max |greedy - LP| {worst:.2e} over 300 programs")


def _feasible_density(name: str, space, rng) -> np.ndarray:
    if name.startswith("expectation"):
        return np.ones(space.n_atoms)
    raw = np.abs(rng.normal(0.0, 1.0, space.n_atoms)) + 0.05
    g = raw / float(np.dot(space.weights, raw))
    if name.startswith("average_value_at_risk"):
        cap = 2.0  # alpha = 0.5 in the catalog
        peak = float(np.max(g))
        if peak > cap:
            t = (cap - 1.0) / (peak - 1.0)
            g = t * g + (1.0 - t) * np.ones(space.n_atoms)
    return g


def test_criterion_06_dual_positivity():
    space = uniform_probability(6)
    rng = np.random.default_rng(1006)
    misclassified = 0
    for functional in increasing_catalog(space):
        for _ in range(50):
            g = _feasible_density(functional.name, space, rng)
            dip = int(rng.integers(0, 6))
            g_neg = g.copy()
            g_neg[dip] = -float(rng.uniform(0.1, 1.0))
            # the closed form reads +inf, and the numeric conjugate's ray
            # probes stop on -e_dip
            est = fenchel_conjugate_value(functional, Rv(space, g_neg))
            ray = fenchel_conjugate_value(functional, Rv(space, g_neg),
                                          restarts=2, force_numeric=True)
            if (est.value != math.inf or ray.stop_reason != "ray"
                    or not np.array_equal(ray.diverged_ray.values,
                                          -np.eye(6)[dip])):
                misclassified += 1
            est = fenchel_conjugate_value(functional, Rv(space, g))
            if not math.isfinite(est.value):
                misclassified += 1
    ok = misclassified == 0
    assert _report(6, "dual positivity", ok,
                   f"{misclassified} misclassifications in 4 x (50 + 50)")


def test_criterion_07_fatou_condition():
    space = uniform_probability(4)
    rng = np.random.default_rng(1007)
    modes = ("norm_convergent", "ae_only_traveling_spike", "order_convergent")
    per_mode = {}
    for m_idx, mode in enumerate(modes):
        fams = []
        for k in range(100):
            base = Rv(space, rng.normal(0.0, 1.0, 4))
            fams.append(generate_sequence(space, POWER2, base, mode,
                                          length=24, seed=7000 + 97 * m_idx + k))
        per_mode[mode] = fams
    violations = 0
    for functional in increasing_catalog(space):
        for mode in modes:
            report = fatou_check(functional, per_mode[mode], tol=1e-9)
            violations += report.violation_count

    base = Rv(space, rng.normal(0.0, 1.0, 4))
    control = non_lsc_control(expectation(space), base)
    fam = generate_sequence(space, POWER2, base, "norm_convergent",
                            length=24, seed=7999)
    caught = fatou_check(control, [fam], tol=1e-9)
    control_ok = (caught.violation_count == 1
                  and caught.rows[caught.worst_family_index].violation
                  and caught.worst_margin > 0.5)
    ok = violations == 0 and control_ok
    assert _report(7, "Fatou condition", ok,
                   f"{violations} violations in 1200 families; control "
                   f"{'caught' if control_ok else 'missed'}")


def test_criterion_08_subsequence_extraction():
    n = 1024
    space = uniform_probability(n, truncated=True)
    g0 = strictly_positive_witness(space, PSI2)
    f0 = strictly_positive_witness(space, POWER2)
    rng = np.random.default_rng(1008)

    f = Rv(space, rng.normal(0.0, 1.0, n))
    norm_fam = generate_sequence(space, POWER2, f, "norm_convergent",
                                 length=48, seed=8001)
    spike_fam = generate_sequence(space, POWER2, zeros(space),
                                  "ae_only_traveling_spike", length=n + 64,
                                  seed=8002)
    ok = True
    details = []
    for fam in (norm_fam, spike_fam):
        res = extract_ae_subsequence(fam, fam.limit, g0, f0)
        trace_ok = all(t <= 2.0 ** -(m - 1) + 1e-12
                       for m, t in enumerate(res.trace, start=1))
        ok = ok and res.status == "ok" and trace_ok and res.pointwise_ok
        details.append(f"{fam.mode}: {res.status}, {len(res.indices)} picks")
    assert _report(8, "subsequence extraction", ok, "; ".join(details))


def test_criterion_09_biconjugation():
    space = uniform_probability(3)
    functional = entropic(1.0, space)
    rng = np.random.default_rng(1009)
    probes = [Rv(space, rng.normal(0.0, 1.5, 3)) for _ in range(100)]
    report = biconjugate_check(functional, probes, seed=9, restarts=2)
    ok = report.max_deviation <= 1e-5 and report.max_split <= 1e-6
    assert _report(9, "biconjugation", ok,
                   f"max |phi** - phi| {report.max_deviation:.2e}, "
                   f"restricted/unrestricted split {report.max_split:.2e}")


def test_criterion_10_classification():
    reflexive = classify_space(POWER2, finite_measure=True).reflexive
    step = classify_space(OrliczFunction.linf_step(),
                          finite_measure=True).reflexive
    exp = classify_space(OrliczFunction.exp_young(),
                         finite_measure=True).reflexive
    ok = reflexive == HOLDS and step == FAILS and exp == FAILS
    assert _report(10, "classification verdicts", ok,
                   f"power2 {reflexive}, step {step}, exp {exp}")


def test_criterion_11_determinism(capsys):
    code1 = main(["verify-all", "--seed", "7"])
    out1 = capsys.readouterr().out
    code2 = main(["verify-all", "--seed", "7"])
    out2 = capsys.readouterr().out
    ok = out1 == out2 and code1 == code2 == 0
    assert _report(11, "report determinism", ok,
                   f"{len(out1)} bytes, runs "
                   f"{'identical' if out1 == out2 else 'differ'}")
