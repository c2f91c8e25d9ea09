"""Command line interface.

Exit codes: 0 success, 2 parse/usage error, 3 numeric failure, 4 hypothesis
refusal (an ``errors.Refusal``: slope condition, validation, hull
membership), 5 property violation (gap above tolerance, Fatou violation,
failed verify-all rows). Any other exception is a bug and surfaces as a
traceback. Reports are deterministic: same inputs, same seed, same bytes.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .convergence import (SequenceFamily, closure_demo,
                          extract_ae_subsequence, fatou_check,
                          generate_sequence, non_lsc_control)
from .duality import (biconjugate_check, fenchel_conjugate_value,
                      positivity_evidence, reconstruct)
from .errors import NumericFailure, ParseError, Refusal
from .io import read_rv, read_space, read_stacked_rvs, render_record, render_table
from .measure import (DEFAULT_TRUNCATION, MeasureSpace, Rv,
                      strictly_positive_witness, uniform_probability, zeros)
from .norms import amemiya_norm, luxemburg_norm
from .orlicz import (FAILS, HOLDS, OrliczFunction, classify_space, conjugate,
                     conjugate_value)
from .risk import entropic, increasing_catalog, validate
from .specs import parse_orlicz_spec, parse_risk_spec

_GENERATOR_MODES = ("norm_convergent", "ae_only_traveling_spike",
                    "order_convergent")


def _tol(args, default: float) -> float:
    """The check's built-in tolerance, unless ``--tol`` overrides it; zero
    runs checks in diagnostic mode (failures at tolerance zero are flagged
    as tolerance-induced when they would pass at the built-in default)."""
    return default if args.tol is None else args.tol


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_norm(args) -> int:
    space = read_space(args.space)
    f = read_rv(args.rv, space)
    phi = parse_orlicz_spec(args.orlicz)
    lux = luxemburg_norm(f, phi)
    ame = amemiya_norm(f, phi)
    # both norms are resolved to about 1e-10 relative, so the slack scales
    # with their size above 1; an infinite norm needs none, and --tol 0
    # times an infinite size would read nan
    size = max(1.0, lux.value, ame.value)
    slack = _tol(args, 1e-9) * size if math.isfinite(size) else 0.0
    sandwich = (lux.value <= ame.value + slack
                and ame.value <= 2.0 * lux.value + slack)
    record = {
        "command": "norm",
        "orlicz": args.orlicz,
        "luxemburg": lux.value,
        "amemiya": ame.value,
        "sandwich_ok": sandwich,
        "luxemburg_modular": lux.modular_at_value,
        "luxemburg_iterations": lux.iterations,
        "amemiya_iterations": ame.iterations,
    }
    sys.stdout.write(render_record(record, args.format))
    return 0


def _cmd_conjugate(args) -> int:
    phi = parse_orlicz_spec(args.orlicz)
    psi = conjugate(phi)
    grid = np.linspace(0.0, args.grid_max, args.grid_count)
    values = psi.values(grid)
    sys.stdout.write(render_table({"s": [float(s) for s in grid],
                                   "conjugate": [float(v) for v in values]},
                                  args.format))
    return 0


def _cmd_classify(args) -> int:
    phi = parse_orlicz_spec(args.orlicz)
    cls = classify_space(phi, finite_measure=(args.measure == "finite"))
    record = {
        "command": "classify",
        "orlicz": args.orlicz,
        "measure": args.measure,
        "reflexive": cls.reflexive,
        "order_continuous": cls.order_continuous,
        "c_property_for_sigma_n": cls.c_property_for_sigma_n,
    }
    for verdict in cls.phi_delta2:
        record[f"phi_delta2_{verdict.regime}"] = verdict.status
    for verdict in cls.conjugate_delta2:
        record[f"conjugate_delta2_{verdict.regime}"] = verdict.status
    sys.stdout.write(render_record(record, args.format))
    return 0


def _cmd_represent(args) -> int:
    space = read_space(args.space)
    f = read_rv(args.rv, space)
    phi_young = parse_orlicz_spec(args.orlicz)
    functional = parse_risk_spec(args.risk, space)
    value, cert = reconstruct(functional, f, conjugate(phi_young),
                              seed=args.seed)
    gap_tol = _tol(args, 1e-6)
    record = {
        "command": "represent",
        "risk": args.risk,
        "orlicz": args.orlicz,
        "value": value,
        "primal": functional.evaluate(f),
        "gap": cert.gap,
        "gap_tol": gap_tol,
        "conjugate_value": cert.conjugate_value,
        "g": [float(x) for x in cert.g.values],
        "nonnegative_ok": cert.nonnegative_ok,
        "heart_ok": cert.heart_ok,
        "heart_vacuous": cert.heart_vacuous,
        "start_index": cert.start_index,
        "sweeps": cert.sweeps,
    }
    sys.stdout.write(render_record(record, args.format))
    return 0 if cert.gap <= gap_tol else 5


def _cmd_fatou_test(args) -> int:
    space = read_space(args.space)
    phi_young = parse_orlicz_spec(args.orlicz)
    functional = parse_risk_spec(args.risk, space)
    f = read_rv(args.rv, space) if args.rv else zeros(space)
    modes = _GENERATOR_MODES if args.mode == "all" else (args.mode,)
    tol = _tol(args, 1e-9)
    families = [generate_sequence(space, phi_young, f, mode,
                                  length=args.length,
                                  seed=args.seed + 9973 * m_idx + k)
                for m_idx, mode in enumerate(modes) for k in range(args.count)]
    report = fatou_check(functional, families, tol=tol)
    worst = report.rows[report.worst_family_index]
    record = {
        "command": "fatou-test",
        "risk": args.risk,
        "orlicz": args.orlicz,
        "modes": list(modes),
        "families": len(families),
        "tol": tol,
        "violations": report.violation_count,
        "worst_margin": report.worst_margin,
        "worst_family_index": report.worst_family_index,
        "worst_mode": worst.mode,
    }
    sys.stdout.write(render_record(record, args.format))
    return 0 if report.violation_count == 0 else 5


def _witnesses(space: MeasureSpace, phi_young: OrliczFunction):
    psi = conjugate(phi_young)
    g0 = strictly_positive_witness(space, psi)
    f0 = strictly_positive_witness(space, phi_young)
    return g0, f0


def _cmd_extract_subseq(args) -> int:
    space = read_space(args.space)
    phi_young = parse_orlicz_spec(args.orlicz)
    f = read_rv(args.rv, space)
    terms = read_stacked_rvs(args.family, space)
    family = SequenceFamily.from_terms(terms, f, phi_young)
    g0, f0 = _witnesses(space, phi_young)
    res = extract_ae_subsequence(family, f, g0, f0, ae_tol=_tol(args, 1e-8))
    record = {
        "command": "extract-subseq",
        "orlicz": args.orlicz,
        "status": res.status,
        "picks": len(res.indices),
        "indices": list(res.indices),
        "stalled_at": res.stalled_at,
        "trace_bound_ok": res.trace_bound_ok,
        "trace_margin": res.trace_margin,
        "pointwise_converged": res.pointwise_ok,
    }
    sys.stdout.write(render_record(record, args.format))
    ok = res.status == "ok" and res.trace_bound_ok and res.pointwise_ok
    return 0 if ok else 5


def _cmd_closure_demo(args) -> int:
    space = read_space(args.space)
    phi_young = parse_orlicz_spec(args.orlicz)
    f = read_rv(args.rv, space)
    vertices = read_stacked_rvs(args.vertices, space)
    report = closure_demo(vertices, f, phi_young, hull_tol=_tol(args, 1e-9),
                          length=args.length)
    g0, f0 = _witnesses(space, phi_young)
    extraction = extract_ae_subsequence(report.family, report.projection,
                                        g0, f0)
    pointwise_ok = extraction.pointwise_ok
    record = {
        "command": "closure-demo",
        "orlicz": args.orlicz,
        "distance_euclid": report.distance_euclid,
        "distance_lux": report.distance_lux,
        "hull_weights": list(report.weights),
        "envelope_ok": report.envelope_ok,
        "sweeps": report.sweeps,
        "vertex_shortcut": report.vertex_shortcut,
        "extraction_status": extraction.status,
        "extraction_trace_ok": extraction.trace_bound_ok,
        "extraction_pointwise": pointwise_ok,
    }
    sys.stdout.write(render_record(record, args.format))
    ok = (report.envelope_ok and extraction.trace_bound_ok and pointwise_ok)
    return 0 if ok else 5


# ---------------------------------------------------------------------------
# verify-all battery
# ---------------------------------------------------------------------------


def run_battery(args) -> list[dict]:
    """The verify-all rows; deterministic given ``--seed``, ``--truncation``
    and ``--tol``."""
    rows: list[dict] = []

    def row(label: str, margin: float, default_tol: float,
            detail: str) -> None:
        tol = _tol(args, default_tol)
        passed = margin <= tol
        rows.append({
            "label": label,
            "passed": passed,
            "margin": float(margin),
            "tol": tol,
            "tolerance_induced": bool((not passed) and margin <= default_tol),
            "detail": detail,
        })

    sp3 = uniform_probability(3)
    sp_small = uniform_probability(4)
    power2 = OrliczFunction.power(2.0)
    psi2 = conjugate(power2)
    catalog = increasing_catalog(sp_small, beta=1.0, alpha=0.5)
    _, avar4, _, exp4 = catalog
    ent3 = entropic(1.0, sp3)

    # properties of the catalog functionals themselves
    failing = [c.name for c in catalog
               if not validate(c, trials=60, seed=args.seed).all_ok]
    row("validate_catalog", float(len(failing)), 0.0,
        "all increasing catalog members pass validate"
        if not failing else "failing: " + ",".join(failing))

    # Luxemburg norm against the analytic weighted 2-norm
    rng = np.random.default_rng([args.seed, 1])
    wspace = MeasureSpace.finite(rng.uniform(0.2, 2.0, 6))
    margin = 0.0
    for _ in range(20):
        v = rng.normal(0.0, 3.0, 6)
        pnorm = float(np.sqrt(np.dot(wspace.weights, v * v)))
        err = abs(luxemburg_norm(Rv(wspace, v), power2).value - pnorm)
        margin = max(margin, err / (1.0 + pnorm))
    row("norm_power2_oracle", margin, 1e-8,
        "luxemburg vs analytic weighted 2-norm, 20 draws")

    # numeric conjugate against the analytic conjugate pair
    sp_phi = OrliczFunction.scaled_power(2.0)
    margin = max(abs(conjugate_value(sp_phi, s) - 0.5 * s * s)
                 for s in np.linspace(0.0, 10.0, 12))
    row("conjugate_roundtrip", margin, 1e-6,
        "numeric vs analytic conjugate of t^2/2 on [0,10]")

    # Young's inequality sweep; each row of the draws is one (t, s) pair, in
    # the generator's order
    rng = np.random.default_rng([args.seed, 2])
    violations = 0
    young = (power2, sp_phi, OrliczFunction.linear(),
             OrliczFunction.exp_young(), OrliczFunction.linf_step())
    for phi in young:
        t, s = rng.uniform(0.0, 5.0, (400, 2)).T
        violations += int(np.count_nonzero(
            t * s > phi.values(t) + conjugate(phi).values(s) + 1e-9))
    row("young_inequality", float(violations), 0.0,
        f"{400 * len(young)} (t,s) pairs across the catalog")

    # dual representation certificates: closed forms and a numeric solve;
    # closed forms never read ``restarts``
    rng = np.random.default_rng([args.seed, 3])
    certificates = (
        ("represent_entropic_closed", entropic(1.0, uniform_probability(6)),
         8, 1.5, False, 1e-6, "Gibbs-maximizer certificates, 8 draws, n=6"),
        ("represent_entropic_numeric", ent3, 4, 1.5, True, 1e-4,
         "mass-multiplier solve, 4 draws, n=3"),
        ("represent_expectation_exact", exp4, 1, 1.0, False, 1e-12,
         "certificate g = 1 is exact"),
        ("represent_avar_closed", avar4, 6, 2.0, False, 1e-10,
         "greedy tail-density certificates, 6 draws"),
    )
    for label, functional, draws, scale, numeric, tol, detail in certificates:
        space = functional.space
        margin = 0.0
        for _ in range(draws):
            f = Rv(space, rng.normal(0.0, scale, space.n_atoms))
            _, cert = reconstruct(functional, f, psi2, seed=args.seed,
                                  restarts=2, force_numeric=numeric,
                                  validation_trials=40)
            margin = max(margin, abs(cert.gap))
        row(label, margin, tol, detail)

    # dual positivity, both directions; each functional's own maximizer is a
    # feasible dual, and a negative dip must diverge with evidence
    rng = np.random.default_rng([args.seed, 4])
    mis_neg = 0
    mis_pos = 0
    for functional in catalog:
        for _ in range(8):
            g = functional.closed_form_maximizer(
                Rv(sp_small, rng.normal(0.0, 1.5, 4)))
            dipped = g.values.copy()
            dipped[int(rng.integers(0, 4))] = -0.5
            g_neg = Rv(sp_small, dipped)
            est = fenchel_conjugate_value(functional, g_neg, seed=args.seed,
                                          restarts=2, force_numeric=True)
            mis_neg += (est.value != math.inf
                        or not positivity_evidence(functional,
                                                   g_neg).divergent)
            est = fenchel_conjugate_value(functional, g, seed=args.seed,
                                          restarts=2, force_numeric=True)
            mis_pos += not math.isfinite(est.value)
    row("dual_positivity_negative", float(mis_neg), 0.0,
        "negative-dip duals diverge with evidence, 8 draws x 4 functionals")
    row("dual_positivity_feasible", float(mis_pos), 0.0,
        "feasible duals stay finite, 8 draws x 4 functionals")

    # Fatou condition across generator modes, plus the non-lsc control
    rng = np.random.default_rng([args.seed, 5])
    base = Rv(sp_small, rng.normal(0.0, 1.0, 4))
    families = [generate_sequence(sp_small, power2, base, mode, length=24,
                                  seed=args.seed + 31 * m_idx + k)
                for m_idx, mode in enumerate(_GENERATOR_MODES)
                for k in range(6)]
    reports = [fatou_check(c, families, tol=_tol(args, 1e-9)) for c in catalog]
    row("fatou_catalog", max(r.worst_margin for r in reports), 1e-9,
        f"{len(families)} families x 4 functionals, "
        f"{sum(r.violation_count for r in reports)} violations")

    control = non_lsc_control(exp4, base)
    ctrl_margin = fatou_check(control, families,
                              tol=_tol(args, 1e-9)).worst_margin
    row("fatou_control_caught", max(0.0, 0.5 - ctrl_margin), 0.0,
        f"non-lsc control worst margin {ctrl_margin!r}")

    # subsequence extraction on the truncated space
    big = uniform_probability(args.truncation, truncated=True)
    limit = zeros(big)
    fam = generate_sequence(big, power2, limit, "ae_only_traveling_spike",
                            length=args.truncation + 64, seed=args.seed)
    res = extract_ae_subsequence(fam, limit, *_witnesses(big, power2))
    penalty = 0.0 if (res.status == "ok" and res.pointwise_ok) else 1.0
    row("extraction_truncated", max(res.trace_margin, penalty), 0.0,
        f"N={args.truncation} spike family, {len(res.indices)} picks")

    # biconjugation
    rng = np.random.default_rng([args.seed, 6])
    probes = [Rv(sp3, rng.normal(0.0, 1.5, 3)) for _ in range(12)]
    bi = biconjugate_check(ent3, probes, seed=args.seed, restarts=2)
    row("biconjugate_entropic", bi.max_deviation, 1e-5,
        "sign-free double conjugate vs entropic, 12 probes")
    row("biconjugate_split", bi.max_split, 1e-6,
        "sign-free vs nonnegative dual suprema")

    # space classification verdicts
    expected = ((power2, HOLDS), (OrliczFunction.linf_step(), FAILS),
                (OrliczFunction.exp_young(), FAILS))
    mismatches = sum(classify_space(phi, finite_measure=True).reflexive
                     != verdict for phi, verdict in expected)
    row("classification_verdicts", float(mismatches), 0.0,
        "power2 reflexive, step and exp_young not")

    # in-process determinism of a representative numeric search
    f = Rv(sp3, rng.normal(0.0, 1.0, 3))
    v1, _ = reconstruct(ent3, f, psi2, seed=args.seed, restarts=2,
                        force_numeric=True, validation_trials=40)
    v2, _ = reconstruct(ent3, f, psi2, seed=args.seed, restarts=2,
                        force_numeric=True, validation_trials=40)
    row("determinism_reprobe", 0.0 if v1 == v2 else 1.0, 0.0,
        "same seed, same numeric supremum bits")
    return rows


def _cmd_verify_all(args) -> int:
    rows = run_battery(args)
    failures = sum(not r["passed"] for r in rows)
    if args.format == "csv":
        sys.stdout.write(render_table(
            {key: [r[key] for r in rows] for key in rows[0]}, "csv"))
    else:
        record = {
            "command": "verify-all",
            "seed": args.seed,
            "truncation": args.truncation,
            "tol_override": args.tol,
            "rows": rows,
            "failures": failures,
            "all_passed": failures == 0,
        }
        sys.stdout.write(render_record(record, "json"))
    return 0 if failures == 0 else 5


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------


def _checked(cast, accept, expected: str):
    """An argparse type: ``cast(text)``, and a usage error naming
    ``expected`` unless ``accept(value)`` holds (write ``accept`` so that
    ``nan`` fails it)."""

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(
                f"expected {expected}, got {text!r}")
        return value
    return parse


def _at_least(low, cast=int):
    kind = "an integer" if cast is int else "a number"
    return _checked(cast, lambda value: value >= low, f"{kind} >= {low}")


_positive_int = _at_least(1)
_positive_finite = _checked(float, lambda value: 0.0 < value < math.inf,
                            "a finite number > 0")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared by every caller, so
    callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="orliczkit",
        description="Orlicz-space norms, Young conjugates, and dual "
                    "representations of convex risk functionals.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    run_flags = {
        "seed": dict(type=_at_least(0), default=0),
        "tol": dict(type=_at_least(0.0, float), default=None,
                    help="override the subcommand's default tolerance "
                         "(0 = diagnostic mode)"),
        "truncation": dict(type=_positive_int, default=DEFAULT_TRUNCATION),
    }

    def command(name, handler, help, *required_flags, reads=(), **flag_help):
        """A subcommand that declares the run flags it ``reads``, its
        ``required_flags`` and ``--format``."""
        p = sub.add_parser(name, help=help)
        for flag in reads:
            p.add_argument(f"--{flag}", **run_flags[flag])
        p.add_argument("--format", choices=("json", "csv"), default="json")
        for flag in required_flags:
            p.add_argument(f"--{flag}", required=True,
                           help=flag_help.get(flag))
        p.set_defaults(func=handler)
        return p

    command("norm", _cmd_norm, "Luxemburg and Amemiya norms of a scenario",
            "space", "rv", "orlicz", reads=("tol",))

    p = command("conjugate", _cmd_conjugate,
                "tabulate the conjugate Young function", "orlicz")
    p.add_argument("--grid-max", type=_positive_finite, default=10.0)
    p.add_argument("--grid-count", type=_at_least(2), default=50)

    p = command("classify", _cmd_classify,
                "doubling/reflexivity verdicts for the space", "orlicz")
    p.add_argument("--measure", choices=("finite", "infinite"),
                   default="finite")

    command("represent", _cmd_represent,
            "dual representation certificate for a scenario",
            "space", "rv", "risk", "orlicz", reads=("seed", "tol"))

    p = command("fatou-test", _cmd_fatou_test,
                "lower-semicontinuity check on generated families",
                "space", "risk", "orlicz", reads=("seed", "tol"))
    p.add_argument("--rv", default=None, help="limit point (default zero)")
    p.add_argument("--mode", choices=_GENERATOR_MODES + ("all",),
                   default="all")
    p.add_argument("--count", type=_positive_int, default=20)
    p.add_argument("--length", type=_positive_int, default=24)

    command("extract-subseq", _cmd_extract_subseq,
            "a.e.-convergent subsequence extraction",
            "space", "family", "rv", "orlicz", reads=("tol",),
            rv="declared limit")

    p = command("closure-demo", _cmd_closure_demo,
                "project onto a hull and emit a certified sequence",
                "space", "vertices", "rv", "orlicz", reads=("tol",))
    p.add_argument("--length", type=_positive_int, default=32)

    command("verify-all", _cmd_verify_all,
            "run the deterministic verification battery",
            reads=("seed", "tol", "truncation"))
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NumericFailure as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 3
    except Refusal as exc:
        sys.stderr.write(f"refused: {exc}\n")
        return 4


def run() -> None:
    sys.exit(main())
