"""The benchmark's three workloads: inputs made from a seed, a fixed batch of
operations, and a check for every operation's output.

A workload is built by ``build(name, seed, workdir)`` and returns a list of
``Op``. One pass runs every op once, in order; an op may leave values in
the pass's ``state`` dict for later ops of the same pass. Every pass repeats
exactly the same calls on exactly the same inputs.

Program functions are looked up on their modules at call time
(``ok.reconstruct``, ``ok.cli.main``) so that the traced run's rebinding
of those names takes effect.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import orliczkit as ok
import orliczkit.cli  # noqa: F401  (binds ok.cli)

import checks


@dataclass
class Op:
    """One call into the program and the check of its result."""
    name: str
    run: Callable[[dict], object]
    check: Callable[[object], None]


# ---------------------------------------------------------------------------
# dual_certify
# ---------------------------------------------------------------------------

CATALOG = (("entropic", 1.0), ("avar", 0.5), ("worst_case", None),
           ("expectation", None))
CLOSED_SIZES = (3, 5, 8, 13, 21, 34, 50)
CLOSED_DRAWS = 3
NUMERIC_SIZES = (3, 4, 5, 6, 7, 8)
# The work of a numeric ascent varies by about 14 % from input to input, so
# a pass holds several short ascents (two restarts each) rather than a few
# long ones: the work of a whole pass then varies little from seed to seed.
NUMERIC_DRAWS = 6
NUMERIC_RESTARTS = 2
FEASIBLE_CONJUGATE_SIZES = (3, 3, 4, 4)
BICONJUGATE_PROBES = 3
VALIDATION_TRIALS = 40


def _functional(kind: str, param, space):
    if kind == "entropic":
        return ok.entropic(param, space)
    if kind == "avar":
        return ok.average_value_at_risk(param, space)
    if kind == "worst_case":
        return ok.worst_case(space)
    return ok.expectation(space)


def _certificate(name, kind, param, space, f, psi, numeric: bool) -> Op:
    phi = _functional(kind, param, space)
    f_rv = ok.Rv(space, f)
    w = space.weights
    primal = checks.primal_value(kind, param, w, f)
    tol = checks.NUMERIC_GAP_TOL if numeric else checks.CLOSED_GAP_TOL

    def run(_state):
        return ok.reconstruct(phi, f_rv, psi, force_numeric=numeric,
                              restarts=NUMERIC_RESTARTS,
                              validation_trials=VALIDATION_TRIALS)

    def check(result):
        achieved, cert = result
        checks.check_certificate(primal, achieved, cert.gap, w,
                                 cert.g.values, tol)

    return Op(name, run, check)


def _density(rng, n: int, weights) -> np.ndarray:
    raw = np.abs(rng.normal(0.0, 1.0, n)) + 0.05
    return raw / float(np.dot(weights, raw))


def dual_certify(seed: int, _workdir: str) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    psi = ok.conjugate(ok.OrliczFunction.power(2.0))
    ops: list[Op] = []
    for n in CLOSED_SIZES:
        space = ok.uniform_probability(n)
        for kind, param in CATALOG:
            for d in range(CLOSED_DRAWS):
                ops.append(_certificate(f"closed.{kind}.n{n}.{d}", kind, param,
                                        space, rng.normal(0.0, 1.5, n), psi,
                                        numeric=False))
    for n in NUMERIC_SIZES:
        space = ok.uniform_probability(n)
        for d in range(NUMERIC_DRAWS):
            ops.append(_certificate(f"numeric.entropic.n{n}.{d}", "entropic",
                                    1.0, space, rng.normal(0.0, 1.5, n), psi,
                                    numeric=True))

    for k, n in enumerate(FEASIBLE_CONJUGATE_SIZES):
        space = ok.uniform_probability(n)
        phi = ok.entropic(1.0, space)
        g = _density(rng, n, space.weights)
        exact = checks.relative_entropy(1.0, space.weights, g)
        g_rv = ok.Rv(space, g)
        ops.append(Op(
            f"conjugate.feasible.n{n}.{k}",
            lambda _s, phi=phi, g_rv=g_rv: ok.fenchel_conjugate_value(
                phi, g_rv, restarts=NUMERIC_RESTARTS, force_numeric=True),
            lambda est, exact=exact: checks.check_conjugate_from_below(
                est.value, exact)))

    space4 = ok.uniform_probability(4)
    for kind, param in CATALOG:
        phi = _functional(kind, param, space4)
        g = _density(rng, 4, space4.weights)
        g[int(rng.integers(0, 4))] = -0.5
        g_rv = ok.Rv(space4, g)
        ops.append(Op(
            f"conjugate.dip.{kind}",
            lambda _s, phi=phi, g_rv=g_rv: ok.fenchel_conjugate_value(
                phi, g_rv, force_numeric=True),
            lambda est: checks.check_divergent(
                est.value, None if est.diverged_ray is None
                else est.diverged_ray.values)))

    space3 = ok.uniform_probability(3)
    ent3 = ok.entropic(1.0, space3)
    for k in range(BICONJUGATE_PROBES):
        probe = ok.Rv(space3, rng.normal(0.0, 1.5, 3))
        ops.append(Op(
            f"biconjugate.n3.{k}",
            lambda _s, probe=probe: ok.biconjugate_check(
                ent3, [probe], restarts=NUMERIC_RESTARTS),
            lambda rep: checks.check_biconjugate(rep.max_deviation,
                                                 rep.max_split)))
    return ops


# ---------------------------------------------------------------------------
# truncated_diagnostics
# ---------------------------------------------------------------------------

TRUNCATIONS = (1024, 2048, 4096)
SPIKE_EXTRA_TERMS = 64
NORM_CONVERGENT_LENGTH = 64


def truncated_diagnostics(seed: int, _workdir: str) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    power2 = ok.OrliczFunction.power(2.0)
    exp_young = ok.OrliczFunction.exp_young()
    young = {
        "power2": power2,
        "power2_conjugate": ok.conjugate(power2),
        "exp_young": exp_young,
        "exp_young_conjugate": ok.conjugate(exp_young),
    }
    psi2 = young["power2_conjugate"]
    ops: list[Op] = []
    for N in TRUNCATIONS:
        space = ok.uniform_probability(N, truncated=True)
        w = space.weights
        f = rng.normal(0.0, 1.0, N)
        f_rv = ok.Rv(space, f)
        ones = np.ones(N)
        family_seed = int(rng.integers(0, 2**31))

        for label, phi in young.items():
            def run(state, phi=phi, label=label, space=space):
                state[label] = ok.strictly_positive_witness(space, phi)
                return state[label]
            ops.append(Op(f"witness.{label}.N{N}", run,
                          lambda v, w=w, label=label:
                          checks.check_witness(w, v.values, label)))

        families = (
            ("spike", "ae_only_traveling_spike", N + SPIKE_EXTRA_TERMS),
            ("norm_convergent", "norm_convergent", NORM_CONVERGENT_LENGTH),
        )
        for label, mode, length in families:
            def generate(state, space=space, mode=mode, length=length,
                         label=label, f_rv=f_rv, family_seed=family_seed):
                fam = ok.generate_sequence(space, power2, f_rv, mode,
                                           length=length, seed=family_seed)
                state[label] = fam
                return fam

            def generated(fam, length=length, label=label):
                if len(fam) != length:
                    raise checks.CheckError(f"{label} family has {len(fam)} "
                                            f"terms, not {length}")

            def extract(state, label=label, f_rv=f_rv):
                fam = state[label]
                return fam, state["power2_conjugate"], ok.extract_ae_subsequence(
                    fam, f_rv, state["power2_conjugate"], state["power2"])

            def extracted(result, w=w, f=f):
                fam, g0, res = result
                checks.check_extraction(res.status, res.indices, res.trace,
                                        res.trace_bound_ok, w,
                                        [t.values for t in fam.terms], f,
                                        g0.values)

            ops.append(Op(f"generate.{label}.N{N}", generate, generated))
            ops.append(Op(f"extract.{label}.N{N}", extract, extracted))

        def wstar(state, f_rv=f_rv, space=space, ones=ones):
            # the last op on the spike family; the family is dropped with it
            fam = state.pop("spike")
            tests = [state["power2_conjugate"].values, ones]
            rep = ok.wstar_limit_check(fam, f_rv,
                                       [ok.Rv(space, t) for t in tests], psi2)
            return rep, fam, tests

        def wstar_ok(result, w=w, f=f):
            rep, fam, tests = result
            checks.check_wstar(rep.converged, rep.tail_tol, rep.worst_tail,
                               rep.tails, rep.overflow_tails,
                               rep.dominated_tails, w,
                               [t.values for t in fam.terms], f, tests)

        ops.append(Op(f"wstar.spike.N{N}", wstar, wstar_ok))
        ops.append(Op(f"luxemburg.power2.N{N}",
                      lambda _s, f_rv=f_rv: ok.luxemburg_norm(f_rv, power2),
                      lambda rep, w=w, f=f: checks.check_luxemburg_p(
                          rep.value, w, f, 2.0)))
        ops.append(Op(f"amemiya.power2.N{N}",
                      lambda _s, f_rv=f_rv: ok.amemiya_norm(f_rv, power2),
                      lambda rep, w=w, f=f: checks.check_amemiya_p2(
                          rep.value, w, f)))

        def lux_exp(state, f_rv=f_rv):
            state["lux_exp"] = ok.luxemburg_norm(f_rv, exp_young).value
            return state["lux_exp"]

        def ame_exp(state, f_rv=f_rv):
            return state["lux_exp"], ok.amemiya_norm(f_rv, exp_young).value

        ops.append(Op(f"luxemburg.exp_young.N{N}", lux_exp,
                      lambda value, w=w, f=f: checks.check_luxemburg_modular(
                          value, w, f, "exp_young")))
        ops.append(Op(f"amemiya.exp_young.N{N}", ame_exp,
                      lambda pair: checks.check_norm_sandwich(*pair)))
    return ops


# ---------------------------------------------------------------------------
# cli_session
# ---------------------------------------------------------------------------

SESSION_ATOMS = 6
TABLE_ATOMS = 256
# With total mass 1/8 and 1 <= |f| <= 1.25, every |f_i| / |f|_2 exceeds 2,
# past the table's last knot, where the table "0,0 1,1 2,4" continues as
# t^2; so its Luxemburg and Amemiya norms are those of power:p=2.
TABLE_MASS = 0.125
YOUNG_TABLE = "t,value\n0,0\n1,1\n2,4\n"
RISK_SPECS = (("entropic:beta=1", "entropic", 1.0),
              ("avar:alpha=0.5", "avar", 0.5),
              ("worst_case", "worst_case", None),
              ("expectation", "expectation", None))


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _space_csv(weights, blocks) -> str:
    return "atom_id,weight,block_id\n" + "".join(
        f"{i + 1},{float(w)!r},{int(b)}\n"
        for i, (w, b) in enumerate(zip(weights, blocks)))


def _rv_csv(values) -> str:
    return "atom_id,value\n" + "".join(
        f"{i + 1},{float(v)!r}\n" for i, v in enumerate(values))


def _stacked_csv(rows) -> str:
    return "term_index,atom_id,value\n" + "".join(
        f"{k},{i + 1},{float(v)!r}\n"
        for k, row in enumerate(rows) for i, v in enumerate(row))


def invoke(argv: list[str]) -> tuple[int, str]:
    """``orliczkit <argv>`` in process, stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ok.cli.main(argv)
    return code, out.getvalue()


def cli_session(seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    os.makedirs(workdir, exist_ok=True)

    def path(name):
        return os.path.join(workdir, name)

    n = SESSION_ATOMS
    w6 = np.full(n, 1.0 / n)
    f6 = rng.normal(0.0, 1.5, n)
    space6 = _write(path("space6.csv"), _space_csv(w6, range(n)))
    rv6 = _write(path("f6.csv"), _rv_csv(f6))

    N = TABLE_ATOMS
    wN = np.full(N, TABLE_MASS / N)
    blocksN = np.floor(np.log2(np.arange(1, N + 1))).astype(int)
    fN = rng.choice([-1.0, 1.0], N) * rng.uniform(1.0, 1.25, N)
    spaceN = _write(path("space256.csv"), _space_csv(wN, blocksN))
    rvN = _write(path("f256.csv"), _rv_csv(fN))
    spikes = np.tile(fN, (N + SPIKE_EXTRA_TERMS, 1))
    spikes[np.arange(N), np.arange(N)] += 1.0
    family = _write(path("spikes256.csv"), _stacked_csv(spikes))
    table = _write(path("young.csv"), YOUNG_TABLE)

    ops: list[Op] = []

    def add(name: str, argv: list[str], check) -> None:
        first: list[str] = []

        def checked(result):
            code, out = result
            doc = checks.parse_json_output(code, out)
            if first:
                checks.check_same_bytes(first[0], out)
            else:
                check(doc)
                first.append(out)

        ops.append(Op(name, lambda _s: invoke(argv), checked))

    for spec, kind, param in RISK_SPECS:
        primal = checks.primal_value(kind, param, w6, f6)
        add(f"represent.{kind}",
            ["represent", "--space", space6, "--rv", rv6, "--risk", spec,
             "--orlicz", "power:p=2"],
            lambda doc, primal=primal: checks.check_certificate(
                primal, doc["value"], doc["gap"], w6, np.array(doc["g"]),
                checks.CLOSED_GAP_TOL))

    def norms_ok(doc):
        checks.check_luxemburg_p(doc["luxemburg"], wN, fN, 2.0)
        checks.check_amemiya_p2(doc["amemiya"], wN, fN)

    def power2_conjugate_ok(doc):
        s = np.array(doc["s"])
        expected = 0.25 * s * s
        if not np.allclose(doc["conjugate"], expected, rtol=1e-12, atol=0.0):
            raise checks.CheckError("conjugate of t^2 is not s^2 / 4")

    def conjugate_ok(doc):
        values = np.array(doc["conjugate"])
        if values[0] != 0.0 or np.any(np.diff(values) < 0.0):
            raise checks.CheckError("conjugate table does not rise from 0")

    def reflexive(doc):
        if doc["reflexive"] != "holds":
            raise checks.CheckError(f"L^2 reported {doc['reflexive']!r} "
                                    "for reflexivity")

    for label, spec, conj_check, cls_check in (
            ("power2", "power:p=2", power2_conjugate_ok, reflexive),
            ("table", f"custom:file={table}", conjugate_ok, lambda doc: None)):
        add(f"norm.{label}", ["norm", "--space", spaceN, "--rv", rvN,
                              "--orlicz", spec], norms_ok)
        add(f"conjugate.{label}", ["conjugate", "--orlicz", spec], conj_check)
        add(f"classify.{label}", ["classify", "--orlicz", spec], cls_check)

    def no_violation(doc):
        if doc["violations"] != 0:
            raise checks.CheckError(f"{doc['violations']} Fatou violations")

    add("fatou-test", ["fatou-test", "--space", space6, "--risk",
                       "entropic:beta=1", "--orlicz", "power:p=2",
                       "--rv", rv6], no_violation)

    def extraction_ok(doc):
        idx = doc["indices"]
        if (doc["status"] != "ok" or not doc["trace_bound_ok"] or not idx
                or any(b <= a for a, b in zip(idx, idx[1:]))):
            raise checks.CheckError("extract-subseq: bad status, trace or "
                                    "indices")

    add("extract-subseq", ["extract-subseq", "--space", spaceN, "--family",
                           family, "--rv", rvN, "--orlicz", "power:p=2"],
        extraction_ok)

    def all_passed(doc):
        if doc["all_passed"] is not True:
            raise checks.CheckError(f"verify-all: {doc['failures']} rows fail")

    add("verify-all", ["verify-all", "--seed", str(seed)], all_passed)
    return ops


def build(name: str, seed: int, workdir: str) -> list[Op]:
    """The workload's operations on inputs made from ``seed``, which is
    taken modulo 2^32 so that any integer, negative ones too, is a seed."""
    return {"dual_certify": dual_certify,
            "truncated_diagnostics": truncated_diagnostics,
            "cli_session": cli_session}[name](seed % 2**32, workdir)
