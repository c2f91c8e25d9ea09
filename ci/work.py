"""Print the work ledger: deterministic work counts of fixed seeded cases.

    PYTHONPATH=src python ci/work.py > counts.json
    diff ci/work.json counts.json

Each count is a sum of the results' own ``evaluations`` or ``iterations``
over one group of cases, so it does not depend on the machine. A change
that moves work on purpose updates ``ci/work.json`` and names each moved
count. The cases:

* criterion 4's 50 numeric entropic certificates
  (``tests/test_acceptance.py``);
* ``verify-all --seed 41``'s numeric certificates, its 64 numeric Fenchel
  conjugates and its biconjugate check of 12 probes, drawn as
  ``cli.run_battery`` draws them;
* numeric entropic and AVaR certificates at n = 16, 64 and 128, three draws
  of f ~ N(0, 1.5^2) each, with 2 restarts and 10 validation trials;
* the stepped numeric Fenchel conjugate of the entropic at n = 1024, at the
  density g proportional to |N(0, 1)| + 0.05, with 2 restarts;
* Luxemburg and Amemiya norms of t^2 and of exp_young at N = 1024 and 4096,
  and at N = 1024 the Amemiya norms of paths no workload reaches:
  exp_young_conjugate, linear (the limit of a finite slope), linf_step (a
  wall at 1) and the table ``0,0 0.25,0.0625 0.5,0.25`` with horizon 0.5
  (a kink and a wall);
* Luxemburg and Amemiya norms of two Young tables at N = 256 atoms of total
  mass 1/8, with 1 <= |f| <= 1.25 as in the cli_session workload: the table
  ``0,0 1,1 2,4`` (tail t^2) and ``0,0 1,0.5 2,1.5 4,4`` (tail t^1.415...);
* the numeric Fenchel conjugates of the four catalog members at each
  member's own maximizer for n = 3, 4 and 6, by their coordinate steps
  (``stepped.*``) and, on ``maximize_dual``'s line-search path, which no
  case above reaches, with their ``coordinate_step`` stripped; and
  ``reconstruct`` of the entropic and the worst case with their
  closed-form conjugate and maximizer stripped, at n = 2 and 3, whose dual
  objective runs a numeric Fenchel conjugate per call.

Standard library and numpy only, besides the package itself.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from orliczkit import (MeasureSpace, OrliczFunction, Rv, amemiya_norm,
                       average_value_at_risk, biconjugate_check, conjugate,
                       entropic, fenchel_conjugate_value, increasing_catalog,
                       load_custom_table, luxemburg_norm, reconstruct,
                       uniform_probability, worst_case)

PSI2 = conjugate(OrliczFunction.power(2.0))


def criterion_4() -> dict[str, int]:
    rng = np.random.default_rng(1004)
    total = 0
    for case in range(50):
        beta = (0.5, 1.0, 2.0)[case % 3]
        n = int(rng.integers(3, 9))
        sp = uniform_probability(n)
        f = Rv(sp, rng.normal(0.0, 1.5, n))
        _, cert = reconstruct(entropic(beta, sp), f, PSI2, seed=case,
                              restarts=2, force_numeric=True,
                              validation_trials=40)
        total += cert.evaluations
    return {"criterion_4.certificates.evaluations": total}


def verify_all(seed: int = 41) -> dict[str, int]:
    sp3, sp4 = uniform_probability(3), uniform_probability(4)
    catalog = increasing_catalog(sp4, beta=1.0, alpha=0.5)
    ent3 = entropic(1.0, sp3)
    counts = {}

    # the certificate rows share one generator; only ent3's are numeric
    rng = np.random.default_rng([seed, 3])
    total = 0
    for phi, draws, scale, numeric in (
            (entropic(1.0, uniform_probability(6)), 8, 1.5, False),
            (ent3, 4, 1.5, True), (catalog[3], 1, 1.0, False),
            (catalog[1], 6, 2.0, False)):
        for _ in range(draws):
            f = Rv(phi.space, rng.normal(0.0, scale, phi.space.n_atoms))
            _, cert = reconstruct(phi, f, PSI2, seed=seed, restarts=2,
                                  force_numeric=numeric, validation_trials=40)
            total += cert.evaluations
    counts["verify_all_41.certificates.evaluations"] = total

    # each member's own maximizers, and each with a negative dip
    rng = np.random.default_rng([seed, 4])
    total = 0
    for phi in catalog:
        for _ in range(8):
            g = phi.closed_form_maximizer(Rv(sp4, rng.normal(0.0, 1.5, 4)))
            dipped = g.values.copy()
            dipped[int(rng.integers(0, 4))] = -0.5
            for dual in (Rv(sp4, dipped), g):
                total += fenchel_conjugate_value(
                    phi, dual, seed=seed, restarts=2,
                    force_numeric=True).evaluations
    counts["verify_all_41.fenchel_conjugates.evaluations"] = total

    rng = np.random.default_rng([seed, 6])
    probes = [Rv(sp3, rng.normal(0.0, 1.5, 3)) for _ in range(12)]
    counts["verify_all_41.biconjugate.evaluations"] = biconjugate_check(
        ent3, probes, seed=seed, restarts=2).evaluations

    # the closing determinism row certifies one more draw twice
    f = Rv(sp3, rng.normal(0.0, 1.0, 3))
    counts["verify_all_41.determinism.evaluations"] = sum(
        reconstruct(ent3, f, PSI2, seed=seed, restarts=2, force_numeric=True,
                    validation_trials=40)[1].evaluations for _ in range(2))
    return counts


def scale() -> dict[str, int]:
    counts = {}
    for name, make in (("entropic", lambda sp: entropic(1.0, sp)),
                       ("avar", lambda sp: average_value_at_risk(0.5, sp))):
        for n in (16, 64, 128):
            sp = uniform_probability(n)
            phi = make(sp)
            rng = np.random.default_rng([n, 28])
            total = 0
            for draw in range(3):
                f = Rv(sp, rng.normal(0.0, 1.5, n))
                _, cert = reconstruct(phi, f, PSI2, seed=draw, restarts=2,
                                      force_numeric=True,
                                      validation_trials=10)
                total += cert.evaluations
            counts[f"scale.{name}.n{n}.evaluations"] = total
    n = 1024
    sp = uniform_probability(n)
    raw = np.abs(np.random.default_rng(41).normal(0.0, 1.0, n)) + 0.05
    g = Rv(sp, raw / float(sp.weights @ raw))
    counts[f"scale.fenchel.entropic.n{n}.evaluations"] = \
        fenchel_conjugate_value(entropic(1.0, sp), g, restarts=2,
                                force_numeric=True).evaluations
    return counts


def norms() -> dict[str, int]:
    counts = {}
    for N in (1024, 4096):
        sp = uniform_probability(N, truncated=True)
        f = Rv(sp, np.random.default_rng([N, 28]).normal(0.0, 1.0, N))
        for label, phi in (("power2", OrliczFunction.power(2.0)),
                           ("exp_young", OrliczFunction.exp_young())):
            counts[f"norms.luxemburg.{label}.N{N}.iterations"] = \
                luxemburg_norm(f, phi).iterations
            counts[f"norms.amemiya.{label}.N{N}.iterations"] = \
                amemiya_norm(f, phi).iterations
        if N == 1024:
            for label, phi in AMEMIYA_ONLY:
                counts[f"norms.amemiya.{label}.N{N}.iterations"] = \
                    amemiya_norm(f, phi).iterations
    return counts


AMEMIYA_ONLY = (
    ("exp_young_conjugate", OrliczFunction.exp_young_conjugate()),
    ("linear", OrliczFunction.linear()),
    ("linf_step", OrliczFunction.linf_step()),
    ("table_kinked_horizon", OrliczFunction.table(
        [0.0, 0.25, 0.5], [0.0, 0.0625, 0.25], horizon=0.5)))


TABLES = (("square_tail", "t,value\n0,0\n1,1\n2,4\n"),
          ("fractional_tail", "t,value\n0,0\n1,0.5\n2,1.5\n4,4\n"))


def tables() -> dict[str, int]:
    N = 256
    sp = MeasureSpace.finite(np.full(N, 0.125 / N))
    rng = np.random.default_rng([N, 29])
    f = Rv(sp, rng.choice([-1.0, 1.0], N) * rng.uniform(1.0, 1.25, N))
    counts = {}
    with tempfile.TemporaryDirectory() as tmp:
        for label, text in TABLES:
            path = os.path.join(tmp, f"{label}.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            phi = load_custom_table(path)
            counts[f"norms.luxemburg.table_{label}.N{N}.iterations"] = \
                luxemburg_norm(f, phi).iterations
            counts[f"norms.amemiya.table_{label}.N{N}.iterations"] = \
                amemiya_norm(f, phi).iterations
    return counts


CATALOG = ("entropic", "avar", "worst_case", "expectation")


def line_search() -> dict[str, int]:
    counts = {}
    for n in (3, 4, 6):
        sp = uniform_probability(n)
        rng = np.random.default_rng([n, 30])
        for name, phi in zip(CATALOG, increasing_catalog(sp, beta=1.0,
                                                         alpha=0.5)):
            g = phi.closed_form_maximizer(Rv(sp, rng.normal(0.0, 1.5, n)))
            counts[f"stepped.fenchel.{name}.n{n}.evaluations"] = \
                fenchel_conjugate_value(phi, g, seed=n, restarts=2,
                                        force_numeric=True).evaluations
            bare = replace(phi, coordinate_step=None)
            counts[f"line_search.fenchel.{name}.n{n}.evaluations"] = \
                fenchel_conjugate_value(bare, g, seed=n, restarts=2,
                                        force_numeric=True).evaluations
    for n in (2, 3):
        sp = uniform_probability(n)
        rng = np.random.default_rng([n, 31])
        for name, phi in (("entropic", entropic(1.0, sp)),
                          ("worst_case", worst_case(sp))):
            bare = replace(phi, closed_form_conjugate=None,
                           closed_form_maximizer=None)
            f = Rv(sp, rng.normal(0.0, 1.5, n))
            _, cert = reconstruct(bare, f, PSI2, seed=n, restarts=2,
                                  validation_trials=10)
            counts[f"line_search.reconstruct.{name}.n{n}.evaluations"] = \
                cert.evaluations
    return counts


def main() -> int:
    counts = {**criterion_4(), **verify_all(), **scale(), **norms(),
              **tables(), **line_search()}
    json.dump(counts, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
