"""Shows that the benchmark's checks catch corrupted results.

    python3 bench/selftest.py

Each case takes a real result from the program, confirms that its check
accepts it, corrupts it in one small way, and confirms that the check then
raises ``CheckError``:

* a certificate whose dual value is shifted by 1e-3 (closed-form and
  numeric tolerances);
* a Luxemburg norm and an Amemiya norm off by a relative 1e-6;
* an extraction whose picked term pairs above its target 2^-n;
* a CLI report with one byte changed.

Exits 0 when every corruption is caught, 1 otherwise, 2 when the program
cannot be imported.
"""

from __future__ import annotations

import sys

from run import import_program


def caught(check, *args) -> bool:
    import checks
    try:
        check(*args)
    except checks.CheckError:
        return True
    return False


def main() -> int:
    try:
        import_program()
    except ImportError as exc:
        sys.stderr.write(f"cannot import orliczkit: {exc}\n")
        return 2
    import numpy as np

    import checks
    import orliczkit as ok
    import workloads

    rng = np.random.default_rng(2024)
    psi = ok.conjugate(ok.OrliczFunction.power(2.0))
    results: list[tuple[str, bool, bool]] = []

    def case(label, check, good, bad):
        results.append((label, not caught(check, *good), caught(check, *bad)))

    # certificates: dual value shifted by 1e-3
    space = ok.uniform_probability(5)
    f = rng.normal(0.0, 1.5, 5)
    primal = checks.primal_value("entropic", 1.0, space.weights, f)
    for numeric, tol in ((False, checks.CLOSED_GAP_TOL),
                         (True, checks.NUMERIC_GAP_TOL)):
        achieved, cert = ok.reconstruct(ok.entropic(1.0, space),
                                        ok.Rv(space, f), psi, restarts=2,
                                        force_numeric=numeric)
        shifted = achieved - 1e-3
        kind = "numeric" if numeric else "closed form"
        case(f"certificate gap shifted by 1e-3 ({kind})",
             checks.check_certificate,
             (primal, achieved, cert.gap, space.weights, cert.g.values, tol),
             (primal, shifted, primal - shifted, space.weights,
              cert.g.values, tol))

    # norms off by a relative 1e-6
    big = ok.uniform_probability(1024, truncated=True)
    v = rng.normal(0.0, 1.0, 1024)
    power2 = ok.OrliczFunction.power(2.0)
    lux = ok.luxemburg_norm(ok.Rv(big, v), power2).value
    ame = ok.amemiya_norm(ok.Rv(big, v), power2).value
    case("Luxemburg norm off by relative 1e-6", checks.check_luxemburg_p,
         (lux, big.weights, v, 2.0), (lux * (1 + 1e-6), big.weights, v, 2.0))
    case("Amemiya norm off by relative 1e-6", checks.check_amemiya_p2,
         (ame, big.weights, v), (ame * (1 - 1e-6), big.weights, v))

    # extraction: a picked term whose pairing exceeds its target
    small = ok.uniform_probability(64, truncated=True)
    limit = rng.normal(0.0, 1.0, 64)
    fam = ok.generate_sequence(small, power2, ok.Rv(small, limit),
                               "ae_only_traveling_spike", length=128)
    g0 = ok.strictly_positive_witness(small, psi)
    f0 = ok.strictly_positive_witness(small, power2)
    res = ok.extract_ae_subsequence(fam, ok.Rv(small, limit), g0, f0)
    terms = [t.values for t in fam.terms]
    corrupted = list(terms)
    last = res.indices[-1]
    corrupted[last] = terms[last] + 2.0 ** -len(res.indices) * 4.0 / float(
        np.dot(small.weights, g0.values))
    args = (res.status, res.indices, res.trace, res.trace_bound_ok,
            small.weights)
    case("picked pairing above its target", checks.check_extraction,
         args + (terms, limit, g0.values), args + (corrupted, limit, g0.values))

    # CLI: one changed stdout byte
    code, out = workloads.invoke(["classify", "--orlicz", "power:p=2"])
    _, again = workloads.invoke(["classify", "--orlicz", "power:p=2"])
    flipped = out[:10] + chr(ord(out[10]) ^ 1) + out[11:]
    case("CLI stdout with one byte changed", checks.check_same_bytes,
         (out, again), (out, flipped))

    ok_all = True
    for label, accepts, rejects in results:
        verdict = "ok" if accepts and rejects else "FAIL"
        ok_all &= accepts and rejects
        print(f"{verdict:4s}  {label}: accepts the real result={accepts}, "
              f"rejects the corrupted one={rejects}")
    return 0 if ok_all and code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
