"""Check that the tests still catch recorded source mutations.

    python ci/mutants.py

Each entry of MUTANTS names a file, an exact text in it, the text that
replaces it, and the test ids that must fail once it does. The script
copies ``src``, ``tests`` and ``pyproject.toml`` to a temporary directory,
runs every named id there once unmutated (they must all pass, or a failure
under a mutant would prove nothing), then applies each mutant alone and
runs only its ids. It exits 1 when the unmutated run fails, when a mutant's
old text no longer occurs exactly once (so a refactor that moves the code
must update the table), or when a named id passes under its mutant.
Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DUALITY = "src/orliczkit/duality.py"
CONVERGENCE = "src/orliczkit/convergence.py"
NORMS = "src/orliczkit/norms.py"
SPECS = "src/orliczkit/specs.py"
RISK = "src/orliczkit/risk.py"
BISECTION_PROPERTY = ("tests/test_norms.py::"
                      "test_luxemburg_equals_the_bisection_bit_for_bit")
SPIKE_PROPERTY = ("tests/test_convergence_matrix.py::"
                  "test_spike_layout_readers_match_a_dense_copy_bit_for_bit")
SEARCH = "src/orliczkit/_search.py"
SOLVE_PROPERTY = ("tests/test_duality.py::"
                  "test_pair_ascent_stops_within_its_bound_of_phi")
SHORT_OF_CEILING = ("tests/test_duality.py::"
                    "test_a_solve_short_of_its_ceiling_stops_flat")
BOX_ONLY_BICONJUGATE = ("tests/test_duality.py::"
                        "test_biconjugate_recovers_box_only_members")
STEPLESS_LINES = ("tests/test_duality.py::"
                  "test_stripped_conjugates_search_all_three_kinds_of_line")
KINK = ("tests/test_duality.py::"
        "test_a_pair_transfer_leaves_a_kink_that_stalls_coordinate_lines")
STEPPED_LINES = ("tests/test_duality.py::"
                 "test_lines_with_a_step_are_never_searched")
BAD_STARTS = ("tests/test_duality.py::"
              "test_numeric_conjugates_refuse_bad_starts_before_any_probe")
COORD_STEP_PROPERTY = ("tests/test_duality.py::"
                       "test_coordinate_steps_reach_the_line_search_maximum")
TABLE_PROPERTY = ("tests/test_specs_io.py::"
                  "test_convex_tables_load_convex_with_exact_conjugates")
ORLICZ = "src/orliczkit/orlicz.py"
TABLE_KERNEL_PROPERTY = ("tests/test_specs_io.py::"
                         "test_table_kernels_match_scalar_calls_bit_for_bit")
TABLE_CONJUGATE_PROPERTY = ("tests/test_specs_io.py::"
                            "test_table_conjugate_is_the_exact_legendre_"
                            "transform")
ONE_KERNEL_PROPERTY = ("tests/test_orlicz.py::"
                       "test_scalar_calls_run_the_array_kernel_bit_for_bit")
UNIT_DENSITY = "tests/test_risk.py::test_expectation_conjugate_reads_no_mass"
POWER_ROUND_TRIP = ("tests/test_orlicz.py::"
                    "test_accepted_powers_conjugate_twice_within_rounding")
NUMPY_POWER = ("tests/test_orlicz.py::"
               "test_a_numpy_scalar_power_is_refused_without_a_warning")

# (name, file, old text, new text, test ids that must fail)
MUTANTS = [
    ("row probes report the last diverging ray, not the first",
     DUALITY,
     "        probes = len(rows) + 2\n",
     "        probes = len(rows) + 2\n"
     "        rays, traces = rays[::-1], traces[::-1]\n",
     ["tests/test_duality.py::"
      "test_fenchel_negative_coordinate_diverges_via_indicator_ray",
      "tests/test_duality.py::test_row_probes_match_the_scalar_path"]),
    ("restart 0 never tries the unit density",
     DUALITY,
     "        if r == 0 and v == -math.inf:\n",
     "        if False:\n",
     ["tests/test_duality.py::test_numeric_expectation_on_a_space_of_mass_two"]),
    ("the ascent never switches to transfers only",
     DUALITY,
     "                transfers_only = r == 0 and sweeps == 1 and skipped == n\n",
     "                transfers_only = False\n",
     ["tests/test_duality.py::"
      "test_entropic_ascent_probes_off_the_unit_mass_twice_per_atom"]),
    ("a restart's start point is never compared with the ceiling",
     DUALITY,
     "        sweeps = 0\n"
     "        if v >= stop_at:\n"
     "            return at_ceiling()\n",
     "        sweeps = 0\n",
     ["tests/test_duality.py::"
      "test_a_start_at_the_ceiling_stops_there[mass_two]",
      "tests/test_duality.py::"
      "test_a_start_at_the_ceiling_stops_there[uniform_five]"]),
    ("the numeric conjugate trusts the row kernel unchecked",
     DUALITY,
     "        check_rows(phi, rows[[0, -1]], vals[[0, -1]])\n",
     "",
     ["tests/test_duality.py::"
      "test_fenchel_conjugate_refuses_a_stale_row_kernel",
      "tests/test_duality.py::test_results_report_their_evaluations"]),
    ("the Luxemburg bisection keeps a 1e-14 absolute floor",
     NORMS,
     "    while hi - lo > 1e-10 * hi:\n",
     "    while hi - lo > max(1e-10 * hi, 1e-14):\n",
     ["tests/test_norms.py::test_luxemburg_is_accurate_at_tiny_scales"]),
    ("the Luxemburg search returns its guessed cell without probing an "
     "open lower end",
     NORMS,
     "        if not undecided:\n            return c_lo, c_hi, b_mod, calls\n",
     "        if not undecided or c_hi >= b:\n"
     "            return c_lo, c_hi, b_mod, calls\n",
     [f"{BISECTION_PROPERTY}[0]", f"{BISECTION_PROPERTY}[2]"]),
    ("the Luxemburg norm is the infeasible end of the terminal cell",
     NORMS,
     "    return NormReport(hi, expand + calls, (lo, hi), hi_mod)\n",
     "    return NormReport(lo, expand + calls, (lo, hi), hi_mod)\n",
     [f"{BISECTION_PROPERTY}[1]"]),
    ("the lockstep norms are the infeasible ends of their grid cells",
     NORMS,
     "    return np.where(2.0 * s > 1e-10 * hi33, lo + ib * s, hi33)\n",
     "    return np.where(2.0 * s > 1e-10 * hi33, lo + (ib - 1.0) * s,\n"
     "                    hi33 - 2.0 * s)\n",
     ["tests/test_norms.py::"
      "test_lockstep_indicator_norms_equal_the_scalar_reference_seeded[0]"]),
    ("the pattern line's segment is PATTERN_RANGE uncut",
     DUALITY,
     "    lo, hi = PATTERN_RANGE\n",
     "    return PATTERN_RANGE\n",
     ["tests/test_duality.py::"
      "test_pattern_line_of_a_dual_without_hooks_stops_at_zero",
      "tests/test_duality.py::"
      "test_pattern_segment_keeps_nonnegative_coordinates_nonnegative"]),
    ("AVaR's conjugate allows g up to 1/alpha + FEAS_TOL",
     RISK,
     "        closed_form_conjugate=SeparableConjugate(space, upper=cap),\n",
     "        closed_form_conjugate=SeparableConjugate(space,\n"
     "                                                 upper=cap + FEAS_TOL),\n",
     ["tests/test_risk.py::test_avar_conjugate_box_rules",
      "tests/test_duality.py::test_avar_ascent_stays_inside_the_cap"]),
    ("the unit-density band is twice FEAS_TOL wide",
     RISK,
     "        return 0.0 if far <= FEAS_TOL else math.inf\n",
     "        return 0.0 if far <= 2 * FEAS_TOL else math.inf\n",
     [f"{UNIT_DENSITY}[2.0]", f"{UNIT_DENSITY}[1e-08]"]),
    ("the solve's Gibbs exponent flips the sign of beta f",
     DUALITY,
     "        z = conj.beta * fv\n",
     "        z = -conj.beta * fv\n",
     [f"{SOLVE_PROPERTY}[0]",
      "tests/test_duality.py::"
      "test_numeric_entropic_reconstruct_resolves_a_tiny_gibbs_mass"]),
    ("the solve's Gibbs exponent is not shifted",
     DUALITY,
     "        e = np.exp(z - np.maximum.reduce(z))\n",
     "        e = np.exp(z)\n",
     [f"{SOLVE_PROPERTY}[0]"]),
    ("the capped solve's exponents are not shifted",
     DUALITY,
     "            e = np.exp(zs[p:] - zs[p])\n",
     "            e = np.exp(zs[p:])\n",
     [f"{SOLVE_PROPERTY}[0]"]),
    ("a separable biconjugate takes the generic ascent, whose sign-free "
     "pair segments run past the box",
     DUALITY,
     "    if isinstance(conj, SeparableConjugate):\n",
     "    if isinstance(conj, SeparableConjugate) and all(signs):\n",
     [f"{BOX_ONLY_BICONJUGATE}[3-avar]",
      f"{BOX_ONLY_BICONJUGATE}[3-worst_case]",
      f"{BOX_ONLY_BICONJUGATE}[5-avar]",
      f"{BOX_ONLY_BICONJUGATE}[5-worst_case]"]),
    ("maximize_dual ignores its coord_step argument",
     DUALITY,
     "    transfers_only = False\n",
     "    transfers_only = False\n"
     "    coord_step = None\n",
     ["tests/test_duality.py::"
      "test_stepped_ascents_read_each_coordinate_once_per_sweep",
      "tests/test_duality.py::"
      "test_a_coordinate_step_that_reads_minus_inf_is_not_taken"]),
    ("a stepped ascent also runs the pair transfers",
     DUALITY,
     "            if coord_step is None:\n",
     "            if True:\n",
     [f"{STEPPED_LINES}[0]",
      "tests/test_duality.py::"
      "test_stepped_ascents_read_each_coordinate_once_per_sweep"]),
    ("a stepped ascent also runs the pattern move",
     DUALITY,
     "            if sweeps > 1 and coord_step is None:\n",
     "            if sweeps > 1:\n",
     [f"{STEPPED_LINES}[0]"]),
    ("a stepless ascent runs the pair transfers only when transfers only",
     DUALITY,
     "            if coord_step is None:\n",
     "            if transfers_only:\n",
     [f"{STEPLESS_LINES}[0]", KINK]),
    ("a stepless ascent runs the pattern move only when transfers only",
     DUALITY,
     "            if sweeps > 1 and coord_step is None:\n",
     "            if sweeps > 1 and transfers_only:\n",
     [f"{STEPLESS_LINES}[0]"]),
    ("a 1e-6 ceiling tolerance",
     DUALITY,
     "CEILING_TOL = 1e-12\n",
     "CEILING_TOL = 1e-6\n",
     [SHORT_OF_CEILING]),
    ("one restart under a finite ceiling",
     DUALITY,
     "    for r in range(restarts):\n",
     "    for r in range(1 if math.isfinite(ceiling) else restarts):\n",
     ["tests/test_duality.py::"
      "test_an_unreachable_ceiling_changes_nothing_seeded[0]"]),
    ("a restart stuck at -inf stops flat",
     DUALITY,
     "                reason = \"flat\" if v > -math.inf else"
     " \"stuck_at_-inf\"\n",
     "                reason = \"flat\"\n",
     ["tests/test_duality.py::test_ascent_results_say_why_they_stopped"]),
    ("the ascent does not check its restart count",
     DUALITY,
     "    if restarts < 1 or seed < 0:\n",
     "    if seed < 0:\n",
     ["tests/test_duality.py::test_ascents_need_a_restart"]),
    ("the ascent does not check its seed",
     DUALITY,
     "    if restarts < 1 or seed < 0:\n",
     "    if restarts < 1:\n",
     ["tests/test_duality.py::"
      "test_ascents_refuse_a_negative_seed_before_any_call",
      f"{BAD_STARTS}[-1-2]"]),
    ("the numeric conjugate probes before it checks its starts",
     DUALITY,
     "    _check_restarts(restarts, seed)\n"
     "    n = space.n_atoms\n",
     "    n = space.n_atoms\n",
     [f"{BAD_STARTS}[0-0]", f"{BAD_STARTS}[-1-2]"]),
    ("the solve does not check its starts",
     DUALITY,
     "    _check_restarts(restarts, seed)\n"
     "    if isinstance(conj, SeparableConjugate):\n",
     "    if isinstance(conj, SeparableConjugate):\n",
     ["tests/test_duality.py::test_the_solve_refuses_a_negative_seed_too"]),
    ("the greedy fill ignores the cap",
     DUALITY,
     "            mass = np.minimum(np.maximum(left, 0.0), full)\n",
     "            mass = np.maximum(left, 0.0)\n",
     ["tests/test_duality.py::"
      "test_numeric_avar_certificates_reach_the_cap[0.5]",
      f"{SOLVE_PROPERTY}[0]"]),
    ("the breakpoint reads each share as if no mass were capped",
     DUALITY,
     "            p = int(np.argmax(left * np.exp(zs - tail) <= cap))\n",
     "            p = int(np.argmax(np.exp(zs - tail) <= cap))\n",
     [f"{SOLVE_PROPERTY}[0]"]),
    ("the solve's ceiling stop is 10^6 times wider",
     DUALITY,
     "    reached = value >= ceiling - CEILING_TOL * (1.0 + abs(ceiling))\n",
     "    reached = value >= ceiling - 1e6 * CEILING_TOL * (1.0 + abs(ceiling))\n",
     [SHORT_OF_CEILING]),
    ("a capped entropy takes the greedy vertex",
     DUALITY,
     "        if conj.beta == math.inf:\n"
     "            mass = ",
     "        if True:\n"
     "            mass = ",
     [f"{SOLVE_PROPERTY}[0]"]),
    ("brent_max cuts a bracket on the wrong side of a probe that does not "
     "improve",
     SEARCH,
     "            if u < x:\n"
     "                a = u\n",
     "            if u > x:\n"
     "                a = u\n",
     ["tests/test_duality.py::test_line_max_keeps_feasible_band_around_anchor",
      "tests/test_duality.py::"
      "test_line_max_endpoints_exact_and_never_below_anchor"]),
    ("brent_max moves its best point on a tie",
     SEARCH,
     "        if fu > fx:\n",
     "        if fu >= fx:\n",
     ["tests/test_duality.py::"
      "test_line_max_keeps_feasible_band_around_anchor"]),
    ("brent_max stops at a bracket 100 times wider",
     SEARCH,
     "    tol = 0.25 * max(width, 1e-15 * (1.0 + abs(lo) + abs(hi)))\n",
     "    tol = 25.0 * max(width, 1e-15 * (1.0 + abs(lo) + abs(hi)))\n",
     ["tests/test_duality.py::test_line_max_stops_on_a_certified_plateau",
      "tests/test_duality.py::"
      "test_stepped_conjugates_agree_with_the_line_search_path[0]"]),
    ("the entropic coordinate step's A_i keeps atom i's own term",
     RISK,
     "        z[i] = -math.inf\n",
     "",
     [f"{COORD_STEP_PROPERTY}[0]",
      "tests/test_duality.py::test_fenchel_numeric_agrees_with_closed_form"]),
    ("the kink step's candidates leave out the segment ends",
     RISK,
     "        ts = np.concatenate(([lo], np.unique(ts[(ts > lo) & (ts < hi)]),\n"
     "                             [hi]))\n",
     "        ts = np.unique(ts[(ts > lo) & (ts < hi)])\n",
     [f"{COORD_STEP_PROPERTY}[0]",
      "tests/test_duality.py::"
      "test_a_slow_ray_past_the_probes_diverges_without_overflow"]),
    ("the spike layout's readers skip the limit-equality check",
     CONVERGENCE,
     "    if (isinstance(family._layout, np.ndarray)\n"
     "            or not np.array_equal(f.values, family.limit.values)):\n",
     "    if isinstance(family._layout, np.ndarray):\n",
     [SPIKE_PROPERTY]),
    ("the spike layout's residual r_k is taken as c",
     CONVERGENCE,
     "    return (fv + height) - fv\n",
     "    return np.full(len(fv), height)\n",
     [SPIKE_PROPERTY]),
    ("the spike rows' bumps start at row 0 of every read, not at its start",
     CONVERGENCE,
     "        spiked = np.arange(start, min(start + len(out), limit.size))\n"
     "        out[spiked - start, spiked] += height\n",
     "        spiked = np.arange(min(len(out), limit.size))\n"
     "        out[spiked, spiked] += height\n",
     [SPIKE_PROPERTY,
      "tests/test_convergence_matrix.py::"
      "test_fatou_on_a_spike_layout_matches_a_dense_copy_bit_for_bit[2]"]),
    ("tables interpolate log-linearly between positive knots",
     ORLICZ,
     "    out = knots.ys[i] + (inside - knots.ts[i]) / knots.dt[i] * knots.dy[i]\n",
     "    y0, y1 = knots.ys[i], knots.ys[i + 1]\n"
     "    frac = (inside - knots.ts[i]) / knots.dt[i]\n"
     "    with np.errstate(all='ignore'):\n"
     "        out = np.where((y0 > 0.0) & (y1 > 0.0), y0 * (y1 / y0) ** frac,\n"
     "                       y0 + frac * knots.dy[i])\n",
     ["tests/test_specs_io.py::test_custom_table_knots_and_interpolation",
      f"{TABLE_PROPERTY}[0]", f"{TABLE_KERNEL_PROPERTY}[0-plain]"]),
    ("tables whose chord slopes fall are accepted",
     SPECS,
     "    if np.any(np.diff(slopes)\n"
     "           < -TABLE_SLOPE_TOL * np.maximum(1.0, slopes[:-1])):\n",
     "    if False:\n",
     ["tests/test_specs_io.py::"
      "test_custom_table_rejects[t,value\\n0,0\\n1,1\\n2,1.5\\n]"]),
    ("the table kernel's knot index is one too high",
     ORLICZ,
     "    i = np.searchsorted(knots.ts, inside, side=\"right\") - 1\n",
     "    i = np.searchsorted(knots.ts, inside, side=\"right\")\n",
     [f"{TABLE_KERNEL_PROPERTY}[0-plain]",
      f"{TABLE_KERNEL_PROPERTY}[0-flat]"]),
    ("the table conjugate drops its tail branch",
     ORLICZ,
     "    out[tail] = at_wall\n",
     "",
     [f"{TABLE_CONJUGATE_PROPERTY}[0-plain]",
      f"{TABLE_CONJUGATE_PROPERTY}[0-horizon]"]),
    ("the power-scale log fallback is dropped",
     ORLICZ,
     "    if all(_TINY <= x < math.inf for x in (*factors, c_dual)):\n",
     "    if True:\n",
     [f"{POWER_ROUND_TRIP}[0]",
      "tests/test_cli.py::"
      "test_a_power_whose_conjugate_scale_needs_logs_exits_0[conjugate]"]),
    ("a scalar call lets the kernel warn on overflow",
     ORLICZ,
     "        with np.errstate(over=\"ignore\"):\n"
     "            return float(self._values(np.array([t], dtype=float))[0])\n",
     "        return float(self._values(np.array([t], dtype=float))[0])\n",
     [f"{ONE_KERNEL_PROPERTY}[exp_young]", f"{ONE_KERNEL_PROPERTY}[power_2]"]),
    ("the power check reads a numpy exponent in numpy arithmetic",
     ORLICZ,
     "    p = float(p)\n",
     "",
     [f"{NUMPY_POWER}[float64]", f"{NUMPY_POWER}[float]"]),
    ("the validation memo's key drops the seed",
     DUALITY,
     "    key = (validation_trials, seed + 101)\n",
     "    key = (validation_trials,)\n",
     ["tests/test_duality.py::"
      "test_new_trials_seeds_and_copies_validate_again"]),
    ("a failed validation verdict is remembered as passed",
     DUALITY,
     "        verdicts[key] = broken\n",
     "        verdicts[key] = ()\n",
     ["tests/test_duality.py::"
      "test_a_failed_verdict_is_refused_the_same_way_each_time"]),
    ("the validation memo is never read",
     DUALITY,
     "    broken = verdicts.get(key)\n",
     "    broken = None\n",
     ["tests/test_duality.py::"
      "test_a_repeat_reconstruct_does_not_validate_again",
      "tests/test_acceptance.py::"
      "test_criterion_04_validates_each_functional_once",
      "tests/test_cli.py::"
      "test_verify_all_validates_each_certified_functional_once"]),
]


def run_tests(copy: Path, ids: list[str]) -> tuple[int, set[str]]:
    """Run ``ids`` in ``copy``: pytest's exit code and the ids that failed.

    Asserts run plain: rewriting them for their messages cost about 2 s of
    each run's 2.5 s, and only pass or fail is read here."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
         "no:cacheprovider", "--assert=plain", *ids],
        cwd=copy, env=env, capture_output=True, text=True)
    failed = {line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))}
    return proc.returncode, failed


def main() -> int:
    failures = 0
    begin = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")

        code, failed = run_tests(copy, sorted({i for *_, ids in MUTANTS
                                               for i in ids}))
        if code != 0:
            print(f"FAIL unmutated: pytest exit {code}; failed: "
                  f"{', '.join(sorted(failed)) or 'none reported'}")
            return 1

        for name, rel, old, new, ids in MUTANTS:
            path = copy / rel
            text = path.read_text()
            found = text.count(old)
            if found != 1:
                print(f"FAIL {name}: its old text occurs {found} times in "
                      f"{rel}, not once")
                failures += 1
                continue
            start = time.perf_counter()
            path.write_text(text.replace(old, new))
            try:
                code, failed = run_tests(copy, ids)
            finally:
                path.write_text(text)
            took = time.perf_counter() - start
            survivors = [i for i in ids if i not in failed]
            # pytest exits 1 when tests ran and some failed; any other code
            # with failures missing means the ids did not all run
            if code == 1 and not survivors:
                print(f"killed   {name} ({took:.1f} s)")
            else:
                print(f"FAIL {name}: pytest exit {code}; passed or did not "
                      f"run: {', '.join(survivors)}")
                failures += 1
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed in "
          f"{time.perf_counter() - begin:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
