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
PAIR_PROPERTY = ("tests/test_duality.py::"
                 "test_pair_lines_read_from_two_atoms_match_the_whole_objective")
STEP_PROPERTY = ("tests/test_duality.py::"
                 "test_pair_steps_reach_the_line_search_maximum")
BOX_ONLY_BICONJUGATE = ("tests/test_duality.py::"
                        "test_biconjugate_recovers_box_only_members")
COORD_STEP_PROPERTY = ("tests/test_duality.py::"
                       "test_coordinate_steps_reach_the_line_search_maximum")
TABLE_PROPERTY = ("tests/test_specs_io.py::"
                  "test_convex_tables_load_convex_with_exact_conjugates")

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
    ("a warm window that gains nothing falls back to the whole segment",
     DUALITY,
     "        if not val > v:\n"
     "            return None, evals\n"
     "        # inner edges fall back: without it numeric AVaR took 2-7 % more"
     " calls\n"
     "        if (t != a or a == lo) and (t != b or b == hi):\n",
     "        # inner edges fall back: without it numeric AVaR took 2-7 % more"
     " calls\n"
     "        if val > v and (t != a or a == lo) and (t != b or b == hi):\n",
     ["tests/test_duality.py::"
      "test_a_warm_window_that_gains_nothing_ends_its_line"]),
    ("restart 0 never tries the unit density",
     DUALITY,
     "        if r == 0 and v == -math.inf:\n",
     "        if False:\n",
     ["tests/test_duality.py::test_numeric_expectation_on_a_space_of_mass_two"]),
    ("the ascent never switches to transfers only",
     DUALITY,
     "                transfers_only = coord_step is None and skipped == tried\n",
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
      "test_pattern_line_stops_where_a_coordinate_reaches_zero",
      "tests/test_duality.py::"
      "test_pattern_segment_keeps_nonnegative_coordinates_nonnegative"]),
    ("AVaR's conjugate allows g up to 1/alpha + FEAS_TOL",
     RISK,
     "        closed_form_conjugate=SeparableConjugate(space, upper=cap),\n",
     "        closed_form_conjugate=SeparableConjugate(space,\n"
     "                                                 upper=cap + FEAS_TOL),\n",
     ["tests/test_risk.py::test_avar_conjugate_box_rules",
      "tests/test_duality.py::test_avar_ascent_stays_inside_the_cap"]),
    ("pair lines skip the conjugate's box check",
     RISK,
     "            if not (lower <= xi <= upper and lower <= xj <= upper):\n"
     "                return -math.inf\n",
     "",
     [f"{PAIR_PROPERTY}[0]"]),
    ("pair lines drop the current atoms' terms",
     RISK,
     "            di = (xi * log(xi) if xi > 0.0 else 0.0) - ti\n"
     "            dj = (xj * log(xj) if xj > 0.0 else 0.0) - tj\n",
     "            di = xi * log(xi) if xi > 0.0 else 0.0\n"
     "            dj = xj * log(xj) if xj > 0.0 else 0.0\n",
     [f"{PAIR_PROPERTY}[0]"]),
    ("pair steps are not cut to their segment",
     RISK,
     "        return min(max(wi * (xi - gi), lo), hi)\n",
     "        return wi * (xi - gi)\n",
     [f"{STEP_PROPERTY}[0]"]),
    ("entropic pair steps flip the sign of beta df",
     RISK,
     "        z = self.beta * df\n",
     "        z = -self.beta * df\n",
     [f"{STEP_PROPERTY}[0]",
      "tests/test_duality.py::"
      "test_numeric_entropic_reconstruct_resolves_a_tiny_gibbs_mass"]),
    ("a pair step that reads -inf is not searched",
     DUALITY,
     "                        search = val == -math.inf\n",
     "                        search = False\n",
     [f"{BOX_ONLY_BICONJUGATE}[3-avar]",
      f"{BOX_ONLY_BICONJUGATE}[5-worst_case]"]),
    ("nonnegative pair segments run past the cap",
     DUALITY,
     "                    if upper < math.inf:\n"
     "                        lo, hi = _capped_segment(lo, hi, gi, gj, wi, wj,"
     " upper)\n",
     "",
     ["tests/test_duality.py::"
      "test_numeric_avar_certificates_reach_the_cap[0.5]"]),
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
     SPECS,
     "        return y0 + (t - t0) / (t1 - t0) * (y1 - y0)\n",
     "        if y0 > 0.0 and y1 > 0.0:\n"
     "            return y0 * (y1 / y0) ** ((t - t0) / (t1 - t0))\n"
     "        return y0 + (t - t0) / (t1 - t0) * (y1 - y0)\n",
     ["tests/test_specs_io.py::test_custom_table_knots_and_interpolation",
      f"{TABLE_PROPERTY}[0]"]),
    ("tables whose chord slopes fall are accepted",
     SPECS,
     "    if np.any(np.diff(slopes) < -1e-9 * np.maximum(1.0, slopes[:-1])):\n",
     "    if False:\n",
     ["tests/test_specs_io.py::"
      "test_custom_table_rejects[t,value\\n0,0\\n1,1\\n2,1.5\\n]"]),
]


def run_tests(copy: Path, ids: list[str]) -> tuple[int, set[str]]:
    """Run ``ids`` in ``copy``: pytest's exit code and the ids that failed."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
         "no:cacheprovider", *ids],
        cwd=copy, env=env, capture_output=True, text=True)
    failed = {line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))}
    return proc.returncode, failed


def main() -> int:
    failures = 0
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
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
