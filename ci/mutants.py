"""Check that the tests still catch recorded source mutations.

    python ci/mutants.py

Each entry of MUTANTS names a file, an exact text in it, the text that
replaces it, and the test ids that must fail once it does. The script
copies ``src``, ``tests``, ``pyproject.toml`` and the work ledger
``ci/work.json``, which tests read, to a temporary directory, runs every
named id there once unmutated (they must all pass, or a failure under a
mutant would prove nothing), then applies each mutant alone and runs only
its ids. It exits 1 when the unmutated run fails, when a mutant's
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
CLI = "src/orliczkit/cli.py"
LEDGER_BATTERY = ("tests/test_cli.py::"
                  "test_run_battery_reports_the_work_ledger_counts")
BISECTION_PROPERTY = ("tests/test_norms.py::"
                      "test_luxemburg_equals_the_bisection_bit_for_bit")
TINY_POWER_INDICATORS = ("tests/test_norms.py::"
                         "test_power_indicator_norms_are_exact_down_to_tiny_"
                         "masses")
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
MEASURE = "src/orliczkit/measure.py"
FOREIGN_SPACE = ("tests/test_spaces.py::"
                 "test_a_foreign_space_is_refused_before_any_evaluation")
BAD_STARTS_EVERYWHERE = ("tests/test_duality.py::"
                         "test_bad_starts_are_refused_on_every_path")
BLOCKED_PROBES = ("tests/test_duality.py::"
                  "test_blocked_probes_match_the_scalar_path")
PROBES_AT_1024 = ("tests/test_duality.py::"
                  "test_probes_at_1024_atoms_stay_within_their_blocks")
BAD_BETA = ("tests/test_risk.py::"
            "test_a_separable_conjugate_refuses_a_beta_that_is_not_positive")
NEGATIVE_SEED = ("tests/test_convergence.py::"
                 "test_generator_refuses_a_negative_seed_before_any_work")
ROOT_PROPERTY = ("tests/test_norms.py::"
                 "test_amemiya_root_matches_brent_on_a_custom_twin")
HEAVY_ROOTS = ("tests/test_norms.py::"
               "test_amemiya_roots_of_heavy_indicators_hold_their_width")
FAR_MINIMIZERS = ("tests/test_norms.py::"
                  "test_amemiya_finds_minimizers_far_from_the_start")
FIRST_FLAT = ("tests/test_duality.py::"
              "test_stepped_conjugates_stop_at_their_first_flat_restart")
FEASIBLE_AVAR = ("tests/test_duality.py::"
                 "test_a_feasible_avar_conjugate_stops_at_its_first_flat_"
                 "restart")
STEPPED_ONLY = ("tests/test_duality.py::"
                "test_only_a_stepped_ascent_skips_the_restarts_after_a_flat_"
                "one")
AMEMIYA_CALLS = ("tests/test_norms.py::test_amemiya_evaluates_its_kernels_"
                 "iterations_plus_one_times")

# (name, file, old text, new text, test ids that must fail)
MUTANTS = [
    ("row probes report the last diverging ray, not the first",
     DUALITY,
     "        for ray, trace in zip(rays, traces.reshape(len(rays), -1)"
     ".tolist()):\n",
     "        for ray, trace in reversed(list(zip(\n"
     "                rays, traces.reshape(len(rays), -1).tolist()))):\n",
     ["tests/test_duality.py::"
      "test_fenchel_negative_coordinate_diverges_via_indicator_ray",
      "tests/test_duality.py::test_row_probes_match_the_scalar_path",
      "tests/test_duality.py::"
      "test_row_probes_match_the_scalar_path_seeded[5]"]),
    ("restart 0 never tries the unit density",
     DUALITY,
     "        if r == 0 and v == -math.inf:\n",
     "        if False:\n",
     ["tests/test_duality.py::test_numeric_expectation_on_a_space_of_mass_two"]),
    ("a stepped ascent runs every restart again",
     DUALITY,
     "        if coord_step is not None and reason == \"flat\":\n"
     "            break\n",
     "",
     [FEASIBLE_AVAR, f"{FIRST_FLAT}[0]", f"{FIRST_FLAT}[1]", STEPPED_ONLY,
      LEDGER_BATTERY]),
    ("a stepless ascent also stops at its first flat restart",
     DUALITY,
     "        if coord_step is not None and reason == \"flat\":\n",
     "        if reason == \"flat\":\n",
     [STEPPED_ONLY]),
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
     "                check_rows(phi, rows[[0, -1]], vals[[0, -1]])\n",
     "",
     ["tests/test_duality.py::"
      "test_fenchel_conjugate_refuses_a_stale_row_kernel",
      "tests/test_duality.py::test_results_report_their_evaluations"]),
    ("the Luxemburg search keeps a 1e-14 absolute floor",
     NORMS,
     "            if ib - ia > (2 if terminal33 else 1):\n",
     "            if ib - ia > (2 if terminal33 else 1) and (ib - ia) * s > 1e-14:\n",
     [TINY_POWER_INDICATORS]),
    ("the Luxemburg search returns a feasible probe's cell without probing "
     "its open lower end",
     NORMS,
     "            if ib - ia > (2 if terminal33 else 1):\n",
     "            if ib - ia > (2 if terminal33 else 1) and m > 1.0:\n",
     [f"{BISECTION_PROPERTY}[0]", f"{BISECTION_PROPERTY}[2]"]),
    ("the Luxemburg norm is the infeasible end of the terminal cell",
     NORMS,
     "    return NormReport(top * hi, calls, (top * lo, top * hi), m)\n",
     "    return NormReport(top * lo, calls, (top * lo, top * hi), m)\n",
     [f"{BISECTION_PROPERTY}[1]"]),
    ("the indicator norms are the infeasible ends of their grid cells",
     NORMS,
     "        return np.array(_switch(m, x, phi._values, top_mod)[1])\n",
     "        return np.array(_switch(m, x, phi._values, top_mod)[0])\n",
     ["tests/test_norms.py::"
      "test_lockstep_indicator_norms_equal_the_scalar_reference_seeded[0]"]),
    ("the walk skips the last scale of a call",
     NORMS,
     "        walking, e0 = going, e0 + k\n",
     "        walking, e0 = going, e0 + k + 1\n",
     ["tests/test_norms.py::"
      "test_a_tiny_indicator_walks_sixteen_scales_per_call"]),
    ("the search probes the wrong end of a grid cell",
     NORMS,
     "            near_hi = c_hi < ib and c_hi - guess <= guess - c_lo\n",
     "            near_hi = c_hi < ib and c_hi - guess > guess - c_lo\n",
     ["tests/test_norms.py::"
      "test_the_search_probes_the_nearer_end_of_its_cell[exp_young-552]",
      "tests/test_norms.py::"
      "test_the_search_probes_the_nearer_end_of_its_cell"
      "[exp_young_conjugate-515]"]),
    ("the Amemiya root answers at the infeasible end of the terminal cell",
     NORMS,
     "        at_value = _modular(weights, x, np.array([[hi]]), phi._values)[0][0]\n"
     "    return NormReport(top * hi * (1.0 + at_value), calls + 1,\n",
     "        at_value = _modular(weights, x, np.array([[lo]]), phi._values)[0][0]\n"
     "    return NormReport(top * lo * (1.0 + at_value), calls + 1,\n",
     [f"{ROOT_PROPERTY}[linf_step-0]", f"{ROOT_PROPERTY}[kinked_horizon-0]"]),
    ("the exp_young companion drops its Taylor branch",
     ORLICZ,
     "            return _taylor_below((ts - 1.0) * np.expm1(ts) + ts, ts,\n"
     "                                 _EXP_YOUNG_COMPANION_TAYLOR)\n",
     "            return (ts - 1.0) * np.expm1(ts) + ts\n",
     [f"{HEAVY_ROOTS}[exp_young]"]),
    ("the exp_young_conjugate companion drops its Taylor branch",
     ORLICZ,
     "            return _taylor_below(ts - np.log1p(ts), ts,\n"
     "                                 _EXP_YOUNG_CONJUGATE_COMPANION_"
     "TAYLOR)\n",
     "            return ts - np.log1p(ts)\n",
     [f"{HEAVY_ROOTS}[exp_young_conjugate]"]),
    ("the finite-slope limit reads slope 1",
     NORMS,
     "                return NormReport(slope.limit * float(np.dot("
     "weights[0], absf)),\n",
     "                return NormReport(1.0 * float(np.dot(weights[0], absf)),\n",
     ["tests/test_norms.py::"
      "test_linear_tails_without_a_switch_take_the_limit",
      f"{ROOT_PROPERTY}[twice_linear-0]"]),
    ("a custom kind takes the root",
     NORMS,
     "    if phi.kind == CUSTOM:\n",
     "    if False:\n",
     [f"{FAR_MINIMIZERS}[mass_1e250-custom]",
      f"{AMEMIYA_CALLS}[custom_square]"]),
    ("bracket_min's upper end stays at the walk's start",
     SEARCH,
     "    lo, hi = xl / factor, xl * factor\n",
     "    lo, hi = xl / factor, max(xr * factor, xl * factor)\n",
     [f"{FAR_MINIMIZERS}[dominated_atom-custom]"]),
    ("bracket_min stops after 400 steps",
     SEARCH,
     "    factor, max_steps = 2.0, 4000\n",
     "    factor, max_steps = 2.0, 400\n",
     [f"{FAR_MINIMIZERS}[mass_1e300-custom]"]),
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
    ("a stepped sweep is kept when its read does not gain",
     DUALITY,
     "                if not v > v_before:\n"
     "                    g, v = g_start, v_before\n"
     "                elif v >= stop_at:\n",
     "                if v >= stop_at:\n",
     ["tests/test_duality.py::"
      "test_a_stepped_sweep_that_does_not_gain_is_dropped_whole",
      "tests/test_duality.py::"
      "test_a_coordinate_step_that_reads_minus_inf_is_not_taken"]),
    ("a stepped ascent reads the objective after every step",
     DUALITY,
     "                    evals += reads\n",
     "                    evals += reads + 1\n"
     "                    objective(g)\n",
     ["tests/test_duality.py::"
      "test_stepped_ascents_read_each_coordinate_once_per_sweep",
      "tests/test_duality.py::"
      "test_a_stepped_sweep_that_does_not_gain_is_dropped_whole"]),
    ("a stepped sweep counts its objective read twice",
     DUALITY,
     "                v = objective(g)\n"
     "                evals += 1\n",
     "                v = objective(g)\n"
     "                evals += 2\n",
     ["tests/test_duality.py::"
      "test_stepped_ascents_read_each_coordinate_once_per_sweep",
      LEDGER_BATTERY]),
    ("run_battery leaves the determinism row out of its work",
     CLI,
     "    work[\"determinism\"] = c1.evaluations + c2.evaluations\n",
     "",
     [LEDGER_BATTERY]),
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
     "    obj = _DualObjective(phi.evaluate, space, g.values)\n",
     "    obj = _DualObjective(phi.evaluate, space, g.values)\n",
     [f"{BAD_STARTS}[0-0]", f"{BAD_STARTS}[-1-2]"]),
    ("the biconjugate check does not check its starts",
     DUALITY,
     "    space.require_same(*(f.space for f in probes))\n"
     "    _check_restarts(restarts, seed)\n",
     "    space.require_same(*(f.space for f in probes))\n",
     ["tests/test_duality.py::test_the_solve_refuses_a_negative_seed_too",
      f"{BAD_STARTS_EVERYWHERE}[0-0-closed]"]),
    ("reconstruct checks its starts only on the numeric path",
     DUALITY,
     "    _check_restarts(restarts, seed)\n"
     "    if not psi.is_finite_everywhere:\n",
     "    if force_numeric or phi.closed_form_maximizer is None:\n"
     "        _check_restarts(restarts, seed)\n"
     "    if not psi.is_finite_everywhere:\n",
     [f"{BAD_STARTS_EVERYWHERE}[-1-8-closed]",
      f"{BAD_STARTS_EVERYWHERE}[-102-8-closed]",
      f"{BAD_STARTS_EVERYWHERE}[0-0-closed]"]),
    ("validate accepts a negative seed",
     RISK,
     "    if trials < 1 or seed < 0:\n",
     "    if trials < 1:\n",
     ["tests/test_risk.py::"
      "test_validate_refuses_a_negative_seed_before_any_call"]),
    ("the w*-check skips the family's space",
     CONVERGENCE,
     "    space.require_same(family.limit.space, f0.space,",
     "    space.require_same(f0.space,",
     [f"{FOREIGN_SPACE}[wstar-family]"]),
    ("the Fatou check skips the families' space",
     CONVERGENCE,
     "    phi.space.require_same(*(fam.limit.space for fam in families))\n",
     "",
     [f"{FOREIGN_SPACE}[fatou]"]),
    ("the rule checks only its first space",
     MEASURE,
     "        for other in spaces:\n",
     "        for other in spaces[:1]:\n",
     ["tests/test_spaces.py::test_require_same_reads_every_space",
      f"{FOREIGN_SPACE}[ae_converges]", f"{FOREIGN_SPACE}[extract-f0]",
      f"{FOREIGN_SPACE}[wstar-test]", f"{FOREIGN_SPACE}[biconjugate]"]),
    ("the greedy fill ignores the cap",
     DUALITY,
     "        mass = np.minimum(np.maximum(left, 0.0), full)\n",
     "        mass = np.maximum(left, 0.0)\n",
     ["tests/test_duality.py::"
      "test_numeric_avar_certificates_reach_the_cap[0.5]",
      f"{SOLVE_PROPERTY}[0]"]),
    ("the solve's ceiling stop is 10^6 times wider",
     DUALITY,
     "    reached = value >= ceiling - CEILING_TOL * (1.0 + abs(ceiling))\n",
     "    reached = value >= ceiling - 1e6 * CEILING_TOL * (1.0 + abs(ceiling))\n",
     [SHORT_OF_CEILING]),
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
    ("a custom Orlicz function's companion reads zeros",
     ORLICZ,
     "        raise ValueError(\"a custom Orlicz function has no companion\")\n",
     "        return np.zeros_like(ts)\n",
     ["tests/test_orlicz.py::test_a_custom_function_has_no_companion"]),
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
    ("the ray reader skips the last partial block",
     DUALITY,
     "    for start in range(0, n_rays, per_block):\n",
     "    for start in range(0, n_rays - n_rays % per_block, per_block):\n",
     [f"{BLOCKED_PROBES}[74]", f"{BLOCKED_PROBES}[300]"]),
    ("the ray blocks ignore n",
     DUALITY,
     "                 else max(1, _block_rows(n) // len(scales)))\n",
     "                 else max(1, _block_rows(1) // len(scales)))\n",
     [f"{BLOCKED_PROBES}[74]", f"{BLOCKED_PROBES}[300]", PROBES_AT_1024]),
    ("a separable conjugate accepts a beta that is not positive",
     RISK,
     "        if not beta > 0.0:\n",
     "        if False:\n",
     [f"{BAD_BETA}[0.0]", f"{BAD_BETA}[-1.0]", f"{BAD_BETA}[nan]"]),
    ("the spike bound is taken at the smallest visited weight",
     CONVERGENCE,
     "        worst = indicator_norm(phi, float(space.weights[:length].max()))\n",
     "        worst = indicator_norm(phi, float(space.weights[:length].min()))\n",
     ["tests/test_convergence.py::"
      "test_spike_bound_covers_every_term_on_geometric_weights"]),
    ("the first pairing of each later extraction block is doubled",
     CONVERGENCE,
     "            np.matmul(d, wg, out=pairings_all[start:start + len(rows)])\n",
     "            np.matmul(d, wg, out=pairings_all[start:start + len(rows)])\n"
     "            if start:\n"
     "                pairings_all[start] *= 2.0\n",
     ["tests/test_convergence_matrix.py::"
      "test_extraction_picks_the_first_row_of_a_later_block"]),
    ("SequenceFamily.terms views its rows in reverse order",
     CONVERGENCE,
     "        return tuple(Rv._wrap(self.limit.space, row) for row in "
     "self.values)\n",
     "        return tuple(Rv._wrap(self.limit.space, row) for row in "
     "self.values[::-1])\n",
     ["tests/test_convergence_matrix.py::"
      "test_generated_values_match_their_formulas"]),
    ("the scaled-power kernel drops its scale",
     ORLICZ,
     "            return self.scale * np.power(ts, self.p)\n",
     "            return np.power(ts, self.p)\n",
     ["tests/test_orlicz.py::test_catalog_evaluations",
      "tests/test_orlicz.py::test_companions_are_t_times_the_left_"
      "derivative_less_phi[scaled_power_2.5_c4]"]),
    ("generate_sequence accepts a negative seed",
     CONVERGENCE,
     "    if seed < 0:\n",
     "    if False:\n",
     [f"{NEGATIVE_SEED}[norm_convergent]",
      f"{NEGATIVE_SEED}[ae_only_traveling_spike]"]),
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
        (copy / "ci").mkdir()
        for part in ("pyproject.toml", "ci/work.json"):
            shutil.copy2(ROOT / part, copy / part)

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
