"""Command-line surface: exit codes, output documents, determinism."""

import argparse
import json
import math

import numpy as np
import pytest

from orliczkit import OrliczFunction, cli, conjugate
from orliczkit.cli import main

SPACE3 = "atom_id,weight,block_id\n0,1.0,0\n1,1.0,0\n2,1.0,1\n"
PROB2 = "atom_id,weight,block_id\n0,0.5,0\n1,0.5,0\n"


@pytest.fixture
def files(tmp_path):
    def make(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return make


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- norm ---------------------------------------------------------------------


def test_norm_power2_unit_weights(files, capsys):
    space = files("space.csv", SPACE3)
    rv = files("f.csv", "atom_id,value\n0,1\n1,2\n2,2\n")
    code, out, _ = run_cli(capsys, "norm", "--space", space, "--rv", rv,
                           "--orlicz", "power:p=2")
    assert code == 0
    doc = json.loads(out)
    assert doc["luxemburg"] == pytest.approx(3.0, rel=1e-9)
    assert doc["amemiya"] >= doc["luxemburg"] - 1e-12
    assert doc["sandwich_ok"] is True


SPACE8 = "atom_id,weight,block_id\n" + "".join(
    f"{i},0.125,0\n" for i in range(8))
F8 = (0.3, -1.2, 2.5, 0.7, -0.4, 1.9, -2.2, 0.15)


@pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200])
@pytest.mark.parametrize("spec", ["linear", "power:p=2", "exp_young",
                                  "linf_step"])
def test_norm_sandwich_holds_at_every_scale(files, capsys, spec, scale):
    # both norms are resolved to about 1e-10 relative: an absolute slack of
    # 1e-9 read linear's equal norms at 1e200, 3.7e-11 relative apart, as
    # a broken sandwich
    space = files("space.csv", SPACE8)
    rv = files("f.csv", "atom_id,value\n" + "".join(
        f"{i},{v * scale!r}\n" for i, v in enumerate(F8)))
    code, out, _ = run_cli(capsys, "norm", "--space", space, "--rv", rv,
                           "--orlicz", spec)
    assert code == 0
    assert json.loads(out)["sandwich_ok"] is True


def test_norm_sandwich_holds_on_a_heavy_atom(files, capsys):
    # one atom of mass 1e250 under t^2: the Amemiya norm is 2e125, twice the
    # Luxemburg norm; a bracket capped at 400 doublings read 1.9e4 times it
    space = files("space.csv", "atom_id,weight,block_id\n0,1e250,0\n")
    rv = files("f.csv", "atom_id,value\n0,1\n")
    code, out, _ = run_cli(capsys, "norm", "--space", space, "--rv", rv,
                           "--orlicz", "power:p=2")
    assert code == 0
    doc = json.loads(out)
    assert doc["amemiya"] == pytest.approx(2e125, rel=1e-9)
    assert doc["sandwich_ok"] is True


def test_norm_step_function_is_sup_norm(files, capsys):
    space = files("space.csv", SPACE3)
    rv = files("f.csv", "atom_id,value\n0,3\n1,-1\n2,0\n")
    code, out, _ = run_cli(capsys, "norm", "--space", space, "--rv", rv,
                           "--orlicz", "linf_step")
    assert code == 0
    assert json.loads(out)["luxemburg"] == pytest.approx(3.0, rel=1e-9)


# -- conjugate / classify -----------------------------------------------------


def test_conjugate_table_csv(files, capsys):
    code, out, _ = run_cli(capsys, "conjugate", "--orlicz", "scaled_power:p=2",
                           "--grid-max", "2.0", "--grid-count", "5",
                           "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "s,conjugate"
    # conjugate of t^2/2 is s^2/2; final row is s = 2
    s, val = lines[-1].split(",")
    assert float(s) == 2.0
    assert float(val) == pytest.approx(2.0, rel=1e-6)


@pytest.mark.parametrize("command", ["conjugate", "classify"])
def test_a_power_whose_conjugate_scale_needs_logs_exits_0(capsys, command):
    # for 1.975e190 t**2.596 the factor (c p)**(-q) of the conjugate's
    # scale is subnormal, and the same factor of the conjugate's own
    # conjugate, its reciprocal, overflows; the scales are taken in logs,
    # where c' = (p - 1) / p * (c p)**(1 - q)
    spec = "scaled_power:p=2.596,c=1.975e190"
    code, out, err = run_cli(capsys, command, "--orlicz", spec)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    if command == "classify":
        assert doc["orlicz"] == spec
        assert doc["conjugate_delta2_at_infinity"] == "holds"
    else:
        p, c = 2.596, 1.975e190
        q = p / (p - 1.0)
        scale = math.exp(math.log((p - 1.0) / p)
                         + (1.0 - q) * math.log(c * p))
        assert doc["s"][-1] == 10.0
        assert doc["conjugate"][-1] == pytest.approx(scale * 10.0 ** q,
                                                     rel=1e-12)


def test_classify_reports_verdicts(files, capsys):
    code, out, _ = run_cli(capsys, "classify", "--orlicz", "power:p=2")
    assert code == 0
    doc = json.loads(out)
    assert doc["reflexive"] == "holds"
    assert doc["c_property_for_sigma_n"] == "holds"

    code, out, _ = run_cli(capsys, "classify", "--orlicz", "linf_step")
    assert code == 0
    doc = json.loads(out)
    assert doc["reflexive"] == "fails"
    assert doc["order_continuous"] == "fails"


def test_classify_infinite_measure_checks_both_regimes(files, capsys):
    code, out, _ = run_cli(capsys, "classify", "--orlicz", "power:p=2",
                           "--measure", "infinite")
    assert code == 0
    doc = json.loads(out)
    assert "phi_delta2_at_zero" in doc
    assert "phi_delta2_at_infinity" in doc


def test_classify_exp_young_conjugate(files, capsys):
    # L log L: its Young function is doubling, its conjugate exp_young is not
    code, out, _ = run_cli(capsys, "classify", "--orlicz",
                           "exp_young_conjugate")
    assert code == 0
    doc = json.loads(out)
    assert doc["phi_delta2_at_infinity"] == "holds"
    assert doc["conjugate_delta2_at_infinity"] == "fails"
    assert doc["reflexive"] == "fails"


# -- represent ----------------------------------------------------------------


def test_represent_entropic_closed_form(files, capsys):
    space = files("space.csv", PROB2)
    rv = files("f.csv", "atom_id,value\n0,1\n1,-1\n")
    code, out, _ = run_cli(capsys, "represent", "--space", space, "--rv", rv,
                           "--risk", "entropic:beta=1", "--orlicz",
                           "exp_young")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(math.log(math.cosh(1.0)), abs=1e-12)
    assert doc["gap"] <= 1e-6
    assert doc["start_index"] is None  # closed form, no numeric search
    assert doc["nonnegative_ok"] is True


def test_represent_refuses_linear_growth(files, capsys):
    space = files("space.csv", PROB2)
    rv = files("f.csv", "atom_id,value\n0,1\n1,-1\n")
    code, _, err = run_cli(capsys, "represent", "--space", space, "--rv", rv,
                           "--risk", "entropic:beta=1", "--orlicz", "linear")
    assert code == 4
    assert "slope" in err


def test_represent_refuses_a_custom_table_of_limit_slope_one(files, capsys):
    space = files("space.csv", PROB2)
    rv = files("f.csv", "atom_id,value\n0,1\n1,-1\n")
    table = files("young.csv", "t,value\n0,0\n1,1\n2,2\n")
    code, out, err = run_cli(capsys, "represent", "--space", space, "--rv",
                             rv, "--risk", "entropic:beta=1", "--orlicz",
                             f"custom:file={table}")
    assert code == 4
    assert out == ""
    assert "slope" in err


def test_value_error_inside_a_command_is_not_a_refusal(files, capsys,
                                                       monkeypatch):
    # a ValueError out of a library call is a bug, not a failed hypothesis:
    # it surfaces as a traceback instead of exit 4
    def broken(*args, **kwargs):
        raise ValueError("broken library call")

    monkeypatch.setattr(cli, "luxemburg_norm", broken)
    space = files("space.csv", SPACE3)
    rv = files("f.csv", "atom_id,value\n0,1\n1,2\n2,2\n")
    with pytest.raises(ValueError, match="broken library call"):
        main(["norm", "--space", space, "--rv", rv, "--orlicz", "power:p=2"])
    assert "refused:" not in capsys.readouterr().err


def test_represent_rejects_control_properties(files, capsys):
    space = files("space.csv", PROB2)
    rv = files("f.csv", "atom_id,value\n0,1\n1,-1\n")
    code, _, err = run_cli(capsys, "represent", "--space", space, "--rv", rv,
                           "--risk", "control:square", "--orlicz", "power:p=2")
    assert code == 4
    assert "monotone" in err


# -- fatou / extraction / closure ---------------------------------------------


def test_fatou_test_catalog_passes(files, capsys):
    space = files("space.csv", PROB2)
    code, out, _ = run_cli(capsys, "fatou-test", "--space", space, "--risk",
                           "entropic:beta=1", "--orlicz", "power:p=2",
                           "--count", "4", "--length", "16")
    assert code == 0
    doc = json.loads(out)
    assert doc["violations"] == 0


def test_fatou_test_flags_control(files, capsys):
    space = files("space.csv", PROB2)
    code, out, _ = run_cli(capsys, "fatou-test", "--space", space, "--risk",
                           "control:square", "--orlicz", "power:p=2",
                           "--count", "2", "--length", "16",
                           "--mode", "norm_convergent")
    # the square control is continuous, hence never violates; use it to
    # confirm mode filtering works and exit code stays 0
    assert code == 0
    assert json.loads(out)["modes"] == ["norm_convergent"]


def test_extract_subseq_geometric_family(files, capsys):
    space = files("space.csv", PROB2)
    rows = ["term_index,atom_id,value"]
    for n in range(1, 26):
        rows.append(f"{n - 1},0,{0.5 ** n!r}")
        rows.append(f"{n - 1},1,0.0")
    family = files("family.csv", "\n".join(rows) + "\n")
    limit = files("limit.csv", "atom_id,value\n0,0\n1,0\n")
    code, out, _ = run_cli(capsys, "extract-subseq", "--space", space,
                           "--family", family, "--rv", limit, "--orlicz",
                           "power:p=2")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"
    assert doc["trace_bound_ok"] is True
    assert doc["pointwise_converged"] is True


def test_extract_subseq_inconclusive_exits_5(files, capsys):
    space = files("space.csv", PROB2)
    rows = ["term_index,atom_id,value"]
    for n in range(12):
        rows.append(f"{n},0,1.0")
        rows.append(f"{n},1,0.0")
    family = files("family.csv", "\n".join(rows) + "\n")
    limit = files("limit.csv", "atom_id,value\n0,0\n1,0\n")
    code, out, _ = run_cli(capsys, "extract-subseq", "--space", space,
                           "--family", family, "--rv", limit, "--orlicz",
                           "power:p=2")
    assert code == 5
    assert json.loads(out)["status"] == "inconclusive"


def test_closure_demo_interior_and_refusal(files, capsys):
    space = files("space.csv", SPACE3)
    verts = ["term_index,atom_id,value"]
    vertex_rows = [(0, [0, 0, 0]), (1, [4, 0, 0]), (2, [0, 4, 0]),
                   (3, [0, 0, 4])]
    for idx, vals in vertex_rows:
        for atom, v in enumerate(vals):
            verts.append(f"{idx},{atom},{v}")
    vfile = files("verts.csv", "\n".join(verts) + "\n")

    inside = files("inside.csv", "atom_id,value\n0,1\n1,1\n2,1\n")
    code, out, _ = run_cli(capsys, "closure-demo", "--space", space,
                           "--vertices", vfile, "--rv", inside, "--orlicz",
                           "power:p=2")
    assert code == 0
    doc = json.loads(out)
    assert doc["distance_euclid"] == pytest.approx(0.0, abs=1e-9)
    assert doc["envelope_ok"] is True

    outside = files("outside.csv", "atom_id,value\n0,1\n1,2\n2,2\n")
    code, _, err = run_cli(capsys, "closure-demo", "--space", space,
                           "--vertices", vfile, "--rv", outside, "--orlicz",
                           "power:p=2")
    assert code == 4
    assert "outside the hull" in err
    assert "0.5773502691896258" in err


def hull_files(files, seed, offset):
    """A 3-vertex hull in R^6 on the uniform space, and a point of it
    (offset 0) or a point pushed off its plane."""
    rng = np.random.default_rng(seed)
    verts = rng.normal(0.0, 1.0, (3, 6))
    point = rng.dirichlet(np.ones(3)) @ verts + offset * rng.normal(0, 1, 6)
    space = files("space6.csv", "atom_id,weight,block_id\n" + "".join(
        f"{i},{1 / 6!r},{i}\n" for i in range(6)))
    vfile = files("verts6.csv", "term_index,atom_id,value\n" + "".join(
        f"{k},{i},{float(v)!r}\n" for k in range(3)
        for i, v in enumerate(verts[k])))
    rv = files("point6.csv", "atom_id,value\n" + "".join(
        f"{i},{float(v)!r}\n" for i, v in enumerate(point)))
    return ["--space", space, "--vertices", vfile, "--rv", rv,
            "--orlicz", "power:p=2"]


def test_closure_demo_certifies_interior_points(files, capsys):
    # seeds 16 and 17 stopped short of the projection and exited 5; the
    # library test covers 200 such points
    for seed in range(20):
        code, out, _ = run_cli(capsys, "closure-demo",
                               *hull_files(files, seed, 0.0))
        assert code == 0, seed
        assert json.loads(out)["extraction_pointwise"] is True


def test_closure_demo_refuses_points_off_the_hull(files, capsys):
    for seed in range(50):
        code, _, err = run_cli(capsys, "closure-demo",
                               *hull_files(files, 1000 + seed, 0.5))
        assert code == 4, seed
        assert "outside the hull" in err


# -- verify-all ---------------------------------------------------------------


def test_verify_all_passes_and_is_deterministic(files, capsys):
    code, out1, _ = run_cli(capsys, "verify-all", "--seed", "7")
    assert code == 0
    code, out2, _ = run_cli(capsys, "verify-all", "--seed", "7")
    assert code == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["all_passed"] is True
    assert doc["failures"] == 0
    assert len(doc["rows"]) >= 15


def test_verify_all_validates_each_certified_functional_once(capsys,
                                                             validations):
    # its 21 certificates come from four functional objects, each certified
    # with one seed and 40 trials: one validation each; the
    # validate_catalog row calls risk.validate itself, uncounted
    code, _, _ = run_cli(capsys, "verify-all", "--seed", "41")
    assert code == 0
    assert len(validations) == len(set(map(id, validations))) == 4


def test_verify_all_zero_tolerance_diagnostic(files, capsys):
    code, out, _ = run_cli(capsys, "verify-all", "--seed", "7", "--tol", "0")
    assert code == 5
    doc = json.loads(out)
    assert not doc["all_passed"]
    flagged = [r for r in doc["rows"] if r["tolerance_induced"]]
    assert flagged  # failures only because the override removed all slack


def test_verify_all_csv_table(files, capsys):
    code, out, _ = run_cli(capsys, "verify-all", "--seed", "3",
                           "--format", "csv")
    assert code == 0
    header = out.splitlines()[0]
    assert header.startswith("label,passed,margin,tol")


@pytest.mark.parametrize("seed", [*range(10), 41])
def test_young_sweep_draws_its_pairs_in_the_scalar_order(seed):
    # verify-all's Young sweep draws each function's 400 (t, s) pairs as one
    # (400, 2) array; its rows are the pairs that alternating scalar draws
    # of the same generator give, across all five functions, and the scalar
    # loop over them counts the violations the arrays count
    rng = np.random.default_rng([seed, 2])
    rows = [rng.uniform(0.0, 5.0, (400, 2)) for _ in range(5)]
    rng = np.random.default_rng([seed, 2])
    scalars = [float(rng.uniform(0.0, 5.0)) for _ in range(5 * 800)]
    assert np.concatenate(rows).ravel().tolist() == scalars
    young = (OrliczFunction.power(2.0), OrliczFunction.scaled_power(2.0),
             OrliczFunction.linear(), OrliczFunction.exp_young(),
             OrliczFunction.linf_step())
    for phi, pairs in zip(young, rows):
        psi = conjugate(phi)
        t, s = pairs.T
        assert np.count_nonzero(
            t * s > phi.values(t) + psi.values(s) + 1e-9) == sum(
            a * b > phi(a) + psi(b) + 1e-9 for a, b in pairs.tolist())
    args = argparse.Namespace(seed=seed, tol=None, truncation=64)
    young = [r for r in cli.run_battery(args)
             if r["label"] == "young_inequality"]
    assert young == [{"label": "young_inequality", "passed": True,
                      "margin": 0.0, "tol": 0.0, "tolerance_induced": False,
                      "detail": "2000 (t,s) pairs across the catalog"}]


# -- exit-code policy ---------------------------------------------------------


def test_usage_errors_exit_2(files, capsys):
    assert run_cli(capsys, "norm")[0] == 2                      # missing args
    assert run_cli(capsys, "no-such-command")[0] == 2
    space = files("space.csv", SPACE3)
    rv = files("f.csv", "atom_id,value\n0,1\n1,2\n2,2\n")
    code, _, err = run_cli(capsys, "norm", "--space", space, "--rv", rv,
                           "--orlicz", "power:p=nope")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("spec, message", [
    ("power:p=2,x", "malformed parameter 'x'"),
    ("custom:file={table},y=1", "unknown parameters ['y']"),
], ids=["malformed", "unknown"])
def test_malformed_and_unknown_spec_parameters_exit_2(files, capsys, spec,
                                                      message):
    table = files("table.csv", "t,value\n0,0\n1,1\n2,4\n")
    code, out, err = run_cli(capsys, "classify", "--orlicz",
                             spec.format(table=table))
    assert (code, out) == (2, "")
    assert message in err


def test_a_modular_that_never_exceeds_1_exits_3(files, capsys):
    # one atom of weight 1e-10 under the line 1e-300 t: the modular of
    # f = 1 at lam is 1e-310 / lam, at most 1 until lam falls to 1e-310,
    # past the halving walk's floor of 1e-300 times sup|f|
    space = files("space.csv", "atom_id,weight,block_id\n0,1e-10,0\n")
    rv = files("f.csv", "atom_id,value\n0,1\n")
    table = files("table.csv", "t,value\n0,0\n1,1e-300\n")
    code, out, err = run_cli(capsys, "norm", "--space", space, "--rv", rv,
                             "--orlicz", f"custom:file={table}")
    assert (code, out) == (3, "")
    assert err == ("numeric failure: norm bracket collapse: modular never "
                   "exceeds 1\n")


@pytest.mark.parametrize("spec", [
    "power:p=inf", "power:p=1e300", "scaled_power:p=2,c=inf",
    "scaled_power:p=2,c=1e300", "scaled_power:p=2,c=1e-320",
    "power:p=1.0000001", "scaled_power:p=1.0000001"])
def test_extreme_power_parameters_exit_2_or_classify(capsys, spec):
    # a power whose conjugate is no power of finite q > 1 and positive finite
    # scale is a usage error; a power barely above 1 classifies, its
    # conjugate's doubling constant 2**q overflowing to +inf
    code, out, err = run_cli(capsys, "classify", "--orlicz", spec)
    assert "Traceback" not in err
    if "1.0000001" in spec:
        assert code == 0
        assert json.loads(out)["orlicz"] == spec
    else:
        assert (code, out) == (2, "")
        assert "error:" in err and "conjugate" in err


@pytest.mark.parametrize("command, flag", [
    ("fatou-test", "--count"),
    ("fatou-test", "--length"),
    ("conjugate", "--grid-count"),
    ("closure-demo", "--length"),
])
def test_non_positive_counts_exit_2(files, capsys, command, flag):
    space = files("space.csv", PROB2)
    inputs = {
        "fatou-test": ["--space", space, "--risk", "entropic:beta=1"],
        "conjugate": [],
        "closure-demo": ["--space", space, "--vertices", space, "--rv", space],
    }[command]
    for bad in ("0", "-3"):
        code, out, err = run_cli(capsys, command, *inputs, "--orlicz",
                                 "power:p=2", flag, bad)
        assert code == 2
        assert out == ""
        assert f"argument {flag}" in err


# each command's shortest argv; the inputs are placeholders
MINIMAL_ARGV = {
    "norm": ["norm", "--space", "s", "--rv", "r", "--orlicz", "o"],
    "conjugate": ["conjugate", "--orlicz", "o"],
    "classify": ["classify", "--orlicz", "o"],
    "represent": ["represent", "--space", "s", "--rv", "r", "--risk", "k",
                  "--orlicz", "o"],
    "fatou-test": ["fatou-test", "--space", "s", "--risk", "k", "--orlicz",
                   "o"],
    "extract-subseq": ["extract-subseq", "--space", "s", "--family", "m",
                       "--rv", "r", "--orlicz", "o"],
    "closure-demo": ["closure-demo", "--space", "s", "--vertices", "v",
                     "--rv", "r", "--orlicz", "o"],
    "verify-all": ["verify-all"],
}


@pytest.mark.parametrize("command, flag", [
    ("norm", "--seed"), ("norm", "--truncation"),
    ("conjugate", "--seed"), ("conjugate", "--tol"),
    ("conjugate", "--truncation"),
    ("classify", "--seed"), ("classify", "--tol"),
    ("classify", "--truncation"),
    ("represent", "--truncation"), ("fatou-test", "--truncation"),
    ("extract-subseq", "--seed"), ("extract-subseq", "--truncation"),
    ("closure-demo", "--seed"), ("closure-demo", "--truncation"),
])
def test_run_flags_a_command_does_not_read_exit_2(capsys, command, flag):
    # these were parsed and then ignored; the parser now refuses them before
    # any input is read, so the placeholder inputs are never opened
    value = {"--seed": "1", "--tol": "0.5", "--truncation": "8"}[flag]
    code, out, err = run_cli(capsys, *MINIMAL_ARGV[command], flag, value)
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {flag} {value}" in err


@pytest.mark.parametrize("bad", ["nan", "inf", "0", "-1"])
def test_grid_max_must_be_finite_and_positive(capsys, bad):
    code, out, err = run_cli(capsys, "conjugate", "--orlicz", "power:p=2",
                             "--grid-max", bad)
    assert code == 2
    assert out == ""
    assert "argument --grid-max" in err


def test_grid_count_needs_two_points(capsys):
    code, out, err = run_cli(capsys, "conjugate", "--orlicz", "power:p=2",
                             "--grid-count", "1")
    assert code == 2
    assert out == ""
    assert "argument --grid-count" in err


def test_malformed_input_file_exits_2(files, capsys):
    space = files("space.csv", SPACE3)
    rv = files("f.csv", "atom_id,value\n0,1\n")  # missing atoms 1 and 2
    code, _, err = run_cli(capsys, "norm", "--space", space, "--rv", rv,
                           "--orlicz", "power:p=2")
    assert code == 2
    assert "missing atoms" in err


def test_help_exits_0(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "norm", "--help")[0] == 0


# the run flags each command declares
READS = {"norm": ("--tol",), "fatou-test": ("--seed", "--tol"),
         "verify-all": ("--seed", "--tol", "--truncation")}


@pytest.mark.parametrize("flag, bad, command", [
    (flag, bad, command)
    for flag, bad in (("--seed", "-1"), ("--tol", "nan"), ("--tol", "-1"),
                      ("--truncation", "0"))
    for command in READS if flag in READS[command]])
def test_bad_run_flags_exit_2_before_the_command_runs(files, capsys, flag,
                                                      bad, command):
    # --seed -1 was a numpy traceback, and --tol nan failed every
    # verify-all row with exit 5
    space = files("space.csv", PROB2)
    rv = files("f.csv", "atom_id,value\n0,1\n1,-1\n")
    inputs = {
        "norm": ["--space", space, "--rv", rv, "--orlicz", "power:p=2"],
        "fatou-test": ["--space", space, "--risk", "entropic:beta=1",
                       "--orlicz", "power:p=2", "--count", "1"],
        "verify-all": [],
    }[command]
    code, out, err = run_cli(capsys, command, *inputs, flag, bad)
    assert code == 2
    assert out == ""
    assert f"argument {flag}" in err


# -- parser -------------------------------------------------------------------


def test_main_builds_the_parser_once(monkeypatch, capsys):
    argv = ["classify", "--orlicz", "power:p=2"]
    assert main(argv) == 0
    built = []
    real = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(argv) == 0
    assert main(argv) == 0
    assert built == []
    assert cli.build_parser() is cli.build_parser()


# the run flags' defaults, for the commands that declare them
SEED, TOL, TRUNCATION = {"seed": 0}, {"tol": None}, {"truncation": 1024}


@pytest.mark.parametrize("argv, handler, flags", [
    (MINIMAL_ARGV["norm"], "norm",
     {**TOL, "space": "s", "rv": "r", "orlicz": "o"}),
    (MINIMAL_ARGV["conjugate"], "conjugate",
     {"orlicz": "o", "grid_max": 10.0, "grid_count": 50}),
    (MINIMAL_ARGV["classify"], "classify",
     {"orlicz": "o", "measure": "finite"}),
    (MINIMAL_ARGV["represent"], "represent",
     {**SEED, **TOL, "space": "s", "rv": "r", "risk": "k", "orlicz": "o"}),
    (MINIMAL_ARGV["fatou-test"], "fatou_test",
     {**SEED, **TOL, "space": "s", "risk": "k", "orlicz": "o", "rv": None,
      "mode": "all", "count": 20, "length": 24}),
    (MINIMAL_ARGV["extract-subseq"], "extract_subseq",
     {**TOL, "space": "s", "family": "m", "rv": "r", "orlicz": "o"}),
    (MINIMAL_ARGV["closure-demo"], "closure_demo",
     {**TOL, "space": "s", "vertices": "v", "rv": "r", "orlicz": "o",
      "length": 32}),
    (MINIMAL_ARGV["verify-all"], "verify_all", {**SEED, **TOL, **TRUNCATION}),
])
def test_minimal_argv_parses_to_pinned_namespace(argv, handler, flags):
    args = cli.build_parser().parse_args(argv)
    assert vars(args) == {"subcommand": argv[0],
                          "func": getattr(cli, f"_cmd_{handler}"),
                          "format": "json", **flags}
