"""Command-line surface: exit codes, output documents, determinism."""

import json
import math

import numpy as np
import pytest

from orliczkit import cli
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
