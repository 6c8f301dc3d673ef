"""Command-line surface: flags, exit codes, text formats, JSON documents."""

import json

import pytest

from oscurve.cli import format_ideal, main, read_ideal_text
from oscurve.errors import InvariantViolation, OscurveError, ParseError
from oscurve.rings import PolyRing


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- ideal text format -------------------------------------------------------------


def test_ideal_text_round_trip():
    text = "ring: QQ[x,y,z]\nx^2 - y*z\nx*y - z^2"
    ideal = read_ideal_text(text)
    assert ideal.ring == PolyRing(("x", "y", "z"))
    assert format_ideal(ideal) == text


def test_ideal_text_rejects_missing_header():
    with pytest.raises(ParseError):
        read_ideal_text("x^2 - y*z")


# -- classify -----------------------------------------------------------------------


def test_classify_cusp(capsys):
    code, out, _ = run_cli(capsys, "classify", "--curve", "x1^2*x2 - x0^3", "--point", "0,0,1")
    assert code == 0
    assert "verdict: A2" in out


def test_classify_json_round_trips(capsys):
    code, out, _ = run_cli(
        capsys,
        "classify",
        "--curve",
        "x1^2*x2^2 - 2*x0^2*x1*x2 + x0^4 + x0^2*x1^2",
        "--point",
        "0,0,1",
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert json.loads(json.dumps(doc)) == doc
    assert doc["label"] == "A5"
    assert doc["witnesses"][0]["field"] == {"quadext": -1}
    assert [step["branch"] for step in doc["trace"]] == ["b2", "b2", "a"]
    assert doc["trace"][0]["i"] == 4


OSCNODE = "x1^2*x2^2 - 2*x0^2*x1*x2 + x0^4 + x0^2*x1^2"
ORACLE_LINE = "independent local-multiplicity oracle agrees with every witness contact order"


def test_classify_verify_oscnode_checks_conjugate_witnesses(capsys):
    code, out, _ = run_cli(capsys, "classify", "--curve", OSCNODE, "--point", "0,0,1", "--verify")
    assert code == 0
    assert "verdict: A5" in out
    assert "witness y = sqrt(-1)*x^3 + x^2   contact order 7" in out
    assert "witness y = -sqrt(-1)*x^3 + x^2   contact order 7" in out
    assert out.splitlines()[-1] == ORACLE_LINE
    code, out, _ = run_cli(
        capsys, "classify", "--curve", OSCNODE, "--point", "0,0,1", "--verify", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["oracle_agrees"] is True
    assert [w["field"] for w in doc["witnesses"]] == [{"quadext": -1}] * 2


def test_classify_verify_ramphoid_checks_its_one_witness(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--curve", "x1^2*x2^3 - x0^5", "--point", "0,0,1", "--verify"
    )
    assert code == 0
    assert "verdict: A4" in out
    assert [line for line in out.splitlines() if line.startswith("witness ")] == [
        "witness y = 0   contact order 5"
    ]
    assert out.splitlines()[-1] == ORACLE_LINE


def test_classify_rejects_garbage(capsys):
    code, _, err = run_cli(capsys, "classify", "--curve", "x1^2*x2 - q^3", "--point", "0,0,1")
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize("point", ["1/0,0,1", "a,0,1", "0,0", "1,2,3,4"])
def test_classify_rejects_bad_point_as_input_error(capsys, point):
    code, _, err = run_cli(capsys, "classify", "--curve", "x1^2*x2 - x0^3", "--point", point)
    assert code == 2
    assert err.startswith("input error: ") and "Traceback" not in err


@pytest.mark.parametrize("exc", [ValueError("bad"), KeyError("x"), ZeroDivisionError("0")])
def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch, exc):
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr("oscurve.cli.classify_double_point", broken)
    code, _, err = run_cli(capsys, "classify", "--curve", "x1^2*x2 - x0^3", "--point", "0,0,1")
    assert code == 3
    assert err.startswith(f"internal error: {type(exc).__name__}: ")


@pytest.mark.parametrize("cap", ["-1", "0"])
def test_classify_rejects_nonpositive_cap_as_input_error(capsys, cap):
    code, _, err = run_cli(
        capsys, "classify", "--curve", "x1^2*x2 - x0^3", "--point", "0,0,1", "--cap", cap
    )
    assert code == 2
    assert err.startswith("input error: ") and "Traceback" not in err


def test_classify_refuses_non_reduced(capsys):
    code, _, err = run_cli(
        capsys, "classify", "--curve", "(x1*x2 - x0^2)^2", "--point", "0,0,1"
    )
    assert code == 1
    assert "refused" in err


def test_classify_refuses_point_off_curve(capsys):
    code, _, err = run_cli(capsys, "classify", "--curve", "x1^2*x2 - x0^3", "--point", "1,1,0")
    assert code == 1


# -- parameterization commands --------------------------------------------------------


def test_implicitize_command(capsys):
    code, out, _ = run_cli(capsys, "implicitize", "--param", "s^2; s*t; t^2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["polynomial"] == "x*z - y^2"
    assert doc["map_degree"] == 1


def test_implicitize_refuses_base_points(capsys):
    code, _, err = run_cli(capsys, "implicitize", "--param", "s^2; s*t; s^2 + 2*s*t")
    assert code == 1


def test_invariant_violation_is_an_internal_error_not_a_refusal(capsys, monkeypatch):
    assert not issubclass(InvariantViolation, OscurveError)

    def broken(param):
        raise InvariantViolation("implicitization produced a non-vanishing candidate")

    monkeypatch.setattr("oscurve.cli.implicitize", broken)
    code, _, err = run_cli(capsys, "implicitize", "--param", "s^2; s*t; t^2")
    assert code == 3
    assert err.startswith("internal error: implicitization produced")


def test_analyze_param_json_schema(capsys):
    code, out, _ = run_cli(
        capsys,
        "analyze-param",
        "--param",
        "(s^2 - t^2)*t; s*(s^2 - t^2); t^3",
        "--classify",
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"n", "x2_length", "cusp_length", "points"}
    assert doc["n"] == 3 and doc["x2_length"] == 1 and doc["cusp_length"] == 0
    (point,) = doc["points"]
    assert point["delta"] == 1 and point["cusp"] is False
    assert point["label"] == "A1" and point["s"] == 1


@pytest.mark.parametrize(
    "param, length",
    [
        ("s^2*t; s^3; t^3", 1),  # a cusp of length 1: from the sites
        ("s^4; s^2*t^2; t^4 + s*t^3", 2),  # A2 + A4: the A4 takes the basis of the sum
    ],
    ids=["cuspidal-cubic", "a2-a4-quartic"],
)
def test_analyze_param_reports_the_cusp_conic_length(capsys, param, length):
    code, out, _ = run_cli(capsys, "analyze-param", "--param", param, "--json")
    assert code == 0 and json.loads(out)["cusp_length"] == length
    code, out, _ = run_cli(capsys, "analyze-param", "--param", param)
    assert code == 0 and f"cusp-conic intersection length {length}" in out


# -- ideal commands --------------------------------------------------------------------


@pytest.fixture()
def ideal_file(tmp_path):
    def write(text):
        path = tmp_path / "ideal.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def test_gb_command(capsys, ideal_file):
    path = ideal_file("ring: QQ[x,y]\nx - y\nx + y")
    code, out, _ = run_cli(capsys, "gb", "--ideal", path, "--order", "lex", "--json")
    assert code == 0
    assert json.loads(out)["basis"] == ["y", "x"]


def test_hilbert_command(capsys, ideal_file):
    path = ideal_file("ring: QQ[x,y,z]\nx^2\nx*y\ny^2")
    code, out, _ = run_cli(capsys, "hilbert", "--ideal", path, "--upto", "4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["values"] == [1, 3, 3, 3, 3]
    assert doc["stable_value"] == 3


def test_hilbert_rejects_negative_upto_as_input_error(capsys, ideal_file):
    path = ideal_file("ring: QQ[x,y,z]\nx^2\nx*y\ny^2")
    code, out, err = run_cli(capsys, "hilbert", "--ideal", path, "--upto", "-1")
    assert code == 2 and out == ""
    assert err.startswith("input error: ") and "Traceback" not in err


def test_eliminate_command(capsys, ideal_file):
    path = ideal_file("ring: QQ[x,y,z]\ny - x^2\nz - x^3")
    code, out, _ = run_cli(capsys, "eliminate", "--ideal", path, "--drop", "x")
    assert code == 0
    assert out.strip() == "ring: QQ[y,z]\ny^3 - z^2"


def test_saturate_command(capsys, ideal_file):
    path = ideal_file("ring: QQ[x,y,z]\nx^2*y")
    code, out, _ = run_cli(capsys, "saturate", "--ideal", path, "--by", "x", "--json")
    assert code == 0
    assert json.loads(out)["ideal"] == ["y"]


def test_saturate_by_no_generators_is_input_error(capsys, ideal_file):
    path = ideal_file("ring: QQ[x,y,z]\nx^2*y")
    code, out, err = run_cli(capsys, "saturate", "--ideal", path, "--by", " ; ")
    assert code == 2 and out == ""
    assert err.startswith("input error: ") and "--by" in err
    # a zero generator is read, and saturating by the zero ideal is refused
    code, _, err = run_cli(capsys, "saturate", "--ideal", path, "--by", "0")
    assert code == 1 and err.startswith("refused: ")


def test_radical_command(capsys, ideal_file):
    path = ideal_file("ring: QQ[x,y,z]\nx^2\ny")
    code, out, _ = run_cli(capsys, "radical", "--ideal", path, "--json")
    assert code == 0
    assert json.loads(out)["ideal"] == ["y", "x"]


def test_radical_refuses_positive_dimensional(capsys, ideal_file):
    path = ideal_file("ring: QQ[x,y,z]\nx*z - y^2")
    code, _, err = run_cli(capsys, "radical", "--ideal", path)
    assert code == 1


def test_missing_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "gb", "--ideal", "/nonexistent/ideal.txt")
    assert code == 2


@pytest.mark.parametrize(
    "text", ["ring: QQ[x,1y]\nx", "ring: QQ[x,x]\nx", "ring: QQ[x,y]\nx + z"]
)
def test_bad_ring_header_is_input_error(capsys, ideal_file, text):
    code, _, err = run_cli(capsys, "gb", "--ideal", ideal_file(text))
    assert code == 2
    assert err.startswith("input error: ")


def test_eliminate_unknown_variable_is_input_error(capsys, ideal_file):
    path = ideal_file("ring: QQ[x,y,z]\ny - x^2")
    code, _, err = run_cli(capsys, "eliminate", "--ideal", path, "--drop", "x,q")
    assert code == 2
    assert "'q' is not a variable" in err


# -- projection --------------------------------------------------------------------------


def test_project_command(capsys, ideal_file):
    path = ideal_file(
        "ring: QQ[a,b,c,d,e,f,g]\na - b\nb - c\nc - d\nd - e\ne - f\nf - g"
    )
    code, out, _ = run_cli(
        capsys,
        "project",
        "--n",
        "6",
        "--center",
        "a + g; 3*f - b - d; 9*e + c - d",
        "--scheme",
        path,
        "--names",
        "a,b,c,d,e,f,g",
        "--json",
    )
    assert code == 0
    assert json.loads(out)["image_ideal"] == ["v - 1/9*w", "u - 2/9*w"]


@pytest.mark.parametrize(
    "names, targets, scheme",
    [
        ("a,b", "u,v,w", "ring: QQ[a,b,c]\na - b"),  # too few ambient names
        ("a,b,1c", "u,v,w", "ring: QQ[a,b,c]\na - b"),  # bad name
        ("a,b,c", "a,v,w", "ring: QQ[a,b,c]\na - b"),  # target repeats an ambient name
        ("a,b,c", "u,v", "ring: QQ[a,b,c]\na - b"),  # two targets
        ("a,b,c", "u,v,w", "ring: QQ[a,p]\na - p"),  # scheme outside the ambient space
    ],
)
def test_project_bad_names_are_input_errors(capsys, ideal_file, names, targets, scheme):
    code, _, err = run_cli(
        capsys,
        "project",
        "--n",
        "2",
        "--center",
        "a; b; c",
        "--scheme",
        ideal_file(scheme),
        "--names",
        names,
        "--targets",
        targets,
    )
    assert code == 2
    assert err.startswith("input error: ")


# -- repro --------------------------------------------------------------------------------


def test_repro_list(capsys):
    code, out, _ = run_cli(capsys, "repro", "--list")
    assert code == 0
    names = [line.split(":")[0] for line in out.strip().splitlines()]
    assert "example-4.1" in names
    assert "example-6.1-part1" in names and "example-6.1-part2" in names
    assert "remark-3.2" in names and "remark-3.3" in names
    assert all(f"normal-forms-{s}" in names for s in range(1, 13))


def test_repro_single_case(capsys):
    code, out, _ = run_cli(capsys, "repro", "remark-3.3")
    assert code == 0
    assert out.strip().endswith("PASS")


def test_repro_case_json(capsys):
    code, out, _ = run_cli(capsys, "repro", "example-4.1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and doc["mismatches"] == []


def test_repro_unknown_case_is_input_error(capsys):
    code, _, err = run_cli(capsys, "repro", "no-such-case")
    assert code == 2
    assert "unknown reference case" in err
