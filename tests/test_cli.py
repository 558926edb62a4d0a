import json
import sys

import pytest

from torusfix import endomorphisms
from torusfix.cli import main, parse_input, serialize
from torusfix.endomorphisms import char_poly_rational
from torusfix.algebras import builtin_examples


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassifyCommand:
    def test_rotation_json(self, capsys):
        code, out, _ = run(
            capsys, "--json", "classify", "--analytic", "1,0;-1,0;1,0;0,0", "--field", "1"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "B2"
        assert doc["period"] == 6
        assert doc["cycle"] == [1, 9, 16, 9, 1, 0]

    def test_charpoly_text(self, capsys):
        code, out, _ = run(capsys, "classify", "--charpoly", "4,0,5,0,1")
        assert code == 0
        assert "B3" in out and "mod 4" in out

    def test_matrix_input(self, capsys):
        code, out, _ = run(
            capsys, "--json", "classify", "--matrix",
            "2,0,0,0;0,2,0,0;0,0,2,0;0,0,0,2",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "B1"

    def test_json_document_input(self, capsys):
        doc = json.dumps({"kind": "char_poly", "poly": "1,-2,3,-2,1"})
        code, out, _ = run(capsys, "--json", "classify", "--input", doc)
        assert code == 0
        assert json.loads(out)["period"] == 6

    def test_malformed_input_exits_1(self, capsys):
        code, _, err = run(capsys, "classify", "--charpoly", "bogus")
        assert code == 1 and err

    def test_validation_error_exits_2(self, capsys):
        # Salem-type quartic fails structural validation
        code, _, err = run(capsys, "classify", "--charpoly", "1,-1,-1,-1,1")
        assert code == 2
        assert "InvalidStructureError" in err

    def test_requires_exactly_one_input(self, capsys):
        code, _, err = run(capsys, "classify")
        assert code == 1 and err


class TestSequenceCommand:
    def test_scalar(self, capsys):
        code, out, _ = run(capsys, "sequence", "--charpoly", "16,-32,24,-8,1", "-n", "3")
        assert code == 0
        assert out.strip() == "[1, 81, 2401]"

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "--json", "sequence", "--charpoly", "1,-2,3,-2,1", "-n", "6"
        )
        assert json.loads(out)["fix"] == [1, 9, 16, 9, 1, 0]

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_value_past_the_str_limit_stops_the_sequence(self, capsys, monkeypatch, json_flag):
        # the first value over the 4300-digit int-to-str limit exits 1 with
        # str's own message and nothing on stdout, and no later value is
        # generated
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python has no int-to-str limit")
        values = []

        def counting(p, _values=endomorphisms.fix_values):
            for v in _values(p):
                values.append(v)
                yield v

        monkeypatch.setattr(endomorphisms, "fix_values", counting)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out, err = run(capsys, *json_flag, "sequence", "--charpoly", "1439,22,0,10,1",
                                 "-n", "2000")
            with pytest.raises(ValueError) as refused:
                str(values[-1])
            assert all(len(str(v)) <= 4300 for v in values[:-1])
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out, err) == (1, "", f"error: {refused.value}\n")
        assert len(values) < 2000

    def test_cap_without_force(self, capsys):
        code, _, err = run(
            capsys, "sequence", "--charpoly", "1,-2,3,-2,1", "-n", str(10 ** 6 + 1)
        )
        assert code == 1 and err.startswith("error: n_max exceeds the iterate cap 1000000")

    def test_force_is_rejected(self, capsys):
        # there is no way past the cap
        code, out, _ = run(
            capsys, "sequence", "--charpoly", "1,-2,3,-2,1", "-n", "3", "--force"
        )
        assert code == 1 and out == ""

    @pytest.mark.parametrize("flag, value", [
        ("--charpoly", "1,-1,-1,-1,1"),
        ("--matrix", "0,0,0,-1;1,0,0,1;0,1,0,1;0,0,1,1"),
        ("--analytic", "1/2,0;0,0;0,0;1/2,0"),
        ("--input", json.dumps({"kind": "char_poly", "poly": "1,-1,-1,-1,1"})),
    ], ids=["charpoly", "matrix", "analytic", "input"])
    def test_cap_comes_before_structure(self, capsys, flag, value):
        # a structurally invalid or non-integral input over the cap exits 1
        # on the cap, whichever flag carries it; under the cap it exits 2
        code, _, err = run(capsys, "sequence", flag, value, "-n", str(10 ** 6 + 1))
        assert code == 1 and err.startswith("error: n_max exceeds the iterate cap")
        code, _, err = run(capsys, "sequence", flag, value, "-n", "3")
        assert code == 2 and err.split(":")[0] in ("InvalidStructureError", "NonIntegralError")


class TestAlgebraCommand:
    def test_quaternion_classify(self, capsys):
        element = json.dumps(
            {"kind": "quaternion", "alpha": "3", "beta": "2", "coeffs": ["0", "1", "1", "1"]}
        )
        code, out, _ = run(capsys, "--json", "algebra", "quat", "classify", "--element", element)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "B2" and doc["cycle"] == [4, 16, 4, 0]

    def test_quaternion_one_root_line(self, capsys):
        element = json.dumps(
            {"kind": "quaternion", "alpha": "3", "beta": "2", "coeffs": ["0", "1", "1", "1"]}
        )
        code, out, _ = run(capsys, "algebra", "quat", "classify", "--element", element)
        assert "one-root periodicity criterion: satisfied" in out

    def test_cm_fix(self, capsys):
        element = json.dumps(
            {"kind": "cm", "g": "1,1,1,1,1", "coords": ["0", "1", "0", "0"]}
        )
        code, out, _ = run(capsys, "algebra", "cm", "fix", "--element", element, "-n", "1")
        assert code == 0 and out.strip() == "5"

    def test_real_quad_classify(self, capsys):
        element = json.dumps({"kind": "real_quad", "d": 2, "a": -1, "b": 1})
        code, out, _ = run(capsys, "--json", "algebra", "rm", "classify", "--element", element)
        assert json.loads(out)["verdict"] == "B1"

    def test_family_mismatch(self, capsys):
        element = json.dumps({"kind": "real_quad", "d": 2, "a": -1, "b": 1})
        code, _, err = run(capsys, "algebra", "cm", "classify", "--element", element)
        assert code == 1

    def test_fix_rejects_negative_n(self, capsys):
        element = json.dumps({"kind": "real_quad", "d": 2, "a": 1, "b": 1})
        code, out, err = run(capsys, "algebra", "rm", "fix", "--element", element, "-n", "-1")
        assert code == 1 and out == "" and err

    def test_fix_rejects_zero_n(self, capsys):
        element = json.dumps({"kind": "real_quad", "d": 2, "a": 1, "b": 1})
        code, out, err = run(capsys, "algebra", "rm", "fix", "--element", element, "-n", "0")
        assert code == 1 and out == "" and err

    def test_split_symbol_exits_2(self, capsys):
        element = json.dumps(
            {"kind": "quaternion", "alpha": "5", "beta": "4", "coeffs": ["3", "0", "1", "0"]}
        )
        code, _, err = run(capsys, "algebra", "quat", "classify", "--element", element)
        assert code == 2 and "NotDivisionAlgebraError" in err


IDENTITY = [[int(i == j) for j in range(4)] for i in range(4)]
CM_ELEMENT = {"kind": "cm", "g": "1,1,1,1,1", "coords": ["0", "1", "0", "0"]}
RM_ELEMENT = {"kind": "real_quad", "d": 2, "a": -1, "b": 1}


class TestMalformedJson:
    # each ends in the documented "error:" line and exit 1, not a traceback
    @pytest.mark.parametrize("argv", [
        ["classify", "--input", json.dumps({"kind": "char_poly", "poly": [1, 2, 3, 4, 1]})],
        ["classify", "--input", json.dumps({**CM_ELEMENT, "g": [1, 1, 1, 1, 1]})],
        ["classify", "--input", json.dumps({**CM_ELEMENT, "g": 11111})],
        ["algebra", "cm", "classify", "--element", json.dumps({**CM_ELEMENT, "g": [1, 1, 1, 1, 1]})],
        ["algebra", "cm", "fix", "--element", json.dumps({**CM_ELEMENT, "g": 5})],
        ["algebra", "rm", "classify", "--element", "[1]"],
        ["algebra", "rm", "classify", "--element", '"real_quad"'],
        ["classify", "--input", json.dumps({"kind": "algebra", "element": [1]})],
    ], ids=["poly-list", "g-list", "g-number", "element-g-list", "element-g-number",
            "element-list", "element-string", "nested-element-list"])
    def test_non_string_polynomial_or_non_object_element(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and err.startswith("error:") and out == ""

    @pytest.mark.parametrize("doc", [
        {"kind": "rational_rep", "matrix": [[1.5, 0, 0, 0]] + IDENTITY[1:]},
        {"kind": "rational_rep", "matrix": [[True, 0, 0, 0]] + IDENTITY[1:]},
        {"kind": "real_quad", "d": 2.9, "a": -1, "b": 1},
        {"kind": "real_quad", "d": 2, "a": True, "b": 1},
        {"kind": "real_quad", "d": 2, "a": -1, "b": 0.5},
        {"kind": "algebra", "element": {"kind": "real_quad", "d": 3, "a": 1e400, "b": 1}},
        {"kind": "analytic_rep", "field": 1.7, "matrix": [["1", "0"], ["0", "1"]]},
        {"kind": "analytic_rep", "field": False, "matrix": [["1", "0"], ["0", "1"]]},
    ], ids=["matrix-1.5", "matrix-true", "d-2.9", "a-true", "b-0.5", "a-inf", "field-1.7",
            "field-false"])
    def test_non_integral_number_rejected(self, capsys, doc):
        # int() would truncate: 1.5 made the matrix the identity (B2)
        code, out, err = run(capsys, "classify", "--input", json.dumps(doc))
        assert code == 1 and err.startswith("error:") and out == ""

    @pytest.mark.parametrize("doc, same_as", [
        ({"kind": "rational_rep", "matrix": [[2.0 * x for x in row] for row in IDENTITY]},
         {"kind": "rational_rep", "matrix": [[str(2 * x) for x in row] for row in IDENTITY]}),
        ({"kind": "real_quad", "d": 2.0, "a": "-1", "b": 1.0}, RM_ELEMENT),
        ({"kind": "analytic_rep", "field": "1", "matrix": [["1", "0"], ["0", "2"]]},
         {"kind": "analytic_rep", "field": 1.0, "matrix": [["1", "0"], ["0", "2"]]}),
    ])
    def test_integral_numbers_and_strings_keep_working(self, capsys, doc, same_as):
        code, out, _ = run(capsys, "--json", "classify", "--input", json.dumps(doc))
        assert code == 0
        assert run(capsys, "--json", "classify", "--input", json.dumps(same_as)) == (0, out, "")


class TestOtherCommands:
    def test_table_cm_has_nine(self, capsys):
        code, out, _ = run(capsys, "--json", "table", "--kind", "cm")
        assert len(json.loads(out)) == 9

    def test_table_quaternion(self, capsys):
        code, out, _ = run(capsys, "table", "--kind", "quaternion")
        assert len(out.strip().splitlines()) == 5

    def test_examples_listing(self, capsys):
        code, out, _ = run(capsys, "examples")
        assert "rotation_e_times_e" in out and "mult_2" in out

    def test_examples_detail(self, capsys):
        code, out, _ = run(capsys, "--json", "examples", "gaussian_i_2i")
        doc = json.loads(out)
        assert doc["char_poly"] == "4,0,5,0,1"
        assert doc["report"]["verdict"] == "B3"

    def test_examples_unknown(self, capsys):
        code, _, err = run(capsys, "examples", "nonsense")
        assert code == 1

    def test_search_small(self, capsys):
        code, out, _ = run(capsys, "search-small", "--eps", "1/2")
        assert code == 0 and out.strip() == "5"

    def test_search_small_bad_eps(self, capsys):
        code, _, err = run(capsys, "search-small", "--eps", "2")
        assert code == 1


class TestRoundTrip:
    def test_builtin_examples_round_trip(self):
        for name, e in builtin_examples().items():
            doc = json.dumps(serialize(e))
            back = parse_input(doc)
            assert char_poly_rational(back).poly == char_poly_rational(e).poly, name

    def test_algebra_document_forms(self):
        nested = json.dumps({
            "kind": "algebra",
            "element": {"kind": "real_quad", "d": 2, "a": -1, "b": 1},
        })
        flat = json.dumps({"kind": "real_quad", "d": 2, "a": -1, "b": 1})
        assert char_poly_rational(parse_input(nested)).poly == \
            char_poly_rational(parse_input(flat)).poly
