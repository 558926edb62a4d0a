import json

import pytest

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

    def test_cap_without_force(self, capsys):
        code, _, err = run(
            capsys, "sequence", "--charpoly", "1,-2,3,-2,1", "-n", str(10 ** 6 + 1)
        )
        assert code == 1 and "force" in err


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
