import json
import math
import re
from pathlib import Path

import pytest

from reeskit.cli import (
    Request,
    build_matrix,
    build_parser,
    emit_report,
    load_problem,
    run,
)
from reeskit.errors import SchemaError
from reeskit.poly import FieldSpec, MonomialOrder

MINIMAL = {
    "format": 1,
    "variables": ["x"],
    "matrix": {"kind": "ordinary", "entries": [["x"]]},
    "t": 1,
}

TWO_BY_THREE = {
    "format": 1,
    "field": {"kind": "prime-field", "p": 32003},
    "variables": ["a", "b", "c", "d", "e", "f"],
    "matrix": {"kind": "ordinary", "entries": [["a", "b", "c"], ["d", "e", "f"]]},
    "t": 2,
    "requested": [{"analysis": "height"}, {"analysis": "gs", "s": "inf"}, {"analysis": "classify"}],
}


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestLoadProblem:
    def test_minimal_file_loads(self, tmp_path):
        pf = load_problem(write_problem(tmp_path, MINIMAL))
        assert pf.t == 1
        assert pf.kind.value == "ordinary"
        assert pf.entries == (("x",),)

    def test_round_trip(self, tmp_path):
        pf = load_problem(write_problem(tmp_path, TWO_BY_THREE))
        assert pf.field == FieldSpec.prime(32003)
        assert pf.variables == ("a", "b", "c", "d", "e", "f")
        assert pf.entries == (("a", "b", "c"), ("d", "e", "f"))
        assert pf.t == 2
        assert pf.requested == (Request("height"), Request("gs", s=math.inf), Request("classify"))

    def test_round_trip_with_all_analyses(self, tmp_path):
        doc = dict(
            TWO_BY_THREE,
            requested=[
                {"analysis": "height"},
                {"analysis": "gs", "s": 7},
                {"analysis": "specialize"},
                {"analysis": "bounds", "k": "2..5"},
                {"analysis": "bounds", "k": 3},
                {"analysis": "classify"},
            ],
        )
        pf = load_problem(write_problem(tmp_path, doc))
        assert pf.requested == (
            Request("height"),
            Request("gs", s=7),
            Request("specialize"),
            Request("bounds", k_range=(2, 5)),
            Request("bounds", k_range=(3, 3)),
            Request("classify"),
        )

    def test_forms_not_requestable_from_file(self, tmp_path):
        doc = dict(MINIMAL, requested=[{"analysis": "forms"}])
        with pytest.raises(SchemaError):
            load_problem(write_problem(tmp_path, doc))

    def test_unknown_key_reported(self, tmp_path):
        doc = dict(MINIMAL, extra=1)
        with pytest.raises(SchemaError) as exc:
            load_problem(write_problem(tmp_path, doc))
        assert "extra" in str(exc.value)

    def test_missing_format(self, tmp_path):
        doc = {k: v for k, v in MINIMAL.items() if k != "format"}
        with pytest.raises(SchemaError) as exc:
            load_problem(write_problem(tmp_path, doc))
        assert "format" in str(exc.value)

    def test_ragged_entries(self, tmp_path):
        doc = dict(MINIMAL, matrix={"kind": "ordinary", "entries": [["x"], ["x", "x"]]})
        with pytest.raises(SchemaError) as exc:
            load_problem(write_problem(tmp_path, doc))
        assert "entries" in str(exc.value)

    def test_bad_analysis_name(self, tmp_path):
        doc = dict(MINIMAL, requested=[{"analysis": "frobnicate"}])
        with pytest.raises(SchemaError):
            load_problem(write_problem(tmp_path, doc))

    @pytest.mark.parametrize(
        "doc,key",
        [
            (dict(MINIMAL, format=True), "format"),
            (dict(MINIMAL, t=True), "t"),
            (dict(MINIMAL, t=False), "t"),
            (dict(MINIMAL, field={"kind": "prime-field", "p": True}), "field.p"),
            (dict(MINIMAL, requested=[{"analysis": "gs", "s": True}]), "requested[0].s"),
            (dict(MINIMAL, requested=[{"analysis": "bounds", "k": True}]), "requested[0].k"),
        ],
    )
    def test_booleans_are_not_integers(self, tmp_path, doc, key):
        with pytest.raises(SchemaError) as exc:
            load_problem(write_problem(tmp_path, doc))
        assert exc.value.key == key

    def test_float_format_is_not_format_1(self, tmp_path):
        with pytest.raises(SchemaError) as exc:
            load_problem(write_problem(tmp_path, dict(MINIMAL, format=1.0)))
        assert exc.value.key == "format"

    @pytest.mark.parametrize(
        "request_item,key",
        [
            ({"analysis": "gs", "S": 3}, "requested[0].S"),
            ({"analysis": "height", "k": 4}, "requested[0].k"),
            ({"analysis": "height", "s": 2}, "requested[0].s"),
            ({"analysis": "bounds", "k": 2, "s": 2}, "requested[0].s"),
            ({"analysis": "gs", "s": 2, "k": 2}, "requested[0].k"),
            ({"analysis": "classify", "note": ""}, "requested[0].note"),
        ],
    )
    def test_unknown_request_keys_reported(self, tmp_path, request_item, key):
        doc = dict(MINIMAL, requested=[request_item])
        with pytest.raises(SchemaError) as exc:
            load_problem(write_problem(tmp_path, doc))
        assert exc.value.key == key

    @pytest.mark.parametrize(
        "doc,key",
        [
            (dict(MINIMAL, field="prime:²"), "field"),
            (dict(MINIMAL, requested=[{"analysis": "gs", "s": "²"}]), "requested[0].s"),
            (dict(MINIMAL, requested=[{"analysis": "bounds", "k": "²"}]), "requested[0].k"),
        ],
    )
    def test_digits_int_rejects_are_schema_errors(self, tmp_path, doc, key):
        # str.isdigit accepts superscripts, which int() rejects.
        with pytest.raises(SchemaError) as exc:
            load_problem(write_problem(tmp_path, doc))
        assert exc.value.key == key

    @pytest.mark.parametrize("k", ["1_0..1_2", " 2..3", "+2..3"])
    def test_k_range_sides_are_decimal_digits(self, tmp_path, k):
        # int() accepts underscores, blanks and a sign, which a single k does not.
        doc = dict(MINIMAL, requested=[{"analysis": "height"}, {"analysis": "bounds", "k": k}])
        with pytest.raises(SchemaError) as exc:
            load_problem(write_problem(tmp_path, doc))
        assert exc.value.key == "requested[1].k"

    def test_decimal_digits_of_any_script_are_integers(self, tmp_path):
        doc = dict(
            MINIMAL,
            field="prime:٧",
            requested=[{"analysis": "gs", "s": "٣"}, {"analysis": "bounds", "k": "٢"}],
        )
        pf = load_problem(write_problem(tmp_path, doc))
        assert pf.field == FieldSpec.prime(7)
        assert [r.s for r in pf.requested] == [3, None]
        assert pf.requested[1].k_range == (2, 2)

    def test_boolean_s_exits_1_naming_the_key(self, tmp_path, capsys):
        doc = dict(TWO_BY_THREE, requested=[{"analysis": "gs", "s": True}])
        code = run(["analyze", "--json", write_problem(tmp_path, doc)])
        captured = capsys.readouterr()
        assert code == 1
        assert "requested[0].s" in captured.err
        assert captured.out == ""

    def test_symmetric_violation_is_input_error(self, tmp_path):
        doc = {
            "format": 1,
            "variables": ["x", "y"],
            "matrix": {"kind": "symmetric", "entries": [["x", "x"], ["y", "x"]]},
            "t": 1,
        }
        pf = load_problem(write_problem(tmp_path, doc))
        from reeskit.errors import KindShapeError

        with pytest.raises(KindShapeError):
            build_matrix(pf, FieldSpec.prime(32003), MonomialOrder.GREVLEX)


class TestRun:
    def test_generic_gs_infinite(self, capsys):
        code = run(["generic", "--kind", "ordinary", "--m", "2", "--n", "5", "--t", "2", "--analyses", "gs", "--s", "inf"])
        out = capsys.readouterr().out
        assert code == 0
        assert "max_s = inf" in out

    def test_generic_alternating_height(self, capsys):
        code = run(["generic", "--kind", "alternating", "--n", "5", "--t", "2", "--analyses", "height"])
        out = capsys.readouterr().out
        assert code == 0
        assert "height = 3" in out

    def test_finite_s_flag(self, capsys):
        code = run(["generic", "--kind", "ordinary", "--m", "2", "--n", "6", "--t", "2", "--analyses", "gs", "--s", "12"])
        out = capsys.readouterr().out
        assert code == 0
        assert "gs (s = 12)" in out
        assert "max_s = 12" in out
        assert "G_s holds at requested s: yes" in out

    def test_classifier_end_to_end(self, capsys):
        code = run(["generic", "--kind", "ordinary", "--m", "2", "--n", "3", "--t", "2", "--analyses", "classify", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        section = next(s for s in report["analyses"] if s["analysis"] == "classify")
        hits = [c for c in section["conclusions"] if c["source"] == "Cor 5.2.3b"]
        assert hits and hits[0]["claim"] == "linear_type" and hits[0]["hypotheses_verified"] is True

    def test_malformed_entry_exits_1(self, tmp_path, capsys):
        doc = dict(MINIMAL, variables=["x", "y"], matrix={"kind": "ordinary", "entries": [["x+*y"]]})
        code = run(["height", write_problem(tmp_path, doc)])
        err = capsys.readouterr().err
        assert code == 1
        assert "column 3" in err

    def test_deeply_nested_entry_exits_1_at_its_column(self, tmp_path, capsys):
        # 256 levels parse; the '(' that opens level 257 is the error.
        for depth, code in ((256, 0), (300, 1)):
            doc = dict(MINIMAL, matrix={"kind": "ordinary", "entries": [["(" * depth + "x" + ")" * depth]]})
            assert run(["height", write_problem(tmp_path, doc)]) == code
        assert capsys.readouterr().err == "error: parentheses nested deeper than 256 (column 257)\n"

    def test_unreadable_file_exits_1(self, capsys):
        code = run(["height", "/nonexistent/path.json"])
        assert code == 1

    def test_non_generic_height_precondition_exits_2(self, tmp_path, capsys):
        doc = {
            "format": 1,
            "variables": ["x"],
            "matrix": {"kind": "ordinary", "entries": [["x", "x", "x"], ["x", "x", "x"]]},
            "t": 2,
        }
        code = run(["gs", write_problem(tmp_path, doc), "--s", "inf"])
        err = capsys.readouterr().err
        assert code == 2
        assert "generic height" in err

    def test_bounds_subcommand(self, tmp_path, capsys):
        path = write_problem(tmp_path, TWO_BY_THREE)
        code = run(["bounds", path, "--k", "1..3", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        section = next(s for s in report["analyses"] if s["analysis"] == "bounds")
        assert section["hypotheses"]["satisfied"] is True
        assert [row["k"] for row in section["rows"]] == [1, 2, 3]
        # 2x3 maximal minors over their own 6 variables: d = 6 > min(k, 2)
        assert all(row["b0"]["tag"] == "neg_infinity" for row in section["rows"])

    def test_bounds_failing_hypotheses_exits_2(self, tmp_path, capsys):
        # Over three variables the capped requirement is min(3, 3) = 3, but
        # the entries span only x and y, so height of I_1 is 2.
        doc = {
            "format": 1,
            "variables": ["x", "y", "z"],
            "matrix": {"kind": "ordinary", "entries": [["x", "y", "0"], ["0", "x", "y"]]},
            "t": 2,
        }
        code = run(["bounds", write_problem(tmp_path, doc), "--k", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert "height" in err and "required" in err

    def test_pfaffian_subcommand(self, tmp_path, capsys):
        doc = {
            "format": 1,
            "variables": ["a", "b", "c", "d", "e", "f"],
            "matrix": {
                "kind": "alternating",
                "entries": [
                    ["0", "a", "b", "c"],
                    ["-a", "0", "d", "e"],
                    ["-b", "-d", "0", "f"],
                    ["-c", "-e", "-f", "0"],
                ],
            },
            "t": 2,
        }
        code = run(["pfaffian", write_problem(tmp_path, doc)])
        out = capsys.readouterr().out
        assert code == 0
        assert "Pf = " in out
        # a*f - b*e + c*d in some canonical order
        assert "a*f" in out and "c*d" in out

    def test_pfaffian_wrong_kind_exits_1(self, tmp_path, capsys):
        code = run(["pfaffian", write_problem(tmp_path, MINIMAL)])
        assert code == 1

    def test_generic_square_kind_rejects_conflicting_m(self, capsys):
        code = run(["generic", "--kind", "alternating", "--m", "4", "--n", "6", "--t", "2"])
        assert code == 1
        assert "square" in capsys.readouterr().err

    def test_generic_alternating_too_small_for_t_names_the_shape(self, capsys):
        # The generic alternating 1x1 matrix is zero, so it has no entry
        # degree either; the shape is the fault, and it is checked first.
        code = run(["generic", "--kind", "alternating", "--n", "1", "--t", "1"])
        assert code == 1
        assert capsys.readouterr().err == "error: need 2 <= 2t <= n, got 2t=2, n=1\n"

    def test_analyze_with_bounds_request(self, tmp_path, capsys):
        doc = dict(TWO_BY_THREE, requested=[{"analysis": "bounds", "k": "1..2"}])
        code = run(["analyze", write_problem(tmp_path, doc)])
        out = capsys.readouterr().out
        assert code == 0
        assert "k = 1" in out and "k = 2" in out and "Thm 5.2.2b" in out

    def test_analyze_full_pipeline(self, tmp_path, capsys):
        path = write_problem(tmp_path, TWO_BY_THREE)
        code = run(["analyze", path])
        out = capsys.readouterr().out
        assert code == 0
        for heading in ("height", "gs (s = inf)", "classify"):
            assert heading in out

    def test_analyze_default_requests_on_minimal_file(self, tmp_path, capsys):
        code = run(["analyze", write_problem(tmp_path, MINIMAL)])
        out = capsys.readouterr().out
        assert code == 0
        for heading in ("height", "gs (s = inf)", "specialize", "classify"):
            assert heading in out
        assert "height = 1" in out

    def test_field_flag_overrides(self, tmp_path, capsys):
        path = write_problem(tmp_path, TWO_BY_THREE)
        assert run(["height", path, "--field", "rationals"]) == 0
        out = capsys.readouterr().out
        assert "field QQ" in out

    def test_field_flag_prime_forms(self, tmp_path, capsys):
        path = write_problem(tmp_path, TWO_BY_THREE)
        assert run(["height", path, "--field", "prime:101"]) == 0
        assert "field GF(101)" in capsys.readouterr().out
        assert run(["height", path, "--field", "101"]) == 0
        assert "field GF(101)" in capsys.readouterr().out
        assert run(["height", path, "--field", "102"]) == 1  # not prime

    def test_order_flag_lex(self, tmp_path, capsys):
        path = write_problem(tmp_path, TWO_BY_THREE)
        assert run(["height", path, "--order", "lex"]) == 0
        out = capsys.readouterr().out
        assert "order lex" in out and "height = 2" in out

    def test_height_section_counts_generators_once(self, capsys):
        assert run(["generic", "--kind", "symmetric", "--n", "4", "--t", "3", "--analyses", "height"]) == 0
        assert "  ideal minors(3), 10 generators\n" in capsys.readouterr().out  # Lemma 4.4b
        assert run(["generic", "--kind", "alternating", "--n", "6", "--t", "2", "--analyses", "height"]) == 0
        assert "  ideal pfaffians(4), 15 generators\n" in capsys.readouterr().out  # Lemma 4.4c

    def test_height_section_counts_independent_minors(self, capsys):
        # 21 distinct 2x2 minors of a symmetric 4x4 matrix span 20 dimensions.
        assert run(["generic", "--kind", "symmetric", "--n", "4", "--t", "2", "--analyses", "height,forms"]) == 0
        out = capsys.readouterr().out
        assert "  ideal minors(2), 20 generators\n" in out
        assert "  min generators = 20 [Lemma 4.4b]\n" in out

    def test_forms_flags_cite_their_own_sources(self, capsys):
        argv = ["generic", "--kind", "symmetric", "--n", "4", "--t", "3", "--analyses", "forms"]
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert "  linear type: yes [Prop 5.3.1c]\n" in out
        assert "  fiber type: no statement\n" in out
        assert "  td finite for all k: no statement\n" in out
        assert "  td infinite for some k: no statement\n" in out
        assert run(argv + ["--json"]) == 0
        status = json.loads(capsys.readouterr().out)["analyses"][0]["status"]
        assert (status["linear_type"], status["fiber_type"], status["td_finite_all_k"]) == (True, None, None)
        assert status["flag_sources"] == {"linear_type": "Prop 5.3.1c"}
        assert status["sources"] == ["Prop 5.3.1c"]

    def test_forms_flags_from_two_sources(self, capsys):
        assert run(["generic", "--kind", "ordinary", "--m", "3", "--n", "5", "--t", "3", "--analyses", "forms"]) == 0
        out = capsys.readouterr().out
        assert "  linear type: no [Prop 5.2.1c]\n" in out
        assert "  fiber type: yes [Prop 5.2.1d]\n" in out
        assert "  td finite for all k: no statement\n" in out
        assert "  td infinite for some k: yes [Prop 5.2.1c]\n" in out

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--field", "prime:²"], "(key: --field)"),
            (["--analyses", "gs", "--s", "²"], "(key: --s)"),
            (["--analyses", "bounds", "--k", "²"], "(key: --k)"),
        ],
    )
    def test_non_decimal_digit_flags_exit_1(self, flags, message, capsys):
        code = run(["generic", "--kind", "ordinary", "--m", "2", "--n", "3", "--t", "2", *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("k", ["1_0..1_2", " 2..3", "+2..3"])
    def test_k_range_flag_sides_are_decimal_digits(self, k, capsys):
        argv = ["generic", "--kind", "ordinary", "--m", "2", "--n", "3", "--t", "2", "--field", "rationals"]
        code = run([*argv, "--analyses", "bounds", "--k", k])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: bad k range {k!r} (key: --k)\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["generic", "gs"])
    def test_empty_s_flag_exits_1(self, command, tmp_path, capsys):
        # An empty --s is not s = inf, as an empty "s" in a problem file is not.
        if command == "generic":
            argv = ["generic", "--kind", "ordinary", "--m", "2", "--n", "3", "--t", "2", "--analyses", "gs"]
        else:
            argv = ["gs", write_problem(tmp_path, TWO_BY_THREE)]
        code = run([*argv, "--s", ""])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: s must be a positive integer or 'inf', got '' (key: --s)\n"
        assert captured.out == ""

    @pytest.mark.parametrize("s", ["0", "abc"])
    def test_s_flag_is_parsed_without_gs_in_analyses(self, s, capsys):
        code = run(["generic", "--kind", "ordinary", "--m", "2", "--n", "3", "--t", "2", "--analyses", "height", "--s", s])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: s must be a positive integer or 'inf', got ")
        assert captured.err.endswith(" (key: --s)\n")
        assert captured.out == ""

    def test_s_flag_adds_a_gs_section(self, capsys):
        # As --k adds a bounds section when --analyses leaves bounds out.
        argv = ["generic", "--kind", "ordinary", "--m", "2", "--n", "3", "--t", "2", "--analyses", "", "--s", "3"]
        assert run([*argv, "--json"]) == 0
        sections = json.loads(capsys.readouterr().out)["analyses"]
        assert [(sec["analysis"], sec["s"]) for sec in sections] == [("gs", 3)]

    def test_non_decimal_digit_entry_exits_1(self, tmp_path, capsys):
        doc = dict(MINIMAL, matrix={"kind": "ordinary", "entries": [["x^²"]]})
        code = run(["height", write_problem(tmp_path, doc)])
        assert code == 1
        assert capsys.readouterr().err == "error: unexpected character '²' (column 3)\n"

    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_invalid_timeout_exits_1(self, value, capsys):
        code = run(["generic", "--kind", "symmetric", "--n", "4", "--t", "2", "--analyses", "height", "--timeout", value])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: time limit must be a non-negative number")
        assert captured.out == ""

    def test_timeout_exits_2(self, capsys):
        code = run(["generic", "--kind", "symmetric", "--n", "4", "--t", "2", "--analyses", "height", "--timeout", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "time limit" in err

    def test_timeout_names_the_stage_and_the_ideal(self, capsys):
        code = run(["generic", "--kind", "alternating", "--n", "6", "--t", "2", "--analyses", "height", "--timeout", "0"])
        assert code == 2
        assert capsys.readouterr().err == (
            "precondition failure: computation exceeded the time limit "
            "during Pfaffian enumeration of pfaffians(4)\n"
        )

    def test_timeout_bounds_building_the_matrix(self, tmp_path, capsys):
        # A power in an entry is polynomial arithmetic, bounded like every later stage.
        doc = dict(MINIMAL, variables=["x", "y"], matrix={"kind": "ordinary", "entries": [["(x + y)^2"]]})
        code = run(["height", write_problem(tmp_path, doc), "--timeout", "0"])
        assert code == 2
        assert capsys.readouterr().err == (
            "precondition failure: computation exceeded the time limit during polynomial arithmetic\n"
        )

    def test_timeout_bounds_the_pfaffian(self, tmp_path, capsys):
        entries = [["0", "a", "b", "c"], ["-a", "0", "d", "e"], ["-b", "-d", "0", "f"], ["-c", "-e", "-f", "0"]]
        doc = dict(MINIMAL, variables=list("abcdef"), matrix={"kind": "alternating", "entries": entries})
        code = run(["pfaffian", write_problem(tmp_path, doc), "--timeout", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.endswith("exceeded the time limit during polynomial arithmetic\n")
        assert captured.out == ""

    @pytest.mark.parametrize("command", [["analyze"], ["gs"], ["classify"], ["bounds", "--k", "1..3"], ["height"]])
    def test_a_tall_matrix_is_read_as_its_transpose(self, command, tmp_path, capsys):
        # I_t(M) = I_t(M^T): only the banner's shape tells the two apart.
        entries = [["a", "b"], ["c", "d"], ["e", "f"]]
        tall = dict(MINIMAL, variables=list("abcdef"), matrix={"kind": "ordinary", "entries": entries}, t=2)
        wide = dict(tall, matrix={"kind": "ordinary", "entries": [list(col) for col in zip(*entries)]})
        assert run([command[0], write_problem(tmp_path, tall, "tall.json"), *command[1:]]) == 0
        tall_out = capsys.readouterr().out
        assert run([command[0], write_problem(tmp_path, wide, "wide.json"), *command[1:]]) == 0
        wide_out = capsys.readouterr().out
        assert "matrix ordinary 3x2, t = 2" in tall_out
        assert tall_out == wide_out.replace("2x3", "3x2")

    @pytest.mark.parametrize("command", [["analyze"], ["gs"], ["bounds", "--k", "1"], ["classify"], ["height"]])
    def test_the_zero_matrix_fails_the_generic_height_precondition(self, command, tmp_path, capsys):
        # Its entry degree is unknown, but what rules the catalog out is that
        # I_2 has height 0 where the generic height is 2.
        zero = dict(MINIMAL, variables=list("xyz"), matrix={"kind": "ordinary", "entries": [["0"] * 3] * 2}, t=2)
        code = run([command[0], write_problem(tmp_path, zero), *command[1:]])
        captured = capsys.readouterr()
        if command[0] == "classify":
            assert code == 0
            assert captured.out.endswith("classify\n  no conclusion applies\n")
        elif command[0] == "height":
            assert code == 0
            assert "entry degree none" in captured.out
            assert "  height = 0\n  expected generic height = 2 [Notation 2.1a]\n" in captured.out
        else:
            assert code == 2
            assert captured.err == "precondition failure: the ideal is not of generic height: height 0, expected 2\n"

    def test_a_tall_generic_matrix_is_read_as_its_transpose(self, capsys):
        argv = ["generic", "--kind", "ordinary", "--t", "2", "--k", "1..3"]
        assert run([*argv, "--m", "3", "--n", "2"]) == 0
        tall_out = capsys.readouterr().out
        assert run([*argv, "--m", "2", "--n", "3"]) == 0
        assert tall_out == capsys.readouterr().out.replace("2x3", "3x2")

    def test_parser_is_built_once_and_reused(self, capsys):
        assert build_parser() is build_parser()
        assert run(["generic", "--kind", "bogus", "--n", "2", "--t", "1"]) == 1
        assert run(["generic", "--kind", "ordinary", "--m", "2", "--n", "3", "--t", "2", "--analyses", "height"]) == 0
        assert "  height = 2\n" in capsys.readouterr().out
        assert run(["generic", "--kind", "symmetric", "--n", "3", "--t", "3", "--analyses", "height", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["analyses"][0]["height"] == 1


class TestBenchmarkProblem:
    def test_linear_gf_problem_matches_the_recorded_expectation(self, tmp_path, capsys, monkeypatch):
        # A base problem of the linear-gf benchmark workload, as written,
        # checked the way the benchmark checks it against the values in
        # perfbench/expected.json.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import corpus
        import worker

        base = next(b for b in corpus.BASES["linear-gf"] if b.id == "lin-ord-3x5-d8-t3")
        problem = corpus.problem(base, None, base.id, corpus.load_expected()[base.id])
        path = write_problem(tmp_path, problem["doc"])
        assert run([path if a == "{file}" else a for a in problem["argv"]]) == problem["expect"]["exit"] == 0
        out = capsys.readouterr().out
        assert worker.checked_content(out, problem["json"]) == problem["expect"]["content"]


class TestDeterminism:
    def test_byte_identical_structured_output(self, tmp_path, capsys):
        path = write_problem(tmp_path, TWO_BY_THREE)
        assert run(["analyze", path, "--json"]) == 0
        first = capsys.readouterr().out
        assert run(["analyze", path, "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_structured_reparse_is_loss_free(self, tmp_path):
        from reeskit.cli import _run_analyses, load_problem as load
        from reeskit.poly import MonomialOrder

        pf = load(write_problem(tmp_path, TWO_BY_THREE))
        M = build_matrix(pf, FieldSpec.prime(32003), MonomialOrder.GREVLEX)
        report = _run_analyses(M, pf.t, list(pf.requested))
        assert json.loads(emit_report(report, "structured")) == report

    def test_banner_states_the_matrix_ring(self):
        from reeskit.cli import _run_analyses, render_text
        from reeskit.matrixalg import generic_matrix

        M = generic_matrix(2, 3, "ordinary", field=FieldSpec.rationals(), order=MonomialOrder.LEX)
        report = _run_analyses(M, 2, [Request("height")])
        assert report["banner"] == {"field": "QQ", "order": "lex"}
        assert render_text(report).startswith("field QQ | order lex\n")


NUMERIC_CLAIM_MARKERS = (
    "threshold",
    "expected generic height",
    "required >=",
    "b0 <=",
    "td <=",
    "max_s",
    "max s with G_s",
    "min generators",
    "conclusion:",
    "specializes",
    "Cohen-Macaulay",
)


class TestReportLinter:
    @pytest.mark.parametrize(
        "argv",
        [
            ["generic", "--kind", "ordinary", "--m", "2", "--n", "3", "--t", "2"],
            ["generic", "--kind", "alternating", "--n", "5", "--t", "2"],
            ["generic", "--kind", "symmetric", "--n", "3", "--t", "2", "--analyses", "forms,height,gs,classify"],
            ["generic", "--kind", "ordinary", "--m", "2", "--n", "3", "--t", "2", "--analyses", "bounds", "--k", "1..4"],
        ],
    )
    def test_every_catalog_number_carries_a_label(self, argv, capsys):
        assert run(argv) == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            if any(marker in line for marker in NUMERIC_CLAIM_MARKERS):
                assert re.search(r"\[[^\]]+\]", line), f"unlabeled claim line: {line!r}"
