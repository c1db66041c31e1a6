import json
import re

import pytest

from reeskit.cli import (
    build_matrix,
    emit_problem,
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
        again = load_problem(emit_problem(pf))
        assert again == pf

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
        assert load_problem(emit_problem(pf)) == pf

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

    def test_timeout_exits_2(self, capsys):
        code = run(["generic", "--kind", "symmetric", "--n", "4", "--t", "2", "--analyses", "height", "--timeout", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "time limit" in err


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
        report = _run_analyses(M, pf.t, list(pf.requested), FieldSpec.prime(32003), MonomialOrder.GREVLEX)
        assert json.loads(emit_report(report, "structured")) == report


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
