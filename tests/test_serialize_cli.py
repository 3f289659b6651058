import csv
import io
import json
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from cpfs import DecisionProblem, DomainError, ParseError, case_study_path, collections_path, load_case_study, solve
from cpfs import cli
from cpfs.cli import main
from helpers import perfbench_gen
from cpfs.serialize import (
    dump_problem,
    load_config,
    load_problem,
    parse_collections,
    parse_config,
    parse_problem,
    problem_to_dict,
    write_solve_tables,
)


#: JSON values that are not strings, so no document may use them as labels.
NON_STRING_LABELS = [None, True, 1, 1.5, [1], {"a": 1}]


def minimal_doc():
    return {
        "alternatives": ["A1", "A2"],
        "criteria": ["C1", "C2"],
        "polarity": ["benefit", "cost"],
        "weights": [0.6, 0.4],
        "experts": [
            [[[0.5, 0.5], [0.6, 0.4]], [[0.3, 0.7], [0.2, 0.8]]],
            [[[0.4, 0.6], [0.7, 0.3]], [[0.1, 0.9], [0.6, 0.2]]],
        ],
    }


class TestParseProblem:
    def test_round_trip(self):
        p = parse_problem(minimal_doc())
        again = parse_problem(dump_problem(p))
        assert again == p
        assert dump_problem(again) == dump_problem(p)

    def test_dict_round_trip_is_lossless(self):
        p = parse_problem(minimal_doc())
        assert problem_to_dict(p) == minimal_doc()

    def test_bundled_case_study(self):
        p = load_case_study()
        assert p.shape == (3, 5, 5)
        assert p.polarity == ("cost", "benefit", "benefit", "cost", "cost")

    def test_missing_field_is_located(self):
        doc = minimal_doc()
        del doc["weights"]
        with pytest.raises(ParseError, match="weights"):
            parse_problem(doc)

    def test_bad_weights_name_the_field(self):
        doc = minimal_doc()
        doc["weights"] = [0.6, 0.3]  # sums to 0.9
        with pytest.raises(ParseError, match="weights"):
            parse_problem(doc)

    def test_bad_polarity_is_located(self):
        doc = minimal_doc()
        doc["polarity"] = ["benefit", "gain"]
        with pytest.raises(ParseError, match=r"polarity\[1\]"):
            parse_problem(doc)

    def test_bad_cell_is_located(self):
        doc = minimal_doc()
        doc["experts"][1][0][1] = [0.9, 0.9]  # violates the quadratic constraint
        with pytest.raises(ParseError, match=r"experts\[1\]\[0\]\[1\]"):
            parse_problem(doc)

    def test_non_pair_cell_is_located(self):
        doc = minimal_doc()
        doc["experts"][0][1][0] = [0.5]
        with pytest.raises(ParseError, match=r"experts\[0\]\[1\]\[0\]"):
            parse_problem(doc)

    def test_invalid_json(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_problem("{not json", source="broken.json")

    @pytest.mark.parametrize("path, value, message", [
        (("experts", 1), [[[0.5, 0.5], [0.5, 0.5]]], r"experts\[1\]: expected 2 items, one per alternative, got 1"),
        (("experts", 0, 1), [[0.5, 0.5]] * 3, r"experts\[0\]\[1\]: expected 2 items, one per criterion, got 3"),
    ], ids=["rows", "cells"])
    def test_a_matrix_of_the_wrong_shape_is_located(self, path, value, message):
        doc = minimal_doc()
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_problem(doc)

    @pytest.mark.parametrize(
        "path, value, location",
        [
            (("weights", 0), 10**400, "weights"),
            (("experts", 0, 1, 0), [10**400, 0.5], r"experts\[0\]\[1\]\[0\]"),
            (("experts", 1, 0, 1), [0.5, -(10**400)], r"experts\[1\]\[0\]\[1\]"),
            (("alternatives", 1), "A\ud800", r"alternatives\[1\]"),
            (("criteria", 0), "\udfff", r"criteria\[0\]"),
        ],
        ids=["huge weight", "huge mu", "huge negative nu", "surrogate alternative", "surrogate criterion"],
    )
    def test_unrepresentable_values_are_located(self, path, value, location):
        doc = minimal_doc()
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        for form in (doc, json.dumps(doc)):
            with pytest.raises(ParseError, match=location):
                parse_problem(form)

    @pytest.mark.parametrize(
        "weights", [[" 0.5 ", "5e-1"], [True, False], [10**400, 0.0]], ids=["strings", "bools", "401 digits"]
    )
    def test_weights_follow_the_cell_number_rule(self, tmp_path, capsys, weights):
        doc = minimal_doc()
        doc["weights"] = weights
        text = json.dumps(doc)
        with pytest.raises(ParseError, match=r"weights\[0\]"):
            parse_problem(text)
        path = tmp_path / "weights.json"
        path.write_text(text)
        assert main(["solve", "--input", str(path)]) == 2
        assert "weights[0]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, value, location",
        [
            (("experts", 0, 0, 0), ["x" * 100_000, 0.5], r"experts\[0\]\[0\]\[0\]\[0\]"),
            (("polarity", 0), "x" * 100_000, r"polarity\[0\]"),
            (("weights", 0), "w" * 100_000, r"weights\[0\]"),
        ],
        ids=["cell", "polarity", "weight"],
    )
    def test_a_long_rejected_value_is_echoed_cut_short(self, tmp_path, capsys, path, value, location):
        doc = minimal_doc()
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        bad = tmp_path / "long.json"
        bad.write_text(json.dumps(doc))
        assert main(["solve", "--input", str(bad)]) == 2
        err = capsys.readouterr().err
        assert re.search(location + r".*'[xw]{15}\.\.\.$", err.strip())
        assert len(err.encode()) - len(str(bad)) < 300

    @pytest.mark.parametrize("key", ["alternatives", "criteria"])
    @pytest.mark.parametrize("label", NON_STRING_LABELS, ids=repr)
    def test_a_label_that_is_not_a_string_is_located(self, key, label):
        doc = minimal_doc()
        doc[key][1] = label
        message = rf"^{key}\[1\]: expected a string, got {type(label).__name__}$"
        for form in (doc, json.dumps(doc)):
            with pytest.raises(ParseError, match=message):
                parse_problem(form)

    @pytest.mark.parametrize(
        "changes, location, message",
        [
            ({"alternatives": [], "experts": [[]]}, "alternatives", "need at least one alternative"),
            ({"alternatives": ["A1"], "criteria": [], "polarity": [], "experts": [[[]]]}, "criteria",
             "need at least one criterion"),
            ({"experts": []}, "experts", "need at least one expert matrix"),
        ],
        ids=["alternatives", "criteria", "experts"],
    )
    def test_an_empty_dimension_is_located_before_the_weights(self, tmp_path, capsys, changes, location, message):
        # the weights are empty too: the empty dimension is what is reported
        doc = {**minimal_doc(), "weights": [], **changes}
        with pytest.raises(ParseError, match=f"^{location}: {message}$") as raised:
            parse_problem(doc)
        assert raised.value.location == location
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {location}: {message}\n"

    def test_integer_literal_over_the_digit_limit(self):
        text = json.dumps(minimal_doc()).replace("0.6,", "1" * 5000 + ",", 1)
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_problem(text)


class TestParseCollections:
    def test_bundled_file(self):
        rows = parse_collections(collections_path().read_text("utf-8"))
        assert [label for label, _ in rows] == ["x1", "x2", "x3"]
        assert len(rows[0][1]) == 4

    def test_empty_collection_rejected(self):
        with pytest.raises(ParseError, match=r"elements\[0\]"):
            parse_collections({"elements": [{"label": "x", "values": []}]})

    def test_labels_default_to_position(self):
        rows = parse_collections({"elements": [{"values": [[0.5, 0.5]]}]})
        assert rows[0][0] == "x1"

    def test_unrepresentable_values_are_located(self):
        with pytest.raises(ParseError, match=r"elements\[0\]\.values\[1\]"):
            parse_collections({"elements": [{"values": [[0.5, 0.5], [1, 10**400]]}]})
        with pytest.raises(ParseError, match=r"elements\[0\]\.label"):
            parse_collections(json.dumps({"elements": [{"label": "\ud800", "values": [[0.5, 0.5]]}]}))

    @pytest.mark.parametrize("label", NON_STRING_LABELS, ids=repr)
    def test_a_label_that_is_not_a_string_is_located(self, label):
        message = rf"^elements\[0\]\.label: expected a string, got {type(label).__name__}$"
        with pytest.raises(ParseError, match=message):
            parse_collections({"elements": [{"label": label, "values": [[0.5, 0.5]]}]})

    @pytest.mark.parametrize("doc, message", [
        ({"elements": [{"lable": "A", "values": [[0.1, 0.2]]}]},
         "elements[0].lable: unknown key; expected one of label, values"),
        ({"elements": [{"values": [[0.1, 0.2]]}, {"values": [[0.1, 0.2]], "note": ""}]},
         "elements[1].note: unknown key; expected one of label, values"),
        ({"elements": [{"values": [[0.1, 0.2]]}], "label": "A"},
         "label: unknown key; expected one of elements"),
    ], ids=["misspelt label", "second element", "top level"])
    def test_an_unknown_key_is_located(self, tmp_path, capsys, doc, message):
        with pytest.raises(ParseError) as info:
            parse_collections(json.dumps(doc), source="c.json")
        assert str(info.value) == f"c.json: {message}"
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert main(["fuse", "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"


class TestParseConfig:
    def test_keys_present_are_returned(self):
        doc = '{"operator": "q", "precision": 3, "aggregate_precision": null}'
        assert parse_config(doc) == {"operator": "q", "precision": 3, "aggregate_precision": None}

    def test_empty_config(self):
        assert parse_config({}) == {}

    def test_operator_must_be_a_name_or_alias(self):
        for name in ("cpwa_q", "cpwa_p", "cpwg_q", "cpwg_p", "q", "p"):
            assert parse_config({"operator": name}) == {"operator": name}
        for bad in ("bogus", "Q", "cpwa", ["cpwa_q"], 1):
            with pytest.raises(ParseError, match=r"^cfg\.json: operator: unknown operator"):
                parse_config({"operator": bad}, source="cfg.json")


@pytest.mark.parametrize("load, text, location, message", [
    (load_problem, "{", None, "invalid JSON: Expecting property name enclosed in double quotes"),
    (load_problem, json.dumps({**minimal_doc(), "criteria": ["C1", None]}),
     "criteria[1]", "expected a string, got NoneType"),
    (load_problem, json.dumps(minimal_doc()).replace("[0.6, 0.4]]", "[0.9, 0.9]]", 1),
     "experts[0][0][1]", "mu**2 + nu**2 must not exceed 1"),
    (load_problem, json.dumps({**minimal_doc(), "weights": [0.6, 0.3]}), "weights", "must sum to 1"),
    (load_problem, json.dumps({**minimal_doc(), "polarity": ["benefit", "profit"]}), "polarity[1]",
     "must be 'benefit' or 'cost', got 'profit'"),
    (load_problem, json.dumps({**minimal_doc(), "criteria": ["C1", "C1"]}), "criteria",
     "labels must be unique, 'C1' repeats"),
    (load_config, '{"operator": "cpwa_z"}', "operator", "unknown operator 'cpwa_z'"),
    (load_config, '{"precision": -1}', "precision", "must be a non-negative integer"),
    (load_config, '{"note": 1}', "note", "unknown key"),
], ids=["json", "label", "cell", "weights", "polarity", "repeat", "operator", "precision", "key"])
def test_a_loaded_document_error_carries_its_file_and_place(tmp_path, load, text, location, message):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(ParseError) as info:
        load(path)
    err = info.value
    assert (err.source, err.location) == (str(path), location)
    assert err.args[0].startswith(message)  # the message alone, without the file or place
    assert str(err) == ": ".join(x for x in (str(path), location, err.args[0]) if x is not None)


class TestWriteSolveTables:
    def test_files_written(self, tmp_path):
        result = solve(load_case_study(), "cpwa_q")
        files = write_solve_tables(result, tmp_path / "out")
        expected = {
            "normalized_matrix",
            "fused_centers",
            "fused_radii",
            "circular_matrix",
            "aggregated",
            "similarities",
            "ranking",
            "result",
        }
        assert set(files) == expected
        assert all(path.exists() for path in files.values())

    def test_byte_identical_across_runs(self, tmp_path):
        result = solve(load_case_study(), "cpwg_p")
        first = write_solve_tables(result, tmp_path / "a")
        second = write_solve_tables(solve(load_case_study(), "cpwg_p"), tmp_path / "b")
        for name in first:
            assert first[name].read_bytes() == second[name].read_bytes(), name

    def test_ranking_table_content(self, tmp_path):
        result = solve(load_case_study(), "cpwa_q")
        files = write_solve_tables(result, tmp_path)
        lines = files["ranking"].read_text().splitlines()
        assert lines[0] == "rank,alternative,score,tied"
        assert lines[1].startswith("1,A5,")
        assert lines[5].startswith("5,A1,")

    def test_precision_above_the_bound_writes_nothing(self, tmp_path):
        result = solve(load_case_study(), "cpwa_q")
        with pytest.raises(DomainError, match="at most 27"):
            write_solve_tables(result, tmp_path / "out", precision=28)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("digits", [-1, True, 2.0], ids=repr)
    def test_precision_outside_the_rule_writes_nothing(self, tmp_path, digits):
        result = solve(load_case_study(), "cpwa_q")
        with pytest.raises(DomainError, match="non-negative integer"):
            write_solve_tables(result, tmp_path / "out", precision=digits)
        assert not (tmp_path / "out").exists()

    def test_result_document(self, tmp_path):
        result = solve(load_case_study(), "cpwg_q")
        files = write_solve_tables(result, tmp_path)
        doc = json.loads(files["result"].read_text())
        assert doc["ranking_ascending"] == "A1 < A4 < A3 < A5 < A2"
        assert doc["best_alternative"] == "A2"
        assert len(doc["aggregated"]) == 5


class TestCli:
    def test_solve_prints_ranking(self, capsys):
        assert main(["solve"]) == 0
        out = capsys.readouterr().out
        assert "ranking: A1 < A4 < A3 < A2 < A5" in out
        assert "best alternative: A5" in out

    def test_solve_geometric_best(self, capsys):
        assert main(["solve", "--operator", "cpwg_q"]) == 0
        assert "best alternative: A2" in capsys.readouterr().out

    def test_solve_writes_tables(self, tmp_path, capsys):
        code = main(["solve", "--out-dir", str(tmp_path / "tables")])
        assert code == 0
        assert (tmp_path / "tables" / "ranking.csv").exists()
        assert (tmp_path / "tables" / "result.json").exists()

    def test_solve_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"operator": "cpwg_p", "precision": 3}))
        assert main(["solve", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "operator: cpwg_p" in out
        assert "ranking: A1 < A4 < A3 < A5 < A2" in out

    def test_solve_rejects_bad_weights(self, tmp_path, capsys):
        doc = json.loads(case_study_path().read_text())
        doc["weights"] = [0.2, 0.4, 0.1, 0.1, 0.1]  # sums to 0.9
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["solve", "--input", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "weights" in err

    @pytest.mark.parametrize(
        "config, location",
        [
            ('{"precision": "abc"}', "precision"),
            ('{"precision": -1}', "precision"),
            ('{"precision": true}', "precision"),
            ('{"aggregate_precision": "x"}', "aggregate_precision"),
            ('{"aggregate_precision": 1.5}', "aggregate_precision"),
            ('{"operator": ["cpwa_q"]}', "operator"),
            ('{"precision": 2', "invalid JSON"),
            ("[2]", "top level must be an object"),
            ('{"precision": 28}', "precision"),
            ('{"precision": 100000}', "precision"),
            ('{"aggregate_precision": 40}', "aggregate_precision"),
            ('{"precison": 3, "operater": "cpwg_p"}', "precison: unknown key"),
            ('{"operator": "cpwa_q", "note": 1}', "note: unknown key"),
        ],
    )
    def test_solve_bad_config_is_located(self, tmp_path, capsys, config, location):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        assert main(["solve", "--config", str(cfg)]) == 2
        assert f"{cfg}: {location}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--precision", "-3"],
            ["fuse", "--input", str(collections_path()), "--precision", "-3"],
        ],
    )
    def test_negative_precision_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:  # argparse rejects a bad flag value
            main(argv)
        assert exc.value.code == 2
        assert "--precision: must be a non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--precision", "28"],
            ["solve", "--precision", "40"],
            ["fuse", "--input", str(collections_path()), "--precision", "28"],
        ],
    )
    def test_precision_above_the_bound_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--precision: must be a non-negative integer at most 27" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--precision", "1" * 5000],
            ["fuse", "--input", str(collections_path()), "--precision", "1" * 5000],
        ],
        ids=["solve", "fuse"],
    )
    def test_precision_over_the_integer_digit_limit_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:  # int() of over 4,300 digits raises ValueError
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--precision: must be a non-negative integer at most 27" in err
        assert len(err.encode()) < 300  # the argument is echoed cut short

    def test_config_precision_with_many_digits_is_echoed_cut_short(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"precision": ' + "1" * 4000 + "}")
        assert main(["solve", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}: precision: must be a non-negative integer at most 27, got {'1' * 16}..." in err
        assert len(err.encode()) - len(str(cfg)) < 300

    def test_unknown_config_operator_is_located(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"operator": "bogus"}')
        assert main(["solve", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: operator: unknown operator 'bogus'; "
            "expected one of cpwa_q, cpwa_p, cpwg_q, cpwg_p, q, p\n"
        )

    def test_unknown_complexity_operator_message_is_unquoted(self, capsys):
        assert main(["complexity", "5", "5", "3", "--operator", "bogus"]) == 2
        assert capsys.readouterr().err == (
            "error: unknown operator 'bogus'; expected one of cpwa_q, cpwa_p, cpwg_q, cpwg_p, q, p\n"
        )

    def test_largest_precision_solves(self, tmp_path, capsys):
        assert main(["solve", "--precision", "27", "--out-dir", str(tmp_path)]) == 0
        assert "ranking: A1 < A4 < A3 < A2 < A5" in capsys.readouterr().out
        row = (tmp_path / "aggregated.csv").read_text().splitlines()[1].split(",")
        assert [len(x.partition(".")[2]) for x in row[1:]] == [27, 27, 27]

    def test_solve_names_a_degenerate_alternative(self, tmp_path, capsys):
        doc = minimal_doc()
        doc["experts"] = [[[[0.5, 0.5], [0.6, 0.4]], [[0.0, 0.0], [0.0, 0.0]]]]
        bad = tmp_path / "zero.json"
        bad.write_text(json.dumps(doc))
        assert main(["solve", "--input", str(bad)]) == 2
        assert "alternative 'A2'" in capsys.readouterr().err

    def test_solve_names_an_alternative_aggregated_off_the_disc(self, tmp_path, capsys):
        # A1's mu = 1.0 holds the aggregate's mu at 1.0, while its nu, a weighted
        # geometric mean, rises from 1e-8 to 0.023: the aggregate leaves the disc.
        doc = minimal_doc()
        doc.update(polarity=["benefit", "benefit"], weights=[0.2, 0.8])
        doc["experts"] = [[[[1.0, 1e-8], [0.3, 0.9]], [[0.5, 0.5], [0.5, 0.5]]]]
        bad = tmp_path / "edge.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--input", str(bad)]) == 0
        capsys.readouterr()
        assert main(["solve", "--input", str(bad)]) == 2
        assert "error: alternative 'A1': mu**2 + nu**2 must not exceed 1" in capsys.readouterr().err

    def test_solve_names_a_fused_cell_off_the_disc(self, tmp_path, capsys):
        # Each expert's cell has mu**2 + nu**2 == 1.000000001, inside the slack of the
        # point rule, but the fused center's is 1.0000000010000003, just outside it.
        doc = minimal_doc()
        doc.update(criteria=["C1"], polarity=["benefit"], weights=[1.0])
        doc["experts"] = [
            [[[0.7121589030173542, 0.7020183030755814]], [[0.5, 0.5]]],
            [[[0.7609249135053414, 0.6488399471417344]], [[0.5, 0.5]]],
        ]
        bad = tmp_path / "slack.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--input", str(bad)]) == 0
        capsys.readouterr()
        assert main(["solve", "--input", str(bad)]) == 2
        assert capsys.readouterr().err == (
            "error: alternative 'A1': criterion 'C1': mu**2 + nu**2 must not exceed 1, "
            "got 1.0000000010000003 for mu=0.7369453938861389, nu=0.6759522819178909\n"
        )

    def test_solve_echoes_a_long_alternative_label_cut_short(self, tmp_path, capsys):
        doc = minimal_doc()
        doc["alternatives"][0] = "A" * 100_000
        doc["experts"] = [[[[0.0, 0.0], [0.0, 0.0]], [[0.5, 0.5], [0.6, 0.4]]]]
        bad = tmp_path / "long.json"
        bad.write_text(json.dumps(doc))
        assert main(["solve", "--input", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: alternative 'AAAAAAAAAAAAAAA...: ")
        assert len(err.encode()) < 300

    def test_a_lone_surrogate_label_is_rejected_before_any_file(self, tmp_path):
        problem = parse_problem(minimal_doc())
        with pytest.raises(DomainError, match="label is not valid text"):
            problem = DecisionProblem(("A\ud800", "A2"), problem.criteria, problem.polarity,
                                      problem.weights, problem.experts)
            write_solve_tables(solve(problem), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_solve_names_an_alternative_rounded_off_the_disc(self, tmp_path, capsys, monkeypatch):
        gen = perfbench_gen(monkeypatch)
        doc = gen.generate(gen.Params(3, 600, 5, boundary_frac=0.1, zero_weight=True), 11)
        path = tmp_path / "circle.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", "--input", str(path)]) == 2
        assert "error: alternative 'A285': mu**2 + nu**2 must not exceed 1" in capsys.readouterr().err

    def test_fuse_bundled_example(self, capsys):
        assert main(["fuse", "--input", str(collections_path())]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "label,mu,nu,r"
        assert out[1] == "x1,0.41,0.73,0.13"
        assert out[2] == "x2,0.16,0.46,0.17"
        assert out[3] == "x3,0.80,0.32,0.20"

    def test_fuse_quotes_labels(self, tmp_path, capsys):
        labels = ["a,b", 'say "hi"', ""]
        doc = tmp_path / "labels.json"
        doc.write_text(json.dumps({"elements": [{"label": x, "values": [[0.5, 0.5]]} for x in labels]}))
        assert main(["fuse", "--input", str(doc)]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows == [["label", "mu", "nu", "r"]] + [[x, "0.50", "0.50", "0.00"] for x in labels]

    def test_labels_with_carriage_returns_read_back(self, tmp_path, capsys):
        # RFC 4180 quotes every line break, "\r" alone included.
        labels = ["cr\rx", "\r", "a\r\nb"]
        doc = json.loads(case_study_path().read_text())
        doc["alternatives"][:3] = doc["criteria"][:3] = labels
        problem = tmp_path / "cr.json"
        problem.write_text(json.dumps(doc))
        out = tmp_path / "tables"
        assert main(["solve", "--input", str(problem), "--out-dir", str(out)]) == 0
        for path in sorted(out.glob("*.csv")):
            with path.open(newline="", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            for column, names in (("alternative", doc["alternatives"]), ("criterion", doc["criteria"])):
                if column in header:
                    assert {row[header.index(column)] for row in rows} == set(names), path.name
        collections = tmp_path / "collections.json"
        collections.write_text(json.dumps({"elements": [{"label": x, "values": [[0.5, 0.5]]} for x in labels]}))
        capsys.readouterr()
        assert main(["fuse", "--input", str(collections)]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out, newline="")))
        assert [row[0] for row in rows] == ["label"] + labels

    def test_fuse_single_value_row_has_zero_radius(self, tmp_path, capsys):
        doc = tmp_path / "one.json"
        doc.write_text(json.dumps({"elements": [{"label": "solo", "values": [[0.5, 0.5]]}]}))
        assert main(["fuse", "--input", str(doc)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1] == "solo,0.50,0.50,0.00"

    def test_fuse_empty_collection_fails(self, tmp_path, capsys):
        doc = tmp_path / "empty.json"
        doc.write_text(json.dumps({"elements": [{"label": "none", "values": []}]}))
        assert main(["fuse", "--input", str(doc)]) == 2
        assert "non-empty" in capsys.readouterr().err

    def test_complexity_single(self, capsys):
        assert main(["complexity", "5", "5", "3"]) == 0
        assert capsys.readouterr().out.strip() == "1380"
        assert main(["complexity", "5", "5", "3", "--operator", "p"]) == 0
        assert capsys.readouterr().out.strip() == "1440"

    def test_complexity_domain_error(self, capsys):
        assert main(["complexity", "1", "5", "3"]) == 2
        assert "k (criteria)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["1", "5", "3"], "k (criteria)"),
            (["5", "5", "0"], "m (experts)"),
            (["1", "5", "3", "--operator", "bogus"], "unknown operator 'bogus'"),
        ],
        ids=["criteria", "experts", "operator"],
    )
    def test_complexity_sweep_checks_its_arguments(self, capsys, argv, message):
        assert main(["complexity", *argv, "--sweep"]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_complexity_sweep(self, capsys):
        assert main(["complexity", "10", "10", "3", "--sweep"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "k,n,m,count"
        assert len(lines) == 1 + 9 * 9 * 3
        assert lines[1] == "2,2,1,156"

    def test_validate_ok(self, capsys):
        assert main(["validate", "--input", str(case_study_path())]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["validate", "--input", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_input_file(self, capsys):
        assert main(["validate", "--input", "does-not-exist.json"]) == 2

    @pytest.mark.parametrize("argv", [
        ["validate", "--input"], ["solve", "--input"], ["solve", "--config"], ["fuse", "--input"],
    ], ids=["validate", "solve input", "solve config", "fuse"])
    def test_a_file_that_is_not_utf8_exits_2(self, tmp_path, capsys, argv):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe{\x00}\x00")
        assert main([*argv, str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not valid UTF-8 text: invalid start byte at byte 0")
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", [
        "[" * 200_000,
        json.dumps(minimal_doc()).replace('"experts": [', '"experts": ' + "[" * 200_000, 1),
    ], ids=["top level", "experts"])
    def test_nesting_past_the_recursion_limit_is_invalid_json(self, tmp_path, capsys, text):
        with pytest.raises(ParseError, match="^deep.json: invalid JSON: maximum recursion depth"):
            parse_problem(text, source="deep.json")
        deep = tmp_path / "deep.json"
        deep.write_text(text)
        assert main(["validate", "--input", str(deep)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {deep}: invalid JSON: maximum recursion depth")


class TestCachedParser:
    """``main`` builds its parser on its first call and reuses it for the rest of the process."""

    def test_five_calls_build_the_parser_once(self, capsys):
        cli.build_parser.cache_clear()
        for argv in (["solve"], ["validate", "--input", str(case_study_path())], ["complexity", "5", "5", "3"],
                     ["solve", "--operator", "q"], ["fuse", "--input", str(collections_path())]):
            assert main(argv) == 0
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 4)

    def test_no_call_carries_state_to_the_next(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"operator": "q", "precision": 3}))
        calls = [["solve", "--precision", "3"], ["solve", "--config", str(cfg)],
                 ["solve", "--operator", "cpwg_p"], ["solve", "--precision", "x"], ["solve"]]

        def run(argv, out):  # exit status, stdout, stderr and every file written, by name
            try:
                code = main([*argv, "--out-dir", out])
            except SystemExit as exc:
                code = exc.code
            files = {p.name: p.read_bytes() for p in sorted(Path(out).glob("*"))}
            return code, *capsys.readouterr(), files

        monkeypatch.chdir(tmp_path)  # relative out dirs, so stdout does not name the run
        cached = [run(argv, f"cached{i}") for i, argv in enumerate(calls)]
        fresh = []
        for i in reversed(range(len(calls))):  # in the other order, so no carried state matches
            cli.build_parser.cache_clear()
            fresh.insert(0, run(calls[i], f"fresh{i}"))
        assert [c[0] for c in cached] == [0, 0, 0, 2, 0]
        assert [c[1].replace("cached", "fresh") for c in cached] == [f[1] for f in fresh]
        assert [c[2:] for c in cached] == [f[2:] for f in fresh]
        assert cached[0][3]["ranking.csv"] != cached[4][3]["ranking.csv"]  # precision 3, then 2 again

    def test_help_wraps_to_the_terminal_on_each_call(self, monkeypatch, capsys):
        def help_text(parse):
            with pytest.raises(SystemExit) as exc:
                parse(["solve", "--help"])
            assert exc.value.code == 0
            return capsys.readouterr().out

        texts = []
        for columns in (40, 150, 40):
            monkeypatch.setenv("COLUMNS", str(columns))
            texts.append(help_text(main))
            assert texts[-1] == help_text(cli.build_parser.__wrapped__().parse_args)
        narrow, wide = (text.splitlines() for text in texts[:2])
        usage = narrow.index("")  # the usage, whose "[--precision PRECISION]" argparse does not break
        assert max(map(len, narrow[usage:])) <= 40 < 80 < max(map(len, wide)) <= 150
        assert len(narrow) > len(wide) and texts[2] == texts[0]

    def test_threads_parse_their_own_arguments_at_once(self):
        argvs = [["solve", "--precision", "3", "--operator", "q"], ["solve", "--out-dir", "t", "--config", "c"],
                 ["fuse", "--input", "f.json", "--precision", "5"], ["complexity", "5", "6", "3", "--sweep"]]
        parser = cli.build_parser()
        serial = [vars(parser.parse_args(argv)) for argv in argvs]
        barrier = threading.Barrier(len(argvs))

        def parse(argv):
            barrier.wait(timeout=60)
            return [vars(parser.parse_args(argv)) for _ in range(200)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(argvs)) as pool:
                parsed = list(pool.map(parse, argvs, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert parser is cli.build_parser()
        for expected, got in zip(serial, parsed):
            assert got == [expected] * 200
