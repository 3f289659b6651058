import json

import pytest

from cpfs import ParseError, case_study_path, collections_path, load_case_study, solve
from cpfs.cli import main
from cpfs.serialize import (
    dump_problem,
    load_problem,
    parse_collections,
    parse_config,
    parse_problem,
    problem_to_dict,
    write_solve_tables,
)


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


class TestParseConfig:
    def test_keys_present_are_returned(self):
        doc = '{"operator": "q", "precision": 3, "aggregate_precision": null, "note": 1}'
        assert parse_config(doc) == {"operator": "q", "precision": 3, "aggregate_precision": None}

    def test_empty_config(self):
        assert parse_config({}) == {}


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

    def test_solve_names_a_degenerate_alternative(self, tmp_path, capsys):
        doc = minimal_doc()
        doc["experts"] = [[[[0.5, 0.5], [0.6, 0.4]], [[0.0, 0.0], [0.0, 0.0]]]]
        bad = tmp_path / "zero.json"
        bad.write_text(json.dumps(doc))
        assert main(["solve", "--input", str(bad)]) == 2
        assert "alternative 'A2'" in capsys.readouterr().err

    def test_fuse_bundled_example(self, capsys):
        assert main(["fuse", "--input", str(collections_path())]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "label,mu,nu,r"
        assert out[1] == "x1,0.41,0.73,0.13"
        assert out[2] == "x2,0.16,0.46,0.17"
        assert out[3] == "x3,0.80,0.32,0.20"

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
