"""Every entry point takes the same operator names, and rejects the same ones.

The four identifiers and the ``q``/``p`` aliases are accepted alike by the
library (``make_operator``, ``complexity_estimate``, ``solve``), by a config
document and by both ``--operator`` options of the CLI.  Any other name gets
one message from every entry point.
"""

import json

import pytest

from cpfs import (
    ParseError,
    UnknownOperator,
    WeightVector,
    complexity_estimate,
    load_case_study,
    make_operator,
    solve,
)
from cpfs.cli import main
from cpfs.serialize import parse_config
from helpers import make_rng, sample_cpfv

#: Each accepted name with the identifier it denotes.
NAMES = {
    "cpwa_q": "cpwa_q", "cpwa_p": "cpwa_p", "cpwg_q": "cpwg_q", "cpwg_p": "cpwg_p",
    "q": "cpwa_q", "p": "cpwa_p",
}
EXPECTED = "expected one of cpwa_q, cpwa_p, cpwg_q, cpwg_p, q, p"
#: Rejected names, each with the text the message shows for it.
BAD = [
    ("bogus", "'bogus'"),
    ("Q", "'Q'"),
    ("cpwa", "'cpwa'"),
    (["cpwa_q"], "['cpwa_q']"),
    (1, "1"),
    (10**5000, "an integer too large to print"),
]
#: The same names as command-line text.
BAD_ARGUMENTS = [
    ("bogus", "'bogus'"),
    ("Q", "'Q'"),
    ("cpwa", "'cpwa'"),
    ("['cpwa_q']", "\"['cpwa_q']\""),
    ("1", "'1'"),
    ("1" + "0" * 5000, "'100000000000000..."),
]


@pytest.fixture(scope="module")
def problem():
    return load_case_study()


def solved(tmp_path, name, argv):
    out = tmp_path / name
    assert main([*argv, "--out-dir", str(out)]) == 0
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


@pytest.mark.parametrize("name", NAMES)
def test_every_entry_point_accepts_each_name(problem, tmp_path, capsys, name):
    full = NAMES[name]
    rng = make_rng(10)
    values, w = [sample_cpfv(rng) for _ in range(3)], WeightVector.uniform(3)
    assert make_operator(name).__name__ == full
    assert make_operator(name)(values, w) == make_operator(full)(values, w)
    assert complexity_estimate(5, 5, 3, name) == complexity_estimate(5, 5, 3, full)
    result = solve(problem, name)
    assert result.operator == full
    assert result.similarities == solve(problem, full).similarities
    assert parse_config({"operator": name}) == {"operator": name}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"operator": name}))
    reference = solved(tmp_path, "full", ["solve", "--operator", full])
    capsys.readouterr()
    assert solved(tmp_path, "flag", ["solve", "--operator", name]) == reference
    assert f"operator: {full}\n" in capsys.readouterr().out
    assert solved(tmp_path, "config", ["solve", "--config", str(cfg)]) == reference
    assert f"operator: {full}\n" in capsys.readouterr().out
    assert main(["complexity", "5", "5", "3", "--operator", name]) == 0
    assert capsys.readouterr().out == f"{complexity_estimate(5, 5, 3, full)}\n"


@pytest.mark.parametrize("name, shown", BAD, ids=["bogus", "Q", "cpwa", "list", "1", "10**5000"])
def test_library_and_config_reject_other_names(problem, name, shown):
    message = f"unknown operator {shown}; {EXPECTED}"
    for call in (
        lambda: make_operator(name),
        lambda: complexity_estimate(5, 5, 3, name),
        lambda: solve(problem, name),
    ):
        with pytest.raises(UnknownOperator) as exc:
            call()
        assert str(exc.value) == message
    with pytest.raises(ParseError) as exc:
        parse_config({"operator": name}, source="cfg.json")
    assert exc.value.location == "operator"
    assert str(exc.value) == f"cfg.json: operator: {message}"


@pytest.mark.parametrize("name, shown", BAD_ARGUMENTS, ids=["bogus", "Q", "cpwa", "list", "1", "long"])
def test_cli_rejects_other_names(tmp_path, capsys, name, shown):
    message = f"unknown operator {shown}; {EXPECTED}"
    for argv in (["solve", "--operator", name], ["complexity", "5", "5", "3", "--operator", name]):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"operator": name}))
    assert main(["solve", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: operator: {message}\n"
