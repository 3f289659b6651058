"""Mutated input documents end in a ``ParseError``, never a traceback.

Each test mutates a bundled document (the case-study problem, the point-value
collections, a config): it replaces, deletes or duplicates a node anywhere
in the tree, or perturbs a number.  The matching ``parse_*`` function must
return or raise ``ParseError`` and nothing else, and ``cpfs`` must exit with
status 0 or 2.  Mutated expert matrices must also parse, as a document and
as JSON text, to the columns, or the located error, of a parser that checks
every node.

The public constructors, scalar operations and count arguments get junk in
place of numbers (huge integers, bools, strings, ``None``, non-finite floats,
``Decimal``, ``Fraction``, numpy floats), and the same junk as labels; they
must return or raise a ``CircularFuzzyError``, never another exception.
"""

import copy
import json
import math
from decimal import Decimal
from fractions import Fraction

import numpy
from hypothesis import HealthCheck, example, given, settings, strategies as st

from cpfs import (
    CPFS,
    CPFV,
    PFV,
    CircularFuzzyError,
    DecisionProblem,
    ParseError,
    WeightVector,
    algebraic_pair,
    case_study_path,
    collections_path,
    complexity_estimate,
    format_fixed,
    power,
    round_half_up,
    scalar_multiple,
)
from cpfs.cli import main
from cpfs.serialize import parse_collections, parse_config, parse_problem
from helpers import columns_or_error, parsed_columns, reference_columns

PROBLEM = json.loads(case_study_path().read_text(encoding="utf-8"))
COLLECTIONS = json.loads(collections_path().read_text(encoding="utf-8"))
CONFIG = {"operator": "cpwg_p", "precision": 3, "aggregate_precision": 2}

json_values = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
        st.sampled_from([
            "benefit", "cost", "cpwa_q", "label", "values", 0.0, -0.0, 1.0, 0.5,
            10**400, -(10**400), "\ud800",
        ]),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)


def children(node):
    if isinstance(node, dict):
        return list(node)
    if isinstance(node, list):
        return list(range(len(node)))
    return []


@st.composite
def mutated(draw, document):
    """A deep copy of ``document`` with one to three mutations."""
    doc = copy.deepcopy(document)
    for _ in range(draw(st.integers(1, 3))):
        parent, key = None, None
        node = doc
        # Walk down a random path; stop at a leaf or when the draw says so.
        while children(node) and (parent is None or draw(st.booleans())):
            parent, key = node, draw(st.sampled_from(children(node)))
            node = node[key]
        if parent is None:
            continue
        action = draw(st.sampled_from(["replace", "delete", "duplicate", "perturb"]))
        if action == "replace":
            parent[key] = draw(json_values)
        elif action == "delete":
            del parent[key]
        elif action == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(node))
        elif action == "perturb" and type(node) in (int, float) and abs(node) < 1e6:
            parent[key] = draw(st.sampled_from([
                -node, node * 2, node + 1e-9, node - 1e-9, node + 1, float(node), int(node),
                10**400,
            ]))
    return doc


def parses_or_parse_error(parse, doc):
    try:
        parse(doc)
    except ParseError:
        pass


fuzz = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@fuzz
@given(mutated(PROBLEM))
def test_mutated_problem(tmp_path_factory, doc):
    parses_or_parse_error(parse_problem, doc)
    parses_or_parse_error(parse_problem, json.dumps(doc))
    path = tmp_path_factory.mktemp("problem") / "problem.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", "--input", str(path)]) in (0, 2)
    assert main(["solve", "--input", str(path), "--out-dir", str(path.parent / "out")]) in (0, 2)


@fuzz
@given(mutated({"experts": PROBLEM["experts"]}))
@example({"experts": [PROBLEM["experts"][0], [[[0.5, 0.5]] * 4 + [[10**400, 0]]] * 5, []]})
def test_mutated_cells_parse_as_a_parser_that_checks_every_node(doc):
    """Every mutation lands in the expert matrices; ``parse_problem`` must give the columns,
    or the located error, of a parser that checks every node in document order, from the
    document and from its JSON text.  No matrix at all is the problem's own error, not the parser's."""
    if doc.get("experts", []) == []:
        return
    want = columns_or_error(lambda: reference_columns(doc["experts"], 5, 5))
    document = {**PROBLEM, **doc}
    assert columns_or_error(lambda: parsed_columns(document)) == want
    assert columns_or_error(lambda: parsed_columns(json.dumps(document))) == want


@fuzz
@given(mutated(COLLECTIONS))
def test_mutated_collections(tmp_path_factory, doc):
    parses_or_parse_error(parse_collections, doc)
    path = tmp_path_factory.mktemp("collections") / "collections.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["fuse", "--input", str(path)]) in (0, 2)


@fuzz
@given(mutated(CONFIG))
def test_mutated_config(tmp_path_factory, doc):
    parses_or_parse_error(parse_config, doc)
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["solve", "--config", str(path)]) in (0, 2)


junk = st.one_of(
    st.sampled_from([
        10**400, -(10**400), 10**5000, True, False, "0.5", "", None, math.nan, math.inf, -math.inf,
        Decimal("0.5"), Decimal("NaN"), Fraction(1, 2), numpy.float64(0.5), numpy.float64(math.nan),
        numpy.float64(math.inf), numpy.float64(2.0),
    ]),
    st.floats(),
    st.integers(-2, 2),
    st.integers(2**1023, 2**1025),  # from 2**1024 - 2**970 on beyond the float range
)
GENS = algebraic_pair()


def returns_or_raises_circular_fuzzy_error(build, *args):
    try:
        build(*args)
    except CircularFuzzyError:
        pass


@given(junk, junk, junk)
def test_junk_numbers(a, b, c):
    returns_or_raises_circular_fuzzy_error(PFV, a, b)
    returns_or_raises_circular_fuzzy_error(CPFV, a, b, c)
    returns_or_raises_circular_fuzzy_error(CPFV, 0.5, 0.5, a)
    returns_or_raises_circular_fuzzy_error(WeightVector, (a, b, c))
    returns_or_raises_circular_fuzzy_error(scalar_multiple, a, CPFV(0.5, 0.5, 0.5), GENS)
    returns_or_raises_circular_fuzzy_error(power, CPFV(0.5, 0.5, 0.5), a, GENS)
    returns_or_raises_circular_fuzzy_error(WeightVector.uniform, a)
    returns_or_raises_circular_fuzzy_error(complexity_estimate, a, b, c)
    for fn in (round_half_up, format_fixed):
        returns_or_raises_circular_fuzzy_error(fn, a, 2)
        returns_or_raises_circular_fuzzy_error(fn, 0.5, b)


@given(junk, junk)
@example(10**5000, 10**5000)
def test_junk_labels(a, b):
    returns_or_raises_circular_fuzzy_error(CPFS, ((a, CPFV(0.5, 0.5, 0.5)),))
    returns_or_raises_circular_fuzzy_error(
        DecisionProblem, (a,), (b,), ("benefit",), (1.0,), (((PFV(0.5, 0.5),),),)
    )
    parses_or_parse_error(parse_collections, {"elements": [{"label": a, "values": [[0.5, 0.5]]}]})
    parses_or_parse_error(parse_problem, {**PROBLEM, "alternatives": [a, "A2", "A3", "A4", "A5"]})
