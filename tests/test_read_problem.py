"""Problem text read one expert matrix at a time, against ``json.loads``.

``parse_problem`` reads JSON text itself where the text has the shape every
producer writes (an object with unique keys, ``alternatives`` and ``criteria``
before ``experts``, nothing after the object), decoding one expert matrix at a
time: a matrix the whole-matrix pass takes is held as its columns, any other as
decoded, to be read cell by cell.  Any other text is decoded whole by
``json.loads``.  Whichever path a text takes, it must give what
``parse_problem(json.loads(text))`` gives: the same problem, bit for bit, or
the same located error.  The reader must also keep a parse's memory down to
about one matrix's decoded lists, and one more for a matrix read cell by cell.
"""

import json
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from cpfs import ParseError, case_study_path
from cpfs.serialize import _Columns, _read_problem, dump_problem, parse_problem, problem_to_dict
from helpers import perfbench_gen, problems

WHITESPACE = " \t\n\r"


def outcome(document):
    """Labels, polarity, weights and ``float.hex`` of both columns of the problem
    ``parse_problem`` makes of ``document``, or the message and location of its error."""
    try:
        p = parse_problem(document)
    except ParseError as err:
        return err.args[0], err.location
    return (p.alternatives, p.criteria, p.polarity, tuple(p.weights),
            list(map(float.hex, p.mu)), list(map(float.hex, p.nu)))


def spaced(node, rng):
    """``node`` as JSON text with random JSON whitespace around every token of its lists."""
    def ws():
        return "".join(rng.choice(WHITESPACE) for _ in range(rng.choice([0, 0, 1, 2])))

    if type(node) is list:
        return "[" + ws() + (ws() + "," + ws()).join(spaced(x, rng) for x in node) + ws() + "]"
    return json.dumps(node)


def escaped(key, rng):
    """``key`` as a JSON string with one of its characters written as a ``\\u`` escape."""
    j = rng.randrange(len(key))
    return '"' + key[:j] + f"\\u{ord(key[j]):04x}" + key[j + 1 :] + '"'


def text_of(members, rng):
    """The JSON object of ``(key, value)`` members, in order, with random whitespace,
    and each key ``\\u``-escaped at random."""
    def ws():
        return rng.choice(["", " ", "\n", "\t\r\n  "])

    items = [ws() + (escaped(k, rng) if rng.random() < 0.3 else json.dumps(k)) + ws() + ":"
             + ws() + spaced(v, rng) + ws() for k, v in members]
    return ws() + "{" + ",".join(items) + "}" + ws()


#: Cells the whole-matrix pass does not take: valid ones with an integer component, then invalid ones.
ODD_CELLS = [[1, 0], [0, 1], [0, 0], [0.5, 0], [1, 0.0], [2, 0], [0.9, 0.9], [float("nan"), 0.0], [0.1],
             [0.1, 0.2, 0.3], [True, 0.0], ["x", 0.0], None, 0.5]


def odd_cells(experts, rng, cells):
    """Some cells of one random matrix of ``experts`` written to miss the whole-matrix pass, in
    place: ``"integers"`` writes each integral component as a JSON integer and one random cell as
    ``[1, 0]``; ``"one cell"`` puts one of :data:`ODD_CELLS` in one random place."""
    matrix = rng.choice(experts)
    row = rng.choice(matrix)
    if cells == "integers":
        for line in matrix:
            line[:] = [[int(x) if x.is_integer() else x for x in cell] for cell in line]
        row[rng.randrange(len(row))] = [1, 0]
    else:
        row[rng.randrange(len(row))] = rng.choice(ODD_CELLS)


@settings(max_examples=200, deadline=None)
@given(problems(), problems(), st.randoms(use_true_random=False), st.booleans(), st.booleans(),
       st.sampled_from([None, "integers", "one cell"]))
def test_reserialized_text_parses_as_its_decoded_document(problem, other, rng, shuffle, duplicate, cells):
    """Shuffled keys, JSON whitespace, ``\\u``-escaped keys, a repeated key and a matrix read cell
    by cell give what the decoded document gives; a repeated ``experts`` keeps the last, as
    ``json.loads`` does."""
    members = list(problem_to_dict(problem).items())
    if cells:
        odd_cells(dict(members)["experts"], rng, cells)
    if shuffle:
        rng.shuffle(members)
    if duplicate:
        key = rng.choice([k for k, _ in members])
        members.insert(rng.randrange(len(members) + 1), (key, problem_to_dict(other)[key]))
    text = text_of(members, rng)
    assert outcome(text) == outcome(json.loads(text))
    if duplicate and key == "experts":
        last = [v for k, v in members if k == "experts"][-1]
        assert outcome(text) == outcome({**json.loads(text), "experts": last})


def producers(monkeypatch):
    """The text of each program that writes problem documents: the bundled case study,
    ``dump_problem`` and the benchmark generator."""
    gen = perfbench_gen(monkeypatch)
    doc = gen.generate(gen.Params(3, 4, 5, boundary_frac=0.2), seed=1)
    return {
        "case study": case_study_path().read_text(encoding="utf-8"),
        "dump_problem": dump_problem(parse_problem(doc)),
        "perfbench/gen.py": json.dumps(doc),
    }


def test_every_producers_text_is_read_one_matrix_at_a_time(monkeypatch):
    for name, text in producers(monkeypatch).items():
        data = _read_problem(text)
        assert all(type(matrix) is _Columns for matrix in data["experts"]), name
        assert outcome(text) == outcome(json.loads(text)), name


@pytest.mark.parametrize("edit", [
    lambda t: t.replace('"alternatives"', '"alternatives": [], "alternatives"', 1),
    lambda t: '{"experts": [], ' + t.lstrip()[1:],
    lambda t: t + " x",
    lambda t: t.rstrip()[:-1] + ', }',
    lambda t: t.replace("]]\n    ]", "]],\n    ]", 1),
    lambda t: t.replace("    ]\n  ]", "    ],\n  ]", 1),
    lambda t: "," + t.lstrip()[1:],
    lambda t: t.replace('"experts": [', '"experts": ,', 1),
    lambda t: t.replace('"experts": [', '"experts": ], "x": [', 1),
    lambda t: t[: t.index('"experts"')] + '"experts": [\n  ]\n}\n',
    lambda t: "\ufeff" + t,
    lambda t: "[" + t + "]",
    lambda t: "{}",
], ids=["repeated key", "experts first", "extra data",
        "trailing comma in the object", "trailing comma in a matrix", "trailing comma in experts",
        "a comma for the brace", "a comma for the bracket", "experts a bracket", "no expert matrix", "byte order mark", "not an object", "empty object"])
def test_text_of_another_shape_is_decoded_whole(edit):
    """Each edit of the case study's text leaves a shape the reader does not take, so
    the text is decoded by ``json.loads``, errors and all."""
    text = edit(case_study_path().read_text(encoding="utf-8"))
    assert text != case_study_path().read_text(encoding="utf-8")
    try:
        decoded = json.loads(text)
    except ValueError as err:
        with pytest.raises(ValueError, match=re.escape(str(err))):
            _read_problem(text)
        assert outcome(text) == (f"invalid JSON: {err}", None)
    else:
        assert _read_problem(text) == decoded
        assert outcome(text) == outcome(decoded)


@pytest.mark.parametrize("edit", [
    lambda t: t.replace("0.8", "1", 1),
    lambda t: t.replace("0.8", "NaN", 1),
    lambda t: t.replace("[0.7, 0.1]", "[0.7, 0.1], [0.1, 0.1]", 1),
    lambda t: "[1, 0]".join(t.rsplit("[0.6, 0.4]", 1)),
], ids=["an integer cell", "a NaN cell", "a row too long", "a valid integer cell in the last matrix"])
def test_a_matrix_the_pass_rejects_is_held_as_decoded(edit):
    """The matrix an edit of the case study's text leaves to the cell-by-cell loop is held as
    decoded, every other matrix as its columns, and the text parses as its decoded document."""
    original = case_study_path().read_text(encoding="utf-8")
    text = edit(original)
    decoded = json.loads(text)["experts"]
    edited = [e for e, m in enumerate(json.loads(original)["experts"]) if json.dumps(m) != json.dumps(decoded[e])]
    assert len(edited) == 1
    held = _read_problem(text)["experts"]
    assert len(held) == len(decoded)
    for e, (matrix, want) in enumerate(zip(held, decoded)):
        if e in edited:
            assert type(matrix) is list and json.dumps(matrix) == json.dumps(want)
        else:
            cells = [cell for row in want for cell in row]
            assert type(matrix) is _Columns
            assert [list(map(float.hex, column)) for column in matrix] == [
                [float.hex(cell[c]) for cell in cells] for c in (0, 1)]
    assert outcome(text) == outcome(json.loads(text))


def traced_peak(text):
    """The traced peak of ``parse_problem(text)``, in bytes."""
    tracemalloc.start()
    try:
        parse_problem(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_panel_sized_parse_holds_about_one_matrix(monkeypatch):
    """The traced peak of parsing the benchmark's 10x500x20 document.  Decoding it whole
    peaks at about 17 MB, and reading one matrix at a time at about 3.5 MB: the columns
    (1.6 MB) and one matrix's lists.  Keeping each matrix until the next is decoded
    peaks at about 4.7 MB."""
    gen = perfbench_gen(monkeypatch)
    text = json.dumps(gen.generate(gen.Params(10, 500, 20), seed=0))
    assert traced_peak(text) < 4_200_000


def test_a_matrix_read_cell_by_cell_adds_about_one_matrix(monkeypatch):
    """The same document with one ``[1, 0]`` cell in its first matrix: that matrix is held as
    decoded (about 1.4 MB) while the rest are read, and nothing else changes.  Decoding the whole
    text instead peaks at about 18 MB."""
    gen = perfbench_gen(monkeypatch)
    doc = gen.generate(gen.Params(10, 500, 20), seed=0)
    doc["experts"][0][0][0] = [1, 0]
    assert traced_peak(json.dumps(doc)) < 6_000_000

