"""README's fenced ``python`` blocks run, and each ``print(...)  # expected`` line prints its comment."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)

#: A top-level ``print`` call and the comment after it, if any.
PRINT = re.compile(r"print\(.*\)(?:\s+# (.*))?")


def test_the_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{b}" for b in range(len(BLOCKS))])
def test_a_readme_block_prints_what_its_comments_say(block):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    printed = out.getvalue().splitlines()
    expected = [m[1] for m in map(PRINT.fullmatch, block.splitlines()) if m]
    assert len(printed) == len(expected)  # one line per print
    for got, comment in zip(printed, expected):
        if comment is not None:  # "..." stands for any text
            assert re.fullmatch(".*".join(map(re.escape, comment.rstrip().split("..."))), got), comment
