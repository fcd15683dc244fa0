"""The README's library example runs as written and prints what its
comments say."""

import contextlib
import io
import math
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _library_block():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_what_its_comments_claim():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_block(), "README.md", "exec"), {})
    lines = [line.split() for line in out.getvalue().splitlines()]
    assert len(lines) == 6
    shape, residual = lines[0]
    assert shape == "(50,)" and float(residual) < 1e-13
    assert lines[1] == ["(50,)"]
    rho, lam, mu = map(float, lines[2])
    assert abs(rho - 3.0) <= 1e-12
    assert abs(lam + math.sqrt(3.0)) <= 1e-12
    assert abs(mu) <= 1e-12
    assert lines[3] == ["(50,)"]
    assert lines[4][0] == "closed" and abs(int(lines[4][1]) - 629) <= 6
    assert lines[5] == ["(100,)"]
