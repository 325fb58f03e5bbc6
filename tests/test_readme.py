"""The README documents the whole public API."""

import re
from pathlib import Path

import neglab

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_appears_in_a_readme_code_span():
    text = README.read_text(encoding="utf-8")
    # the fenced blocks go first, so that their fences do not pair with inline backticks
    fenced = re.compile(r"```.*?```", re.S)
    spans = fenced.findall(text) + re.findall(r"`([^`]+)`", fenced.sub("", text))
    names = {name for span in spans for name in re.findall(r"\w+", span)}
    assert [name for name in neglab.__all__ if name not in names] == []
