"""The package root exports only what the README documents."""

import re
import types
from pathlib import Path

import spherical_models

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_public_name_is_documented_in_the_readme():
    prose = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    quoted = set(re.findall(r"`([^`]+)`", prose))
    public = {
        name
        for name, value in vars(spherical_models).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - quoted) == []
