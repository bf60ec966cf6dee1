"""The README's "Library sketch" stays in step with the package: it names
every export, and every call it cites exists."""

import importlib
import pkgutil
import re
from pathlib import Path

import enaqt

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_sketch() -> str:
    text = README.read_text()
    start = text.index("## Library sketch")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def _package_names() -> set:
    """Every name bound in a module of the package, and every attribute of
    a class that a module defines."""
    names = set()
    for info in pkgutil.iter_modules(enaqt.__path__):
        module = importlib.import_module(f"enaqt.{info.name}")
        for name, value in vars(module).items():
            names.add(name)
            if isinstance(value, type) and value.__module__ == module.__name__:
                names.update(vars(value))
    return names


def test_library_sketch_names_every_export():
    cited = {word for span in re.findall(r"`([^`]*)`", _library_sketch())
             for word in re.findall(r"[A-Za-z_]\w*", span)}
    assert [name for name in enaqt.__all__ if name not in cited] == []


def test_library_sketch_cites_only_calls_that_exist():
    # `name(...)` or `module.name(...)`: the last name must exist
    calls = set(re.findall(r"`(?:[A-Za-z_]\w*\.)*([A-Za-z_]\w*)\(", _library_sketch()))
    assert "effective_rate_runs" in calls  # the pattern still finds the sketch's calls
    assert sorted(calls - _package_names()) == []
