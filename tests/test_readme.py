"""README.md cites the library's names as `module.name`: each must exist."""

import importlib
import pkgutil
import re
from pathlib import Path

import literati

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {m.name for m in pkgutil.iter_modules(literati.__path__)}
FILE_SUFFIXES = {"json", "jsonl", "csv", "npy"}  # `detections.json` names a file


def _references() -> list[tuple[str, list[str]]]:
    """(module, attribute path) of each backticked dotted name in the README
    that starts with a ``literati`` module, with or without ``literati.``."""
    refs = []
    for dotted in re.findall(r"`([A-Za-z_][\w.]*\.\w+)`", README.read_text(encoding="utf-8")):
        module, *path = dotted.removeprefix("literati.").split(".")
        if module in MODULES and not (path and path[-1] in FILE_SUFFIXES):
            refs.append((module, path))
    return refs


def test_readme_cites_only_names_the_modules_hold():
    refs = _references()
    assert any(path for _, path in refs)  # the README does cite attributes
    missing = []
    for module, path in refs:
        obj = importlib.import_module(f"literati.{module}")
        for i, name in enumerate(path):
            if not hasattr(obj, name):
                missing.append(".".join([module, *path[:i + 1]]))
                break
            obj = getattr(obj, name)
    assert missing == []
