"""Every walkthrough under ``demos/`` runs to completion against the current API,
and the package root exports exactly the names README and the demos use."""

import ast
import inspect
import re
import runpy
import tempfile
from pathlib import Path

import pytest

import regio_forecast

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS, "no demo scripts found"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(demo), run_name="__main__")
    assert not list(tmp_path.glob("regio_demo_*")), "the demo left its work directory behind"


def _root_imports(source: str) -> set[str]:
    """Names a script imports with ``from regio_forecast import ...``."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "regio_forecast"
            for alias in node.names}


def test_package_root_exports_exactly_the_documented_names():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert blocks, "README has no python example"
    documented = {"ConfigError", "DataError"}
    for source in blocks + [demo.read_text(encoding="utf-8") for demo in DEMOS]:
        documented |= _root_imports(source)
    exported = {name for name, value in vars(regio_forecast).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == documented


def test_readme_python_examples_run_in_order():
    """The second block reads the first block's ``datasets`` and ``case``."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    namespace = {}
    for source in re.findall(r"```python\n(.*?)```", readme, flags=re.S):
        exec(compile(source, "README.md", "exec"), namespace)
    assert namespace["counts"].shape == (54, 4) and (namespace["counts"] >= 0).all()
    assert namespace["forecast"].kits.shape == (54,)
    assert len(namespace["ranked"].selected_features) == 9
