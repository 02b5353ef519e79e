"""The public surface: what ``thetaflow`` exports, what the demos and the
README's library example import from it, and the README's CLI examples."""

import ast
import importlib.util
import os
import pathlib
import re
import subprocess
import sys

import pytest

import thetaflow
from thetaflow.app.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    assert len(set(thetaflow.__all__)) == len(thetaflow.__all__)
    for name in thetaflow.__all__:
        assert hasattr(thetaflow, name), name


@pytest.mark.parametrize("path", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda path: path.name)
def test_demo_imports_without_running(path):
    # a name other than "__main__" keeps the demo's main() from running
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_readme_library_example_imports_only_exported_names():
    readme = (ROOT / "README.md").read_text()
    example = readme.split("## Library example", 1)[1].split("\n## ", 1)[0]
    line = re.search(r"^from thetaflow import (.+)$", example, re.M).group(1)
    names = [name.strip() for name in line.split(",")]
    assert names
    assert set(names) <= set(thetaflow.__all__)


def test_readme_cli_examples_parse():
    # parse only, run no flow: the README's commands must match the parser
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("thetaflow ")]
    assert lines
    parser = build_parser()
    for line in lines:
        parser.parse_args(line.split()[1:])


def test_cli_import_loads_no_heavy_scipy_subpackage():
    # in a fresh process: the test oracles import scipy.optimize into this one
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import thetaflow.app.cli, sys; print(sorted(sys.modules))"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        check=True).stdout
    loaded = ast.literal_eval(out)
    assert "thetaflow.app.cli" in loaded
    for heavy in ("scipy.optimize", "scipy.ndimage", "scipy.sparse",
                  "scipy.special", "scipy.spatial"):
        assert not [name for name in loaded
                    if name == heavy or name.startswith(heavy + ".")], heavy
