"""The public surface: what ``thetaflow`` exports, what the demos and the
README's library example import from it, that the example runs, the
README's CLI examples, the distribution's name and version, and the names
and calls the benchmark's tracer relies on."""

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
from thetaflow.app.presets import preset_symmetric_lens

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


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    example = readme.split("## Library example", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"^```python\n(.*?)^```", example, re.M | re.S).group(1)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["traj"].times[-1] == pytest.approx(0.5)


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


def test_distribution_is_named_thetaflow_at_the_package_version():
    # ``pip show thetaflow`` and importlib.metadata find it under this name
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["name"] == "thetaflow"
    assert project["version"] == thetaflow.__version__


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
    for heavy in ("scipy.linalg", "scipy.optimize", "scipy.ndimage",
                  "scipy.sparse", "scipy.special", "scipy.spatial"):
        assert not [name for name in loaded
                    if name == heavy or name.startswith(heavy + ".")], heavy


def _load_tracing():
    """``benchmarks/tracing.py``, loaded from its path as it stands."""
    path = ROOT / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_finds_what_it_wraps():
    # the benchmark resolves its targets by name: a renamed or moved
    # function, or a report without the field its workloads read, breaks
    # every traced run
    tracing = _load_tracing()
    for name, (modname, attr) in tracing.TARGETS.items():
        assert callable(getattr(sys.modules[modname], attr, None)), name
    for name, classes in tracing.CLASS_TARGETS.items():
        for modname, clsname in classes:
            cls = getattr(sys.modules[modname], clsname)
            assert "__post_init__" in cls.__dict__, (name, clsname)

    tracer = tracing.Tracer()
    lens = preset_symmetric_lens(nodes_per_unit=20)
    tracer.install()
    try:
        # through the package namespace, which the tracer rebinds
        traj = thetaflow.run_flow(lens, thetaflow.FlowConfig(tau=1e-2,
                                                             T=3e-2))
    finally:
        tracer.uninstall()
    (root,) = [s for s in tracer.spans if s[1] == "scheme.run_flow"]
    # the report calls the public step_gradient, as scheme imports it
    grads = [s for s in tracer.spans if s[1] == "energy.step_gradient"]
    assert len(grads) == len(traj.reports) == 3
    assert all(s[4] == root[0] for s in grads)
    assert tracer.aggregates["scheme.solveh_banded"][0] >= 1
    assert all(isinstance(r.inner_converged, bool) for r in traj.reports)
