"""The package namespace: what README, the demos and the benchmark reach through it.

Also runs README's quickstart and every demo."""

import ast
import importlib
import importlib.util
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import curvshell

ROOT = Path(__file__).resolve().parents[1]


def _readme_blocks():
    return re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


def _sources():
    """(label, source) of every script that imports curvshell outside src/ and tests/."""
    for i, block in enumerate(_readme_blocks()):
        yield f"README.md python block {i}", block
    for path in sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        yield str(path.relative_to(ROOT)), path.read_text()
    # the script that test_runtime_deps runs in a fresh interpreter
    tree = ast.parse((ROOT / "tests" / "test_runtime_deps.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SCRIPT"]:
            yield "tests/test_runtime_deps.py SCRIPT", node.value.value


def _package_names(source):
    """Names read through the package: `from curvshell import X`, and `cs.X` for its alias cs."""
    tree = ast.parse(source)
    aliases, names = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "curvshell" and not node.level:
            names += [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names if a.name == "curvshell"}
    names += [node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases]
    return names


def _is_submodule(name):
    return importlib.util.find_spec(f"curvshell.{name}") is not None


def test_scripts_use_only_exported_names():
    exported = set(curvshell.__all__)
    missing = [(label, name) for label, source in _sources()
               for name in _package_names(source)
               if name not in exported and not _is_submodule(name)]
    assert not missing


def test_every_exported_name_resolves():
    assert len(set(curvshell.__all__)) == len(curvshell.__all__)
    for name in curvshell.__all__:
        assert getattr(curvshell, name) is not None, name


def _bench_module(name):
    """bench/<name>.py, loaded by path: bench/ is not a package."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    # bench/spans.py wraps these by (module, attribute) for the traced run;
    # a refactor that moves one would break only that run
    spans = _bench_module("spans")
    for name, module, attr, _ in spans.TRACED:
        home = importlib.import_module(f"curvshell.{module}")
        if "." in attr:  # a class method, wrapped on its class
            cls_name, meth = attr.split(".")
            assert isinstance(vars(getattr(home, cls_name)).get(meth), classmethod), name
        else:
            assert callable(getattr(home, attr, None)), name


def test_bench_workloads_pass_their_checks(monkeypatch, tmp_path):
    # each workload's fewest ops, through the calls and the correctness checks
    # of bench/run.py, so that a change of call shape or of a checked value
    # fails here and not only in the benchmark
    import mpmath

    monkeypatch.setattr(mpmath.mp, "dps", mpmath.mp.dps)  # bench/checks.py sets 50 digits
    workloads, checks, spans = (_bench_module(n) for n in ("workloads", "checks", "spans"))
    tracer = spans.NullTracer()
    for name, cls in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        wl = cls(1, str(workdir))
        outs = []
        for i in range(wl.min_ops):
            out = wl.op(i, tracer)
            assert not wl.failed(out), (name, i)
            outs.append(out if wl.keeps(i) else None)
        wl.check(outs, checks)


def test_readme_quickstart_runs():
    (block,) = _readme_blocks()
    exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo, tmp_path):
    # a copy writes its output/ next to itself, under tmp_path
    script = shutil.copy(ROOT / "demos" / demo, tmp_path)
    src = str(Path(curvshell.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, script], capture_output=True, text=True,
                          cwd=tmp_path, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
