"""What the package ships and what its benchmark relies on.

The package holds only what some stage runs: a top-level name that no
module of `src/graphcorpus/` uses is test-only code and belongs under
`tests/`. The benchmark under `perfbench/` imports names from the package
and reads fields of `PipelineConfig()`; a rename that breaks it must fail
here, not only when the benchmark runs.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import graphcorpus
from graphcorpus.config import PipelineConfig

SRC = Path(graphcorpus.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _trees(folder: Path) -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(folder.glob("*.py"))}


def _top_level_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif (isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name)):
            names.append(node.target.id)
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Names read as a Name, as an attribute, or imported by name."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_top_level_name_in_src_is_used_in_src():
    trees = _trees(SRC)
    used = set().union(*map(_used_names, trees.values()))
    unused = [f"{name[:-3]}.{n}" for name, tree in trees.items()
              for n in _top_level_names(tree) if n not in used]
    assert unused == []


def _package_imports() -> list[tuple[str, str, str]]:
    """(file, module, name) of every `from graphcorpus[.mod] import name`."""
    found = []
    for file, tree in _trees(PERFBENCH).items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "graphcorpus"):
                found += [(file, node.module, alias.name)
                          for alias in node.names]
    return found


def test_every_name_the_benchmark_imports_from_the_package_exists():
    imports = _package_imports()
    assert ("run.py", "graphcorpus", "cli") in imports
    missing = []
    for file, module, name in imports:
        owner = importlib.import_module(module)
        if not (hasattr(owner, name)
                or importlib.util.find_spec(f"{module}.{name}") is not None):
            missing.append(f"{file}: from {module} import {name}")
    assert missing == []


def _config_fields_read(tree: ast.Module) -> set[str]:
    """Attributes read of `PipelineConfig()`, directly or through a name
    bound to it."""
    def is_default(node):
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "PipelineConfig")
    bound = {t.id for node in ast.walk(tree)
             if isinstance(node, ast.Assign) and is_default(node.value)
             for t in node.targets if isinstance(t, ast.Name)}
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and (is_default(node.value)
                 or isinstance(node.value, ast.Name)
                 and node.value.id in bound)}


def test_every_config_field_the_benchmark_reads_exists():
    fields = set().union(*map(_config_fields_read, _trees(PERFBENCH).values()))
    assert {"cap", "shots", "tasks", "rejection_attempts"} <= fields
    cfg = PipelineConfig()
    assert sorted(f for f in fields if not hasattr(cfg, f)) == []
