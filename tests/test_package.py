"""What the package ships and what its benchmark relies on.

The package holds only what some stage runs: a top-level name, or a
method, cached view or field of a class, that no module of
`src/graphcorpus/` uses is test-only code and belongs under `tests/`. So
is a parameter default that every caller in `src/` overrides (the stage's
settings live in `PipelineConfig`, so a copy in a function serves only
tests) and an attribute stored on `self` that nothing in `src/` reads.
The benchmark under `perfbench/` imports names from the package and reads
fields of `PipelineConfig()`; a rename that breaks it must fail here, not
only when the benchmark runs.
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


def _class_members(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, member) for each method, cached view and annotated field of
    a class. Dunder methods run without being named, and a plain class
    constant (such as the benchmark's `PipelineConfig.rejection_attempts`)
    is no member here."""
    members = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = item.name
            elif (isinstance(item, ast.AnnAssign)
                  and isinstance(item.target, ast.Name)):
                name = item.target.id
            else:
                continue
            if not (name.startswith("__") and name.endswith("__")):
                members.append((node.name, name))
    return members


def test_every_class_member_in_src_is_used_in_src():
    trees = _trees(SRC)
    used = set().union(*map(_used_names, trees.values()))
    members = {file: _class_members(tree) for file, tree in trees.items()}
    assert ("Graph", "neighbours") in members["graphs.py"]
    unused = [f"{file[:-3]}.{cls}.{name}" for file, found in members.items()
              for cls, name in found if name not in used]
    assert unused == []


def _defaulted(fn: ast.FunctionDef, method: bool) -> tuple[list[str],
                                                           list[str]]:
    """The parameters a call can pass by position (past self or cls for a
    method), and the parameters with a default."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args][method:]
    defaulted = positional[len(positional) - len(args.defaults):]
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]
    return positional, defaulted


def _bare_name_callees(trees) -> dict[str, list[tuple]]:
    """name -> (file, function, is_method) of what a call by that bare name
    runs: a function, or the __init__ or __new__ of a class. Methods called
    on an object are left out, since `rng.sample` is no call of
    `sampler.sample`."""
    callees: dict[str, list[tuple]] = {}
    for file, tree in trees.items():
        methods = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        methods.add(item)
                        if item.name in ("__init__", "__new__"):
                            callees.setdefault(node.name, []).append(
                                (file, item, True))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node not in methods:
                callees.setdefault(node.name, []).append((file, node, False))
    return callees


def test_every_parameter_default_is_used_by_some_call_in_src():
    trees = _trees(SRC)
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                calls.setdefault(node.func.id, []).append(node)
    unused = []
    for name, callees in _bare_name_callees(trees).items():
        for file, fn, method in callees:
            positional, defaulted = _defaulted(fn, method)
            if not defaulted or name not in calls:
                continue            # no default, or src never calls it
            left_out = set()
            for call in calls[name]:
                if (any(isinstance(a, ast.Starred) for a in call.args)
                        or any(k.arg is None for k in call.keywords)):
                    continue        # *args or **kwargs pass every parameter
                passed = {k.arg for k in call.keywords}
                left_out |= set(defaulted) - passed - set(
                    positional[:len(call.args)])
            unused += [f"{file[:-3]}.{name}({p})" for p in defaulted
                       if p not in left_out]
    assert unused == []


def test_every_attribute_stored_on_self_in_src_is_read_in_src():
    stored, read = set(), set()
    for tree in _trees(SRC).values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            if isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node.value, ast.Name) and node.value.id == "self":
                stored.add(node.attr)
    assert sorted(stored - read) == []


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
