"""The public API is what the CLI, the benchmark harness and the README use."""

from __future__ import annotations

import ast
import glob
import os
import re
import subprocess
import sys

from klrblocks import FieldParams, RepType, TClass, classify

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")


def read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def package_trees():
    """(module name, AST) for each module of the package."""
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "klrblocks", "*.py"))):
        yield os.path.basename(path)[:-3], ast.parse(read(path))


def units(module: str, tree: ast.Module):
    """(owner, node) pairs covering the module: each top-level function, each
    method, the rest of each class, and the module-level statements."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            owner = f"{module}.{stmt.name}"
            for sub in stmt.body:
                yield (f"{owner}.{sub.name}" if isinstance(sub, ast.FunctionDef) else owner), sub
            for sub in stmt.bases + stmt.decorator_list:
                yield owner, sub
        elif isinstance(stmt, ast.FunctionDef):
            yield f"{module}.{stmt.name}", stmt
        else:
            yield f"{module}.<module>", stmt


def test_every_public_name_has_a_caller():
    """Each public top-level function and class of the package, and each
    public method of those classes, is read somewhere in the package other
    than its own definition and __init__.py (its own module counts), or is
    named by the benchmark harness or the README."""
    defined: dict[str, tuple[str, bool]] = {}  # qualified name -> (name, is a method)
    readers: dict[str, set[str]] = {}  # name -> owners reading it as a name or attribute
    attr_readers: dict[str, set[str]] = {}  # name -> owners reading it as an attribute
    for module, tree in package_trees():
        if module == "__init__":
            continue
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                defined[f"{module}.{stmt.name}"] = (stmt.name, False)
                for sub in stmt.body if isinstance(stmt, ast.ClassDef) else ():
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        defined[f"{module}.{stmt.name}.{sub.name}"] = (sub.name, True)
        for owner, node in units(module, tree):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    readers.setdefault(sub.id, set()).add(owner)
                elif isinstance(sub, ast.Attribute):
                    readers.setdefault(sub.attr, set()).add(owner)
                    attr_readers.setdefault(sub.attr, set()).add(owner)
    assert {"tableaux.graded_dim", "brauer.BrauerGraph.build", "cartan.RootVector.height"} <= set(defined)
    outside = "\n".join(
        read(path) for path in [*sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py"))), README]
    )
    dead = []
    for qualified, (name, is_method) in defined.items():
        users = (attr_readers if is_method else readers).get(name, set())
        users = {u for u in users if u != qualified and not u.startswith(qualified + ".")}
        pattern = rf"\.{name}\b" if is_method else rf"\b{name}\b"
        if not users and not re.search(pattern, outside):
            dead.append(qualified)
    assert dead == []



def unread_private_helpers(module: str, tree: ast.Module) -> list[str]:
    """Each module-level `_name` function or class that nothing in its module
    reads outside its own definition."""
    readers: dict[str, set[str]] = {}  # name -> owners reading it
    for owner, node in units(module, tree):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                readers.setdefault(sub.id, set()).add(owner)
            elif isinstance(sub, ast.Attribute):
                readers.setdefault(sub.attr, set()).add(owner)
    dead = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name.startswith("_"):
            qualified = f"{module}.{stmt.name}"
            users = readers.get(stmt.name, set())
            if not {u for u in users if u != qualified and not u.startswith(qualified + ".")}:
                dead.append(qualified)
    return dead


def test_every_private_helper_has_a_reader():
    """A helper that a rewrite leaves behind fails here, not in review."""
    sample = ast.parse(
        "def _kept(): pass\n"
        "def _orphan(): return _orphan()\n"
        "class _Unused:\n    def m(self): return _Unused\n"
        "def public(): return _kept()\n"
    )
    assert unread_private_helpers("m", sample) == ["m._orphan", "m._Unused"]
    dead = [name for module, tree in package_trees() for name in unread_private_helpers(module, tree)]
    assert dead == []

def test_no_module_imports_a_private_name_of_another():
    """A name with a leading underscore stays inside its own module."""
    leaks = [
        f"{module} imports {alias.name} from {node.module}"
        for module, tree in package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "klrblocks")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert leaks == []


def test_no_assert_statements():
    """`python -O` drops assert statements, so no check of the package is one."""
    asserts = [
        f"{module}:{node.lineno}"
        for module, tree in package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def test_no_module_imports_dataclasses_typing_or_json_at_load():
    """dataclasses (with inspect), typing and json cost start-up time; json
    may only be imported inside the functions that read or write JSON."""
    offences = []
    for module, tree in package_trees():
        top_level = set(map(id, tree.body))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                root = name.split(".")[0]
                if root in ("dataclasses", "typing") or (root == "json" and id(node) in top_level):
                    offences.append(f"{module}:{node.lineno} imports {name}")
    assert offences == []


def test_cli_import_loads_no_heavy_module():
    """In a fresh isolated interpreter, `import klrblocks.cli` loads none of
    argparse, dataclasses, inspect or json (those that start-up already
    loaded do not count)."""
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "before = set(sys.modules)\n"
        "import klrblocks.cli\n"
        "print(*sorted(set(sys.argv[2:]) & (set(sys.modules) - before)))\n"
    )
    heavy = ["argparse", "dataclasses", "inspect", "json"]
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code, os.path.join(ROOT, "src"), *heavy],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.split() == []


def test_readme_library_block_runs():
    text = read(README)
    section = text[text.index("## Library use"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(block, README, "exec"), namespace)
    # the answer the block's comment gives for its classify line
    params = FieldParams(char_p=0, t_class=TClass.OTHER)
    assert classify(namespace["base"], namespace["delta"], params) is RepType.TAME
