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


# the operator of each dunder arithmetic method, by the name between the
# underscores; a binary operator also calls the reflected and in-place forms
BINARY = {
    ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.MatMult: "matmul",
    ast.Div: "truediv", ast.FloorDiv: "floordiv", ast.Mod: "mod", ast.Pow: "pow",
    ast.LShift: "lshift", ast.RShift: "rshift", ast.BitAnd: "and", ast.BitOr: "or",
    ast.BitXor: "xor",
}
UNARY = {ast.USub: "neg", ast.UAdd: "pos", ast.Invert: "invert"}
ARITHMETIC = {
    *(f"__{p}{op}__" for op in BINARY.values() for p in ("", "r", "i")),
    *(f"__{op}__" for op in UNARY.values()),
}


def operator_names(node: ast.AST) -> list[str]:
    """The dunder methods an operator node calls, or []."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        op = BINARY[type(node.op)]
        return [f"__{op}__", f"__r{op}__", f"__i{op}__"]
    if isinstance(node, ast.UnaryOp) and type(node.op) in UNARY:
        return [f"__{UNARY[type(node.op)]}__"]
    return []


def public_names(trees) -> dict[str, str]:
    """Qualified name -> name, for each public top-level function and class
    of `trees` other than __init__.py, each public method of those classes
    and each of their dunder arithmetic methods."""
    names = {}
    for module, tree in trees:
        for stmt in tree.body if module != "__init__" else ():
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                names[f"{module}.{stmt.name}"] = stmt.name
                for sub in stmt.body if isinstance(stmt, ast.ClassDef) else ():
                    if isinstance(sub, ast.FunctionDef) and (
                        not sub.name.startswith("_") or sub.name in ARITHMETIC
                    ):
                        names[f"{module}.{stmt.name}.{sub.name}"] = sub.name
    return names


def dead_public_names(trees, outside: str) -> list[str]:
    """Each of the `public_names` that nothing in `trees` reads other than
    its own definition and __init__.py (its own module counts), and that
    `outside` does not name.  A method is read as an attribute; a dunder
    arithmetic method also by its operator, in code that names its class or
    belongs to it."""
    readers: dict[str, set[str]] = {}  # name -> owners reading it as a name or attribute
    attr_readers: dict[str, set[str]] = {}  # name -> owners reading it as an attribute
    for module, tree in trees:
        if module == "__init__":
            continue
        for owner, node in units(module, tree):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    readers.setdefault(sub.id, set()).add(owner)
                elif isinstance(sub, ast.Attribute):
                    readers.setdefault(sub.attr, set()).add(owner)
                    attr_readers.setdefault(sub.attr, set()).add(owner)
                for name in operator_names(sub):
                    readers.setdefault(name, set()).add(owner)
    dead = []
    for qualified, name in public_names(trees).items():
        is_method = qualified.count(".") == 2
        users = (attr_readers if is_method else readers).get(name, set())
        if name in ARITHMETIC:
            cls = qualified.rsplit(".", 1)[0]
            users = users | {
                u for u in readers.get(name, set())
                if u in readers.get(cls.split(".")[1], ()) or u.startswith(cls + ".")
            }
        users = {u for u in users if u != qualified and not u.startswith(qualified + ".")}
        pattern = rf"\.{name}\b" if is_method else rf"\b{name}\b"
        if not users and not re.search(pattern, outside):
            dead.append(qualified)
    return dead


def test_every_public_name_has_a_caller():
    """Each public name of the package, and each dunder arithmetic method of
    its classes, is read somewhere in the package, or is named by the
    benchmark harness or the README."""
    sample = ast.parse(
        "class W:\n"
        "    def __add__(self, o): return W()\n"
        "    def __sub__(self, o): return self + (-o)\n"
        "    def __neg__(self): return W()\n"
        "    def __mul__(self, o): return W()\n"
        "def total(n): return n + 1 - n * 2\n"
        "def public(): return W() - W()\n"
    )
    # + and unary - read __add__ and __neg__ inside W, binary - reads
    # __sub__ in code that names W; the * in total does not read __mul__,
    # since total never names W
    assert dead_public_names([("m", sample)], "") == ["m.W.__mul__", "m.total", "m.public"]
    assert dead_public_names([("m", sample)], "w.__mul__(v) total() public()") == []
    trees = list(package_trees())
    assert {"tableaux.graded_dim", "brauer.BrauerGraph.build", "cartan.RootVector.height"} <= set(
        public_names(trees)
    )
    outside = "\n".join(
        read(path) for path in [*sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py"))), README]
    )
    assert dead_public_names(trees, outside) == []


def test_records_are_built_unchecked_only_by_record_trusted():
    """object.__new__ and object.__setattr__ skip a record's __init__ and its
    refusing __setattr__; only Record._trusted may use them."""
    users = sorted(
        f"{owner} reads object.{sub.attr}"
        for module, tree in package_trees()
        for owner, node in units(module, tree)
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute)
        and sub.attr in ("__new__", "__setattr__")
        and isinstance(sub.value, ast.Name)
        and sub.value.id == "object"
    )
    assert users == ["cartan.Record._trusted reads object.__new__"]



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
    loaded do not count).  The option table replaces argparse and the
    records are __slots__ classes; json is imported only where brauer and
    decomp write JSON and where --graph reads it.  argparse and
    gettext cost about 3 ms of every start-up, dataclasses and inspect
    about 12 ms."""
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


def test_class_answers_import_no_json():
    """The class commands, classify and gdim frame their JSON by hand: in a
    fresh isolated interpreter, their JSON answers, gdim's total and pair
    answers among them, load no json."""
    code = (
        "import io, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from klrblocks.cli import run\n"
        "block = ['--ell', '1', '--weight', '2,1', '--beta', '1,1', '--format', 'json']\n"
        "for name, argv in (\n"
        "    *((cmd, [cmd, '--ell', '6', '--weight', '4,0,0,2,0,0,1', '--format', 'json'])\n"
        "      for cmd in ('maxweights', 'quiver', 'tquiver')),\n"
        "    ('gdim-total', ['gdim', *block]),\n"
        "    ('gdim-pair', ['gdim', *block, '--nu', '0,1', '--nup', '1,0']),\n"
        "    ('classify', ['classify', '--ell', '2', '--weight', '3,0,0', '--beta', '1,1,1',\n"
        "                  '--t', 'SignEll', '--format', 'json']),\n"
        "):\n"
        "    assert run(argv, io.StringIO(), sys.stderr) == 0\n"
        "    print(name, 'json' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code, os.path.join(ROOT, "src")],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.split("\n") == [
        "maxweights False", "quiver False", "tquiver False",
        "gdim-total False", "gdim-pair False", "classify False", "",
    ]


def test_readme_library_block_runs():
    text = read(README)
    section = text[text.index("## Library use"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(block, README, "exec"), namespace)
    # the answer the block's comment gives for its classify line
    params = FieldParams(char_p=0, t_class=TClass.OTHER)
    assert classify(namespace["base"], namespace["delta"], params) is RepType.TAME
