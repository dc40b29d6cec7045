"""Every public name of the package has a caller outside the tests, and
every top-level name has one home.

A top-level public function or class of `src/risopt/*.py`, and every name
in `risopt.__all__`, must be read somewhere in the package (other than
`__init__.py`, which only re-exports), in a demo or in the benchmark,
beyond its own definition.  Reference code that only the tests run
belongs in `tests/oracles.py`.  A module that needs a name another
module defines imports it rather than defining it again.
"""

import ast
from pathlib import Path

import risopt

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "risopt"


def public_definitions(tree: ast.Module) -> dict:
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def read_names(tree: ast.Module, definitions: dict) -> set:
    """Names read as a variable, an attribute or an import in tree; a
    name read only inside its own definition is not counted."""
    names = set()
    for top in tree.body:
        own = {top.name} if top in definitions.values() else set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read = {node.id}
            elif isinstance(node, ast.Attribute):
                read = {node.attr}
            elif isinstance(node, ast.ImportFrom):
                read = {alias.name for alias in node.names}
            else:
                continue
            names |= read - own
    return names


def test_every_public_name_is_read_outside_the_tests():
    modules = {path: ast.parse(path.read_text(), str(path))
               for path in sorted(PACKAGE.glob("*.py"))}
    definitions = {}
    for tree in modules.values():
        definitions.update(public_definitions(tree))
    wanted = set(definitions) | set(risopt.__all__)
    readers = [tree for path, tree in modules.items()
               if path.name != "__init__.py"]
    readers += [ast.parse(path.read_text(), str(path))
                for folder in ("demos", "perfbench")
                for path in sorted((ROOT / folder).glob("*.py"))
                if not path.name.startswith("test_")]
    read = set().union(*(read_names(tree, definitions) for tree in readers))
    unread = sorted(wanted - read)
    print("public names with no reader outside the tests:", unread)
    assert not unread, unread


def top_level_definitions(tree: ast.Module) -> set:
    """Names a module binds at top level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets
                         if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                             ast.Name):
            names.add(node.target.id)
    return names


def test_no_top_level_name_is_defined_twice():
    homes = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for name in top_level_definitions(tree):
            homes.setdefault(name, []).append(path.name)
    twice = {name: files for name, files in homes.items() if len(files) > 1}
    assert not twice, twice
