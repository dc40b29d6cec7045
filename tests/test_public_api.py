"""Every public name and every public keyword of the package has a
caller outside the tests, and every top-level name has one home.

A top-level public function or class of `src/risopt/*.py`, and every name
in `risopt.__all__`, must be read somewhere in the package (other than
`__init__.py`, which only re-exports), in a demo or in the benchmark,
beyond its own definition.  Each parameter with a default of a top-level
public function must be passed, by keyword or by position, in some call
there: a knob that only its own unit test sets is not kept.  Reference
code that only the tests run belongs in `tests/oracles.py`.  A module
that needs a name another module defines imports it rather than defining
it again.
"""

import ast
import math
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


def package_modules() -> dict:
    return {path: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def outside_readers(modules: dict) -> list:
    """The trees that count as callers outside the tests: the package but
    `__init__.py`, the demos and the benchmark but its tests."""
    readers = [tree for path, tree in modules.items()
               if path.name != "__init__.py"]
    return readers + [ast.parse(path.read_text(), str(path))
                      for folder in ("demos", "perfbench")
                      for path in sorted((ROOT / folder).glob("*.py"))
                      if not path.name.startswith("test_")]


def test_every_public_name_is_read_outside_the_tests():
    modules = package_modules()
    definitions = {}
    for tree in modules.values():
        definitions.update(public_definitions(tree))
    wanted = set(definitions) | set(risopt.__all__)
    readers = outside_readers(modules)
    read = set().union(*(read_names(tree, definitions) for tree in readers))
    unread = sorted(wanted - read)
    print("public names with no reader outside the tests:", unread)
    assert not unread, unread


# the CLI's entry point takes argv from the tests; a console run passes none
EXEMPT = {("main", "argv")}


def defaulted(function: ast.FunctionDef) -> list:
    """(name, position) of each parameter of function that has a default;
    the position is None for a keyword-only one."""
    args = function.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return ([(arg.arg, i) for i, arg in enumerate(positional) if i >= first]
            + [(arg.arg, None) for arg, default
               in zip(args.kwonlyargs, args.kw_defaults) if default is not None])


def passed(trees: list, name: str) -> tuple:
    """The keywords that the calls of name in trees pass, and the most
    positions one of them passes (all, for a call with a starred one)."""
    keywords, positions = set(), 0
    for node in (node for tree in trees for node in ast.walk(tree)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (func.id if isinstance(func, ast.Name)
                else getattr(func, "attr", None)) != name:
            continue
        keywords |= {kw.arg for kw in node.keywords}
        starred = any(isinstance(arg, ast.Starred) for arg in node.args)
        positions = max(positions, math.inf if starred else len(node.args))
    return keywords, positions


def test_every_public_keyword_has_a_caller_outside_the_tests():
    modules = package_modules()
    readers = outside_readers(modules)
    unset = []
    for path, tree in modules.items():
        for node in tree.body:
            if (not isinstance(node, ast.FunctionDef)
                    or node.name.startswith("_")):
                continue
            keywords, positions = passed(readers, node.name)
            for arg, position in defaulted(node):
                if ((node.name, arg) in EXEMPT or arg in keywords
                        or (position is not None and position < positions)):
                    continue
                unset.append(f"{path.name}:{node.name}({arg}=)")
    print("public keywords no caller outside the tests passes:", unset)
    assert not unset, unset


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


def refusal_text(node: ast.Raise) -> str | None:
    """The message of `raise X("...")` or `raise X(f"...")`, an f-string
    as its source, so the same template counts once; None for any other
    raise."""
    call = node.exc
    if not (isinstance(call, ast.Call) and call.args):
        return None
    message = call.args[0]
    if isinstance(message, ast.Constant) and isinstance(message.value, str):
        return message.value
    return ast.unparse(message) if isinstance(message, ast.JoinedStr) else None


def test_each_refusal_text_is_raised_from_one_place():
    # a rule that several functions apply lives in one helper they call,
    # so that a change to it is made in one place
    sites = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            text = (refusal_text(node) if isinstance(node, ast.Raise)
                    else None)
            if text is not None:
                sites.setdefault(text, []).append(f"{path.name}:{node.lineno}")
    twice = {text: where for text, where in sites.items() if len(where) > 1}
    assert not twice, twice
