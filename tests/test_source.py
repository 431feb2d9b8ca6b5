"""Source-level conventions that the test suite enforces."""

import ast
from pathlib import Path

import otcms

MAX_LINE = 129

ROOT = Path(otcms.__file__).parent

#: Module-level names that no ``src`` code uses and ``otcms.__all__`` does
#: not export, kept because tests and the frozen ``perfbench/`` harness import them.
UNREFERENCED_KEPT = {"default_context", "default_profile", "scenario_to_dict"}


def test_no_source_line_over_limit():
    long_lines = [
        f"{path.relative_to(ROOT)}:{number}: {len(line)} characters"
        for path in sorted(ROOT.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").split("\n"), start=1)
        if len(line) > MAX_LINE
    ]
    assert not long_lines, f"lines over {MAX_LINE} characters:\n" + "\n".join(long_lines)


def test_no_dead_code():
    """Every method or property of a class, bar the hooks Python calls itself
    (``__x__``, and ``_x_`` such as ``Enum._missing_``), is read as an
    attribute somewhere in ``src``, and every module-level function or class
    is referenced there or exported. Reads are told apart by the syntax tree,
    not by text: a local variable may share a method's name."""
    trees = {path.relative_to(ROOT): ast.parse(path.read_text(encoding="utf-8")) for path in sorted(ROOT.rglob("*.py"))}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    read = {node.attr for node in nodes if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    referenced = read | {node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    kept = referenced | set(otcms.__all__) | UNREFERENCED_KEPT
    dead = []
    for path, tree in trees.items():
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name not in kept:
                dead.append(f"{path}: {top.name}")
            if isinstance(top, ast.ClassDef):
                dead += [
                    f"{path}: {top.name}.{member.name}"
                    for member in top.body
                    if isinstance(member, ast.FunctionDef)
                    and not (member.name.startswith("_") and member.name.endswith("_"))
                    and member.name not in read
                ]
    assert not dead, "defined but never used in src:\n" + "\n".join(dead)


def test_no_code_is_compiled_at_run_time():
    """No ``src`` code calls the builtins ``exec``, ``eval`` or ``compile``:
    every rule is written out where a reader can see it."""
    calls = [
        f"{path.relative_to(ROOT)}:{node.lineno}: {node.func.id}"
        for path in sorted(ROOT.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in {"exec", "eval", "compile"}
    ]
    assert not calls, "code compiled at run time:\n" + "\n".join(calls)
