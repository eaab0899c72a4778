"""Source hygiene without a linter: no dead private helpers or constants,
no unused imports. A private name that nothing in its module reads is a
copy that drifted out of use; these checks keep such copies from
growing back."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "questsim"
MODULES = sorted(SRC.glob("*.py"))


def loaded_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read anywhere in tree, outside the subtree skip."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        stack.extend(ast.iter_child_nodes(node))
    return names


def defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_module_names_are_used(path):
    tree = parse(path)
    dead = []
    for node in tree.body:
        for name in defined_names(node):
            if (name.startswith("_") and not name.startswith("__")
                    and name not in loaded_names(tree, skip=node)):
                dead.append(name)
    assert not dead, f"{path.name}: unused private names {dead}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_imports_are_used(path):
    tree = parse(path)
    used = loaded_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.append(name)
    assert not unused, f"{path.name}: unused imports {unused}"
