"""Every function, class and module-level table in ``src/`` has a caller
outside ``tests/``: code that only tests call belongs in ``tests/``."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# items 1, 12 and 16 of the roadmap print it beside each computed section
ALLOWED = {"length_type"}


def _trees(directory: str) -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / directory).glob("*.py"))}


def _references(node: ast.AST, strings: bool = False) -> Counter:
    """The names ``node`` reads, as names or attributes, and with ``strings``
    every string constant that is an identifier (a name wrapped by hand)."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out[sub.attr] += 1
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            out[sub.value] += 1
    return out


def _definitions(tree: ast.Module):
    """``(label, name, node)`` for each function, class, method and
    module-level table of a module; dunders are called by the language."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        yield f"{node.name}.{item.name}", item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id, target.id, node


def test_every_name_in_src_has_a_caller_outside_tests():
    src, bench = _trees("src/rdpinv"), _trees("bench")
    refs = Counter()
    for tree in src.values():
        refs += _references(tree)
    for name, tree in bench.items():
        refs += _references(tree, strings=name == "tracing.py")
    # a name read only inside its own definition (a recursion) has no caller
    unused = [f"{module}:{label}" for module, tree in src.items()
              for label, name, node in _definitions(tree)
              if name not in ALLOWED and refs[name] <= _references(node)[name]]
    assert not unused, "called only from tests/: " + ", ".join(unused)
