"""Source guards over ``src/ktfm``: no private helper is left without a caller."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ktfm"


def private_definitions(tree: ast.Module) -> list[str]:
    """Module-level functions, classes and assigned constants whose name starts
    with one underscore (dunders such as ``__all__`` are not private)."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names.extend(target.id for target in node.targets if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for every private module-level name of ``sources`` (module
    stem -> source text) that nothing reads: not a loaded name in its own module,
    not a ``from .module import name`` elsewhere, and no attribute of that name."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    loaded = {module: set() for module in trees}
    imported, attributes = set(), set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                loaded[module].add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module:
                source = node.module.rsplit(".", 1)[-1]
                imported.update((source, alias.name) for alias in node.names)
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in private_definitions(tree)
        if name not in loaded[module] and (module, name) not in imported and name not in attributes
    )


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_every_private_name_has_a_reader():
    assert unreferenced_private_names(package_sources()) == []


def test_the_guard_finds_a_stranded_helper():
    sources = package_sources()
    assert private_definitions(ast.parse(sources["training"]))  # the walk sees the package
    sources["training"] += "\n\ndef _scalar_draw(prior, prec):\n    return prior / prec\n"
    assert unreferenced_private_names(sources) == ["training._scalar_draw"]


def test_each_kind_of_reader_counts():
    sources = {
        "a": "_LIMIT = 3\n_spare: int = 4\n\ndef _local():\n    return _LIMIT\n\n"
             "def _imported():\n    pass\n\ndef _by_attribute():\n    pass\n\nclass _Gone:\n    pass\n\n"
             "def public():\n    return _local()\n",
        "b": "from .a import _imported\nfrom . import a\n\ndef g():\n    return a._by_attribute\n",
    }
    assert unreferenced_private_names(sources) == ["a._Gone", "a._spare"]
