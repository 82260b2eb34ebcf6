"""Source guards over ``src/ktfm``: no private helper is left without a caller,
only two private names are imported from another module, only ``evaluation.fit``
calls a trainer, and only ``cli._manifest`` writes a manifest."""

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


def private_imports(sources: dict[str, str]) -> list[str]:
    """``module.name`` for every ``from .module import _name`` in ``sources``."""
    found = set()
    for text in sources.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                found.update(f"{node.module}.{alias.name}" for alias in node.names
                             if alias.name.startswith("_") and not alias.name.startswith("__"))
    return sorted(found)


def test_only_two_private_names_cross_a_module():
    # each file format is read in one module; ``_readonly`` is how every module hands
    # out a read-only array, and ``evaluation.fit`` colours a train set once for all
    # its fits (perfbench/trace_cli.py wraps the trainers it calls by their names there)
    assert private_imports(package_sources()) == ["sparse._readonly", "training._colour_blocks"]


def test_the_import_guard_finds_a_planted_import():
    sources = package_sources()
    sources["cli"] += "\nfrom .datasets import _lookup, load_dataset\nfrom . import __version__\n"
    sources["model"] += "\nfrom .encoding import (\n    _BITS as bits,\n)\n"
    assert private_imports(sources) == [
        "datasets._lookup", "encoding._BITS", "sparse._readonly", "training._colour_blocks",
    ]


TRAINERS = {"train_map_logit", "train_gibbs_probit"}


def callers(sources: dict[str, str], names: set[str]) -> list[str]:
    """``module.name`` for every top-level function or class of ``sources`` that
    calls one of ``names``, by its name or as an attribute (``module`` for a call
    outside any of them)."""
    found = set()
    for module, text in sources.items():
        for top in ast.parse(text).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) in names:
                    found.add(f"{module}.{top.name}" if hasattr(top, "name") else module)
    return sorted(found)


def test_only_fit_calls_a_trainer():
    # the choice of trainer by link is made once, so ``train`` and ``cv`` fit alike
    assert callers(package_sources(), TRAINERS) == ["evaluation.fit"]


def test_the_trainer_guard_finds_a_stray_call():
    sources = package_sources()
    sources["cli"] += "\n\ndef _refit(dm, cfg):\n    return train_map_logit(dm, cfg)\n"
    sources["model"] += "\n\nclass _Fitter:\n    def go(self):\n        return training.train_gibbs_probit(None)\n"
    sources["sparse"] += "\n\ntrain_map_logit(None, None)\n"
    assert callers(sources, TRAINERS) == ["cli._refit", "evaluation.fit", "model._Fitter", "sparse"]


def test_only_manifest_writes_a_manifest_in_cli():
    # every manifest is built from its command's own parameters, so no hand-kept
    # options dict can drift from the click signature
    cli = {"cli": package_sources()["cli"]}
    assert callers(cli, {"write_manifest"}) == ["cli._manifest"]
    cli["cli"] += "\n\ndef stray(out):\n    write_manifest(out, 'stray', {}, {})\n"
    assert callers(cli, {"write_manifest"}) == ["cli._manifest", "cli.stray"]
