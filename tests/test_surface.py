"""No top-level function, class or constant in the package that only tests reach, and the
README's export table lists what the package exports."""

import ast
import re
from pathlib import Path

import seqclass

PACKAGE = Path(seqclass.__file__).parent


def _names(node: ast.AST) -> set[str]:
    """Every name the node reads, imports or reaches as an attribute."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rsplit(".", 1)[-1])
    return found


def _defined(node: ast.stmt) -> set[str]:
    """The names a top-level statement defines: a function, a class or assigned constants."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return set()
    return {sub.id for target in targets for sub in ast.walk(target) if isinstance(sub, ast.Name)}


def unreached_definitions(package: Path) -> list[str]:
    """Top-level functions, classes and constants that no module names outside their own definition.

    Dunders and the names that ``__init__._EXPORTS`` makes public are exempt.
    """
    defined, named = [], set()
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = _defined(node)
            defined += [(f"{path.stem}.{name}", name) for name in sorted(own)]
            named |= _names(node) - own
    exported = {name for names in seqclass._EXPORTS.values() for name in names}
    return [qualified for qualified, name in defined
            if name not in named and name not in exported
            and not (name.startswith("__") and name.endswith("__"))]


def test_every_definition_is_reached_from_the_package():
    assert unreached_definitions(PACKAGE) == []


def readme_exports(readme: str) -> dict[str, list[str]]:
    """The README's "Library use" table: each module's exported names, in the table's order."""
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].startswith("`"):
            table[cells[0].strip("`")] = re.findall(r"`([^`]+)`", cells[1])
    return table


def test_readme_export_table_matches_the_package():
    readme = (PACKAGE.parent.parent / "README.md").read_text(encoding="utf-8")
    assert readme_exports(readme) == seqclass._EXPORTS


def test_pipeline_names_no_model_internal_memory_rule():
    """Each model's allocation rules stay in its own module: pipeline.py adds up the byte
    functions beside the allocating code, and names none of the constants behind them."""
    tree = ast.parse((PACKAGE / "pipeline.py").read_text(encoding="utf-8"))
    internal = {"LBFGS_MEMORY", "RIDGE_DENSE_LIMIT", "GEMM_MIN_DENSITY", "uses_gemm", "getbufsize"}
    assert _names(tree) & internal == set()


def test_stop_char_is_named_only_where_fasta_and_corpus_bodies_are_read():
    """One stop rule: parse_fasta drops a record's trailing stop, and load_corpus rejects a
    lone-stop body that an older ingest wrote; nothing else in the package names STOP_CHAR."""
    naming = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if "STOP_CHAR" in _names(node) - _defined(node):
                naming.add(f"{path.stem}.{getattr(node, 'name', type(node).__name__)}")
    assert naming == {"ingest.parse_fasta", "ingest.load_corpus"}
