"""Every public src name is reached by src or the benchmark, not by the tests alone, and every
src import is used.

A module-level function, class or assignment of ``src/unscodec/*.py`` whose
name does not start with an underscore must be exported in ``unscodec.__all__``
or appear as a word somewhere in src or ``perfbench/*.py`` outside its own
definition.  A helper only the tests call belongs in ``tests/``.  A name a
src module imports must be read in that module or listed in its ``__all__``.
"""

import ast
import re
from pathlib import Path

import unscodec

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "unscodec").glob("*.py"))
USERS = SRC + sorted((ROOT / "perfbench").glob("*.py"))


def public_definitions(path):
    """(name, first line, last line) of each public module-level def, class or assignment."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node.lineno, node.end_lineno


def test_every_public_src_name_is_reached_outside_the_tests():
    texts = {path: path.read_text().splitlines() for path in USERS}
    unreached = []
    for path in SRC:
        for name, first, last in public_definitions(path):
            if name in unscodec.__all__:
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            found = any(word.search(line) for user, lines in texts.items()
                        for number, line in enumerate(lines, 1)
                        if not (user == path and first <= number <= last))
            if not found:
                unreached.append(f"{path.stem}.{name}")
    assert not unreached, f"public names only the tests reach: {unreached}"


def imported_names(tree):
    """(name, line) of each name a module's imports bind, ``from __future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_src_import_is_used():
    # an import that nothing in its module reads, and that the module does not
    # export in __all__, is left over from deleted code
    unused = []
    for path in SRC:
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used.update(*(ast.literal_eval(node.value) for node in tree.body
                      if isinstance(node, ast.Assign) and "__all__" in
                      [getattr(target, "id", None) for target in node.targets]))
        unused += [f"{path.stem}:{line} {name}" for name, line in imported_names(tree)
                   if name not in used]
    assert not unused, f"imports nothing uses: {unused}"
