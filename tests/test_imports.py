"""Every module reads every name it imports.

The package's `__init__.py` imports only to re-export, so it is left out.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "permtop").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unread_imports(source: str) -> list[str]:
    """Names bound by an import in `source` that no expression reads."""
    tree = ast.parse(source)
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        # quoted annotations such as -> "ResiduePerm"
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                read.update(n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


def test_unread_imports_are_found():
    assert unread_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "b (line 2)", "os (line 1)"]
    assert unread_imports("from x import T\ndef f() -> 'T': pass\n") == []
    assert unread_imports("from x import T\n'T'\n") == ["T (line 1)"]


def test_no_module_imports_a_name_it_never_reads():
    found = {path.relative_to(ROOT).as_posix(): unread_imports(path.read_text())
             for path in FILES if path.name != "__init__.py"}
    assert {k: v for k, v in found.items() if v} == {}
