"""List library code that only the tests reach.

An AST census of ``src/repro``.  It collects three kinds of definition:

- top-level functions and classes (``def``);
- methods, properties included, that are not dunders (``method``);
- dataclass fields that carry a default (``field``).

It then counts references in the non-test trees (``src``, ``scripts``,
``benchmarks``, ``examples``) and in ``tests``.  A def or method is
referenced by a bare name, an attribute access or a string constant equal
to its name; imports and ``__all__`` entries do not count, nor does the
definition itself.  A field is referenced only where a caller *sets* it:
a keyword argument or an attribute store of that name.  A name is a hit
when ``tests`` reference it and no non-test tree does.

The census matches on names, so a name shared with other code hides a hit.
Each name that stays on purpose is listed, with its reason, in
``scripts/census_allowlist.txt`` (``kind qualified.name  # reason``).  An
entry that is no longer a hit (the name is gone, or non-test code now
reaches it) is stale, and fails the census like an unlisted hit.

Run from the repository root::

    python scripts/census_unused.py          # exit 1 on an unlisted hit or a stale entry
    python scripts/census_unused.py --all    # also print allowlisted hits

It needs no third-party package and imports nothing from ``repro``.
"""

from __future__ import annotations

import argparse
import ast
import sys
from collections import Counter
from pathlib import Path
from typing import Iterator, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "repro"
NON_TEST_TREES = ("src", "scripts", "benchmarks", "examples")
TEST_TREES = ("tests",)
ALLOWLIST = ROOT / "scripts" / "census_allowlist.txt"

#: (kind, qualified name, bare name, file, line)
Definition = Tuple[str, str, str, Path, int]


def _py_files(trees) -> Iterator[Path]:
    for tree in trees:
        base = ROOT / tree
        if base.is_dir():
            yield from sorted(p for p in base.rglob("*.py") if "__pycache__" not in p.parts)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def definitions() -> List[Definition]:
    """Every def, method and defaulted dataclass field under ``src/repro``."""
    out: List[Definition] = []
    for path in _py_files(["src/repro"]):
        module = ".".join(path.relative_to(LIBRARY.parent).with_suffix("").parts)
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append(("def", f"{module}.{node.name}", node.name, path, node.lineno))
            if not isinstance(node, ast.ClassDef):
                continue
            dataclass = _is_dataclass(node)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not (item.name.startswith("__") and item.name.endswith("__")):
                        qual = f"{module}.{node.name}.{item.name}"
                        out.append(("method", qual, item.name, path, item.lineno))
                elif (
                    dataclass
                    and isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and item.value is not None
                    and "ClassVar" not in ast.unparse(item.annotation)
                ):
                    qual = f"{module}.{node.name}.{item.target.id}"
                    out.append(("field", qual, item.target.id, path, item.lineno))
    return out


def _all_strings(tree: ast.Module) -> set:
    """Ids of the string constants inside ``__all__`` assignments."""
    ids = set()
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            ids.update(id(c) for c in ast.walk(node) if isinstance(c, ast.Constant))
    return ids


def references(trees) -> Tuple[Counter, Counter]:
    """(uses, sets) per name over the given trees.

    ``uses`` counts loads of a name, attribute accesses and string constants
    (outside ``__all__``); ``sets`` counts keyword arguments and attribute
    stores.  Definition names are not nodes of either kind, so a definition
    never counts itself.
    """
    uses: Counter = Counter()
    sets: Counter = Counter()
    for path in _py_files(trees):
        tree = ast.parse(path.read_text(), str(path))
        skip = _all_strings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses[node.id] += 1
            elif isinstance(node, ast.Attribute):
                uses[node.attr] += 1
                if isinstance(node.ctx, ast.Store):
                    sets[node.attr] += 1
            elif isinstance(node, ast.keyword) and node.arg:
                sets[node.arg] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if id(node) not in skip and node.value.isidentifier():
                    uses[node.value] += 1
    return uses, sets


def census() -> List[Definition]:
    """Definitions that ``tests`` reference and no non-test tree does."""
    lib_uses, lib_sets = references(NON_TEST_TREES)
    test_uses, test_sets = references(TEST_TREES)
    hits = []
    for d in definitions():
        kind, _, name, _, _ = d
        lib, test = (lib_sets, test_sets) if kind == "field" else (lib_uses, test_uses)
        if lib[name] == 0 and test[name] > 0:
            hits.append(d)
    return hits


def load_allowlist(path: Path = ALLOWLIST) -> dict:
    """``{(kind, qualified name): reason}``; a line without a reason is an error."""
    allowed = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        entry, _, reason = line.partition("#")
        parts = entry.split()
        if len(parts) != 2 or not reason.strip():
            raise SystemExit(f"{path.name}:{lineno}: expected 'kind name  # reason'")
        allowed[(parts[0], parts[1])] = reason.strip()
    return allowed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--all", action="store_true", help="also print allowlisted hits")
    args = ap.parse_args(argv)
    allowed = load_allowlist(ALLOWLIST)
    hits = census()
    found = {(k, q) for k, q, *_ in hits}
    bad = 0
    for kind, qual, _, path, line in hits:
        reason = allowed.get((kind, qual))
        if reason is None:
            bad += 1
            print(f"UNUSED {kind:6s} {qual}  ({path.relative_to(ROOT)}:{line})")
        elif args.all:
            print(f"kept   {kind:6s} {qual}  # {reason}")
    stale = sorted(set(allowed) - found)
    for kind, qual in stale:
        print(f"STALE  {kind:6s} {qual}  (allowlisted, no longer a test-only hit)")
    print(f"{len(hits)} test-only names, {bad} not allowlisted, {len(stale)} stale allowlist entries")
    return 1 if bad or stale else 0


if __name__ == "__main__":
    sys.exit(main())
