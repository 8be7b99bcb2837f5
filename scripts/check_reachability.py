#!/usr/bin/env python
"""Ratchet: every definition in ``src/repro`` must be reached by non-test code.

Two checks over the package's ASTs:

* **Reachability.** Every top-level function or class, and every non-dunder
  method, must be referenced by name from outside its own definition, in a
  non-test file under one of the roots (``src/repro``, ``bench/``,
  ``benchmarks/``, ``scripts/``, ``examples/``). A reference is a name load,
  an attribute load, a ``from … import`` name, or an identifier-like string
  constant (so ``getattr(obj, "name")`` and dispatch tables count). Imports
  and ``__all__`` strings in package ``__init__`` files do not count: a
  re-export is not a use.
* **Exports.** A name in a package ``__all__`` that no non-test code mentions
  is dead API and is flagged too.

Matching is by name only, so a method shares its reach with every attribute
of the same name; the check errs towards keeping code, never towards
deleting it. Test files (``test_*.py``, ``*_test.py``, ``conftest.py`` and
anything under a ``tests`` directory) are not roots: code only a test calls
must be deleted, or be listed in :data:`ALLOWLIST` with the reason it stays.
The allowlist may only shrink: an entry whose symbol is gone or is now
reached elsewhere fails the check until it is removed.

Run directly (``python scripts/check_reachability.py``) or via its test in
``tests/test_reachability.py``; exits 1 with one line per violation on
stderr. ``--package DIR [ROOT ...]`` checks another package, with the given
roots in place of ``bench/`` … ``examples/`` (the package is always one).
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(REPO, "src", "repro")
#: Trees whose non-test code counts as a reference, besides the package itself.
ROOTS = [os.path.join(REPO, name) for name in ("bench", "benchmarks", "scripts", "examples")]

#: Symbols only tests reach, kept on purpose. ``<path in package>::<qualname>``
#: → the reason. Shrink it; never grow it.
ALLOWLIST = {
    "core/pruning.py::classify_entities": "per-entity reference the vectorized pruning is tested against",
    "core/merging.py::weighted_mean_vector":
        "per-item reference the bucketed representative mean is tested against",
    "clustering/dbscan.py::dbscan": "textbook DBSCAN, the density reference for Algorithm 4's pruning",
    "clustering/connected_components.py::connected_components_networkx":
        "networkx reference for the union-find components",
    "embedding/hashed.py::HashedNGramEncoder._token_vector":
        "per-token reference the batched hashed encoder is tested against",
    "data/table.py::Table.with_column_shuffled":
        "re-serializing reference the spliced attribute selection is tested against",
    "text/tokenizer.py::truncate_tokens": "per-text reference for the hashed encoder's max_tokens cap",
    "core/merging.py::ItemTable.from_items": "test seam: builds an ItemTable from hand-written items",
    "faults.py::inject": "test seam: installs a fault plan in-process",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _source_files(root: str):
    """The non-test ``.py`` files under ``root``."""
    for directory, dirs, files in os.walk(root):
        dirs[:] = sorted(d for d in dirs if d not in ("tests", "__pycache__") and not d.startswith("."))
        for name in sorted(files):
            test = name.startswith("test_") or name.endswith("_test.py") or name == "conftest.py"
            if name.endswith(".py") and not test:
                yield os.path.join(directory, name)


def _parse(path: str) -> ast.Module:
    with open(path, "r", encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


def _all_strings(tree: ast.Module) -> "list[ast.Constant]":
    """The string constants of a module-level ``__all__ = [...]``."""
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            elts = node.value.elts
            return [elt for elt in elts if isinstance(elt, ast.Constant) and isinstance(elt.value, str)]
    return []


def _definitions(tree: ast.Module):
    """``(qualname, node)`` for every top-level def or class and non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield f"{node.name}.{member.name}", member


def _references(path: str, tree: ast.Module) -> "list[tuple[str, int]]":
    """``(name, line)`` for every reference a file makes."""
    init = os.path.basename(path) == "__init__.py"
    skipped = {id(const) for const in _all_strings(tree)} if init else set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom) and not init:
            found.extend((alias.name, node.lineno) for alias in node.names)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _IDENTIFIER.match(node.value)
            and id(node) not in skipped
        ):
            found.append((node.value, node.lineno))
    return found


def check(package: str, roots: "list[str]", allowlist: "dict[str, str]") -> "list[str]":
    """Every violation, one message each; empty when the tree is clean.

    ``package`` is always a root as well as the tree whose definitions are
    checked.
    """
    package = os.path.abspath(package)
    this_script = os.path.abspath(__file__)
    references: dict[str, list[tuple[str, int]]] = {}
    for root in [package, *roots]:
        for path in _source_files(os.path.abspath(root)):
            if path != this_script:
                for name, line in _references(path, _parse(path)):
                    references.setdefault(name, []).append((path, line))

    def reached(name: str, path: str = "", own: range = range(0)) -> bool:
        return any(ref_path != path or line not in own for ref_path, line in references.get(name, ()))

    exempt = {key.rsplit("::", 1)[1] for key in allowlist}
    problems = []
    defined = set()
    for path in _source_files(package):
        rel = os.path.relpath(path, package).replace(os.sep, "/")
        tree = _parse(path)
        for qualname, node in _definitions(tree):
            key = f"{rel}::{qualname}"
            defined.add(key)
            live = reached(node.name, path, range(node.lineno, node.end_lineno + 1))
            if key in allowlist and live:
                problems.append(f"{key}: allowlisted but reached outside tests; remove it from ALLOWLIST")
            elif key not in allowlist and not live:
                problems.append(f"{key}: referenced only from tests or its own body")
        if os.path.basename(path) == "__init__.py":
            for const in _all_strings(tree):
                if const.value not in exempt and not reached(const.value):
                    problems.append(
                        f"{rel}:{const.lineno}: '{const.value}' is exported but nothing outside tests uses it"
                    )
    for key in sorted(allowlist):
        if os.path.exists(os.path.join(package, key.split("::")[0])) and key not in defined:
            problems.append(f"{key}: allowlisted but no longer defined; remove it from ALLOWLIST")
    return problems


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--package", default=PACKAGE, help="package whose definitions are checked")
    parser.add_argument("roots", nargs="*", help="further trees whose non-test code counts as a reference")
    args = parser.parse_args(argv)
    problems = check(args.package, args.roots or ROOTS, ALLOWLIST)
    for message in problems:
        print(message, file=sys.stderr)
    if problems:
        print(
            f"{len(problems)} problem(s): delete what only tests reach, or list a reference that must "
            "stay in ALLOWLIST (scripts/check_reachability.py) with its reason",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
