"""The project model rules check against: parsed modules + name maps.

One :class:`Project` is built per lint run: every ``.py`` file under the
requested paths is parsed once, and rules share the resulting
:class:`Module` objects — AST, source lines, ``# reprolint:
allow[...]`` pragma lines, and an import-derived name map that resolves
a call site like ``perf_counter()`` or ``dt.now()`` back to its
qualified origin (``time.perf_counter``, ``datetime.datetime.now``).

Everything here is stdlib ``ast``; no module under check is ever
imported, so a violating fixture tree (or a tree that currently fails
its own invariants) can still be linted.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

#: ``# reprolint: allow[wall-clock]`` (one or more comma-separated tokens).
_PRAGMA_RE = re.compile(r"#\s*reprolint:\s*allow\[([a-z0-9_,\- ]+)\]")

#: Directories never scanned.
_SKIP_DIRS = {"__pycache__", ".git", ".ruff_cache", ".pytest_cache"}

#: Compound statements whose span covers their whole body — useless as
#: a pragma window (a pragma inside an ``if`` body must not bless the
#: header's call).  Pragma matching falls back to the call's own lines.
_COMPOUND_STMT = (
    ast.If,
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.With,
    ast.AsyncWith,
    ast.Try,
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
    ast.Match,
)


@dataclass
class Module:
    """One parsed source file."""

    path: Path
    rel: str  # posix path relative to the project root
    tree: ast.Module
    lines: list[str]
    #: line number -> set of allow tokens on that line
    pragmas: dict[int, set[str]] = field(default_factory=dict)
    #: local name -> qualified origin ("time", "time.perf_counter", ...)
    imports: dict[str, str] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: Path, rel: str) -> Optional["Module"]:
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError, ValueError):
            # unreadable / unparsable files are not this linter's beat
            # (ruff and the interpreter both fail louder); skip them
            return None
        mod = cls(path=path, rel=rel, tree=tree, lines=source.splitlines())
        for lineno, line in enumerate(mod.lines, start=1):
            match = _PRAGMA_RE.search(line)
            if match:
                tokens = {t.strip() for t in match.group(1).split(",")}
                mod.pragmas[lineno] = {t for t in tokens if t}
        mod._index_imports()
        return mod

    def _index_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.partition(".")[0]
                    target = alias.name if alias.asname else local
                    self.imports[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module:
                prefix = "." * node.level + node.module
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.imports[local] = f"{prefix}.{alias.name}"

    def qualified_call(self, call: ast.Call) -> Optional[str]:
        """Resolve ``call``'s target to a dotted origin name, if possible.

        ``time.perf_counter()`` -> ``time.perf_counter`` (via ``import
        time``); ``pc()`` -> ``time.perf_counter`` (via ``from time
        import perf_counter as pc``); ``datetime.datetime.now()`` ->
        ``datetime.datetime.now``.  Returns None for calls on computed
        objects (``obj.method()`` where ``obj`` is not an import).
        """
        parts: list[str] = []
        node = call.func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        origin = self.imports.get(node.id)
        if origin is None:
            return None
        return ".".join([origin, *reversed(parts)])

    def allows(
        self, node: ast.AST, token: str, *, stmt: Optional[ast.stmt] = None
    ) -> bool:
        """Is ``node`` blessed by an ``allow[token]`` pragma?

        The pragma may sit on any line the node spans, or — for a call
        wrapped across lines — on any line of its innermost enclosing
        *simple* statement (compound statements span their whole body
        and are ignored as windows).
        """
        start = getattr(node, "lineno", 0)
        end = getattr(node, "end_lineno", start) or start
        if stmt is not None and not isinstance(stmt, _COMPOUND_STMT):
            start = min(start, stmt.lineno)
            end = max(end, stmt.end_lineno or stmt.lineno)
        return any(
            token in self.pragmas.get(lineno, ()) for lineno in range(start, end + 1)
        )

    def calls_with_statements(self) -> Iterator[tuple[ast.Call, ast.stmt]]:
        """Every Call node paired with its innermost enclosing statement."""

        def walk(
            node: ast.AST, stmt: Optional[ast.stmt]
        ) -> Iterator[tuple[ast.Call, ast.stmt]]:
            for child in ast.iter_child_nodes(node):
                inner = child if isinstance(child, ast.stmt) else stmt
                if isinstance(child, ast.Call) and inner is not None:
                    yield child, inner
                yield from walk(child, inner)

        first = self.tree.body[0] if self.tree.body else None
        yield from walk(self.tree, first)


@dataclass
class Project:
    """Every parsed module of one lint run, keyed by root-relative path."""

    root: Path
    modules: dict[str, Module] = field(default_factory=dict)

    @classmethod
    def load(cls, root: Path, paths: tuple[str, ...]) -> "Project":
        project = cls(root=root.resolve())
        project._extend(paths)
        return project

    def widened(self, paths: tuple[str, ...]) -> "Project":
        """This project plus every module under ``paths`` (parsed once)."""
        wide = Project(root=self.root, modules=dict(self.modules))
        wide._extend(paths)
        return wide

    def _extend(self, paths: tuple[str, ...]) -> None:
        for entry in paths:
            base = (self.root / entry).resolve()
            if base.is_file() and base.suffix == ".py":
                self._add(base)
                continue
            if not base.is_dir():
                continue
            for path in sorted(base.rglob("*.py")):
                if any(part in _SKIP_DIRS for part in path.parts):
                    continue
                self._add(path)

    def _add(self, path: Path) -> None:
        rel = path.relative_to(self.root).as_posix()
        if rel in self.modules:
            return
        module = Module.parse(path, rel)
        if module is not None:
            self.modules[rel] = module

    def under(self, *prefixes: str) -> Iterator[Module]:
        """Modules whose root-relative path starts with any prefix."""
        for rel in sorted(self.modules):
            if any(
                rel == p or rel.startswith(p.rstrip("/") + "/") for p in prefixes
            ):
                yield self.modules[rel]

    def get(self, rel: str) -> Optional[Module]:
        return self.modules.get(rel)

    def __len__(self) -> int:
        return len(self.modules)
