"""Every definition under ``src/repro`` is reached from a real entry point.

A name-level walk of the import-and-call graph, built with ``ast`` and
no imports of the package.  The roots are what the system is run from:

* the names in ``repro.__all__``;
* ``main`` of every ``repro.tools`` subcommand module;
* every module-level statement (imports only alias names; an
  ``__all__`` list is not a use);
* every name that ``bench/``, ``examples/`` and ``benchmarks/`` import
  or reference.

A subpackage ``__all__`` is not a root, and neither is ``tests/``: code
that only tests call is dead code with a test.

Matching is by name, not by binding.  A reached body "references" every
``Name``, every attribute name and every identifier-shaped string
constant in it (``getattr(obj, "name")`` dispatch).  A top-level ``def``
or ``class`` is reached once its name is referenced anywhere reached; a
class member once its class is reached and its name is referenced, or
at once if it is a dunder.  ``import x as y`` makes ``y`` an alias of
``x``.  The walk over-approximates, so it never flags live code; what it
flags has no caller outside ``tests/``.

An unreached definition fails the test unless ``ALLOWLIST`` covers it.
An entry is a module (every definition in it) or ``module:qualname``
(that definition and its members); what it covers is kept on purpose,
so it is a root too.  An entry that covers nothing unreached (it became
reachable, or its code is gone) fails as well, so the list only shrinks.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
CALLER_DIRS = ("bench", "examples", "benchmarks")

#: ``module`` or ``module:qualname`` -> why it stays although no root
#: reaches it.  Sections are the paper's (see docs/PAPER_MAP.md).
ALLOWLIST: dict[str, str] = {
    # Functional-runtime surface that a paper section describes and
    # that tests exercise; no experiment, workload or CLI drives it.
    "repro.core.easy_api:ParallelMLP": "§V-A easy API beyond GPT: "
        "parallelize a serial Linear stack",
    "repro.core.pmm3d:unshard_output": "§V-A Algorithm 1, reassembly",
    "repro.runtime.nonblocking": "§V-D non-blocking collectives and "
        "Handle; ROADMAP item 14 decides it",
    "repro.memorization.tokenizer:BPETokenizer": "§VIII tokenized text",
    "repro.memorization.text_corpus:TextCorpus": "§VIII tokenized text",
    "repro.moe.transformer:MoEGPT": "MoE extension (ref. [17]); "
        "ROADMAP parked item (d)",
}


def _covers(entry: str, key: str) -> bool:
    return key == entry or key.startswith((entry + ":", entry + "."))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _references(nodes) -> set[str]:
    """Names, attribute names and identifier strings under ``nodes``."""
    out: set[str] = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    out.add(node.value)
    return out


def _is_all_assignment(stmt: ast.stmt) -> bool:
    targets = (
        stmt.targets if isinstance(stmt, ast.Assign)
        else [stmt.target] if isinstance(stmt, (ast.AnnAssign, ast.AugAssign))
        else []
    )
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


@dataclass(eq=False)
class _Def:
    key: str  # module:qualname
    name: str
    parent: _Def | None  # the class of a member
    refs: set[str]
    lines: int


class Graph:
    """Definitions of ``src/repro``, root names and import aliases."""

    def __init__(self) -> None:
        self.defs: list[_Def] = []
        self.roots: set[str] = set()
        self.aliases: dict[str, set[str]] = {}
        self.tool_mains: set[str] = set()
        for path in sorted(SRC.rglob("*.py")):
            rel = path.relative_to(SRC.parent).with_suffix("")
            module = ".".join(rel.parts).removesuffix(".__init__")
            self._add_module(module, ast.parse(path.read_text()))
        self._add_entry_points()
        for d in CALLER_DIRS:
            for path in sorted((ROOT / d).rglob("*.py")):
                tree = ast.parse(path.read_text())
                self.roots |= _references([tree])
                for node in ast.walk(tree):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        self.roots |= {a.name.split(".")[-1] for a in node.names}

    def _add_module(self, module: str, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for a in node.names:
                    if a.asname:
                        self.aliases.setdefault(a.asname, set()).add(
                            a.name.split(".")[-1])
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                self._add_def(module, stmt, None)
            elif not (isinstance(stmt, (ast.Import, ast.ImportFrom))
                      or _is_all_assignment(stmt)):
                self.roots |= _references([stmt])

    def _add_def(self, prefix: str, node, parent: _Def | None) -> None:
        sep = "." if parent else ":"
        key = f"{prefix}{sep}{node.name}"
        lines = node.end_lineno - node.lineno + 1 + len(node.decorator_list)
        if isinstance(node, ast.ClassDef):
            members = [s for s in node.body if isinstance(
                s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
            rest = [s for s in node.body if s not in members]
            refs = _references(
                node.bases + node.keywords + node.decorator_list + rest)
            d = _Def(key, node.name, parent, refs, lines)
            self.defs.append(d)
            for m in members:
                self._add_def(key, m, d)
        else:
            self.defs.append(
                _Def(key, node.name, parent, _references([node]), lines))

    def _add_entry_points(self) -> None:
        init = ast.parse((SRC / "__init__.py").read_text())
        for stmt in init.body:
            if _is_all_assignment(stmt):
                self.roots |= set(ast.literal_eval(stmt.value))
        tools = ast.parse((SRC / "tools" / "__init__.py").read_text())
        for stmt in tools.body:
            if (isinstance(stmt, ast.Assign)
                    and getattr(stmt.targets[0], "id", None) == "SUBCOMMANDS"):
                modules = {m for m, _ in ast.literal_eval(stmt.value).values()}
                self.tool_mains = {f"repro.tools.{m}:main" for m in modules}

    def unreached(self, kept=()) -> list[_Def]:
        """Definitions no root reaches; ``kept`` entries count as roots."""
        names: set[str] = set()
        pending = list(self.roots)
        reached = set(self.tool_mains) | {
            d.key for d in self.defs if any(_covers(e, d.key) for e in kept)}
        for d in self.defs:
            if d.key in reached:
                pending += d.refs
        changed = True
        while changed:
            while pending:
                n = pending.pop()
                if n not in names:
                    names.add(n)
                    pending += self.aliases.get(n, ())
            changed = False
            for d in self.defs:
                if d.key in reached:
                    continue
                if d.parent is None:
                    ok = d.name in names
                else:
                    ok = d.parent.key in reached and (
                        _is_dunder(d.name) or d.name in names)
                if ok:
                    reached.add(d.key)
                    pending += d.refs
                    changed = True
        return [d for d in self.defs if d.key not in reached]


@lru_cache(maxsize=None)
def _graph() -> Graph:
    return Graph()


def test_every_definition_is_reached_or_allowlisted():
    dead = [f"{d.key} ({d.lines} lines)"
            for d in _graph().unreached(kept=ALLOWLIST)]
    assert not dead, "unreached from every root (delete, or allowlist " \
        "with a reason): " + ", ".join(dead)


def test_allowlist_has_no_stale_entries():
    unreached = [d.key for d in _graph().unreached()]
    stale = [e for e in ALLOWLIST
             if not any(_covers(e, key) for key in unreached)]
    assert not stale, "allowlisted but reachable or gone: " + ", ".join(stale)


def _oracle_imports(tree: ast.Module) -> set[str]:
    """The ``tests/oracles`` modules a test module imports."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[:2] == ["tests", "oracles"] and len(parts) > 2:
                out.add(parts[2])
    return out


def test_every_oracle_has_a_test():
    """An oracle outlives the code it was the reference for only on
    purpose: each module under ``tests/oracles/`` is imported by a test."""
    oracles = {p.stem for p in (ROOT / "tests" / "oracles").glob("*.py")
               if p.stem != "__init__"}
    imported: set[str] = set()
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        imported |= _oracle_imports(ast.parse(path.read_text()))
    assert oracles
    assert not oracles - imported, "oracles no test imports: " + ", ".join(
        sorted(oracles - imported))
