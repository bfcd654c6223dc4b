"""Every definition under ``src/repro`` is reached from a real entry
point, and every option of one is set by a real caller.

Both checks read one parse of the source, built with ``ast`` and no
imports of the package.  The *callers* are the code outside ``tests/``:
``src/``, ``bench/``, ``examples/``, ``benchmarks/`` and the inline
``python - <<'EOF'`` scripts of the CI workflow.

**The walk** follows the import-and-call graph by name.  The roots are
what the system is run from:

* the names in ``repro.__all__``;
* ``main`` of every ``repro.tools`` subcommand module;
* every module-level statement (imports only alias names; an
  ``__all__`` list is not a use);
* every name that the callers outside ``src/`` import or reference.

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

**The option census** checks the walk's second blind spot: a reached
definition whose option only tests set.  An option is a parameter with
a default of a reached public function, method or ``__init__``, or a
field with a default of a ``frozen=True`` dataclass; what ``ALLOWLIST``
covers is skipped.  A call by a caller sets

* each keyword it passes, unless the value is the same literal as the
  default;
* parameter *i* by positional argument *i*;
* field ``f`` of every frozen dataclass, if it is ``replace(x, f=...)``
  or a call of a function that passes its ``**kw`` on to ``replace``.

Callees are matched by name through the alias map, and a class by its
own name and the names of subclasses that inherit its ``__init__``.
A callee that appears as a value (stored, passed, returned, or named by
an identifier string passed to a call) or is called with ``*args`` /
``**kw`` has every option set.  So the census over-approximates as the
walk does: what it flags no caller outside ``tests/`` sets.  A flagged
option fails the test unless ``OPTION_ALLOWLIST`` covers it, and a
stale entry fails too.
"""

from __future__ import annotations

import ast
import itertools
import re
import textwrap
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
CALLER_DIRS = ("bench", "examples", "benchmarks")
CI_WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

#: ``module`` or ``module:qualname`` -> why it stays although no root
#: reaches it.  Sections are the paper's (see docs/PAPER_MAP.md).
ALLOWLIST: dict[str, str] = {
    "repro.runtime.nonblocking": "§V-D non-blocking collectives and "
        "Handle; ROADMAP item 14 decides it",
}

#: Parameters through which tests observe or inject (the simplicity
#: guide keeps such seams): the census never reports them.
SEAMS = frozenset({"tracer", "injector", "clock"})

#: ``module:qualname(param)``, or ``module:qualname`` for every option
#: of a config class -> why it stays although no caller outside
#: ``tests/`` sets it: the ROADMAP item that gives it a caller, or why
#: tests must vary it.
OPTION_ALLOWLIST: dict[str, str] = {
    # ROADMAP item 2 gives models a dtype; the pricing byte widths then
    # follow it.
    "repro.perfmodel.model:model_comm_time(dtype_bytes)": "item 2",
    "repro.perfmodel.volume:gpt_forward_backward_volumes(dtype_bytes)":
        "item 2",
    "repro.simulate.serving:ServingModel(dtype_bytes)": "item 2",
    # ROADMAP item 18 decides activation checkpointing on the grid.
    "repro.simulate.executor:simulate_iteration(activation_checkpointing)":
        "item 18",
    "repro.pipeline.schedule:simulate_pipeline_iteration"
    "(activation_checkpointing)": "item 18",
    "repro.kernels.flops:flops_per_iteration(checkpointing)": "item 18",
    # Tests shrink a paper-scale run to tier-1 size.
    "repro.memorization.trainer:ExperimentConfig": "tests shrink the "
        "§VIII run to tier-1 size",
    "repro.memorization.trainer:run_experiment(pretrained)": "tests "
        "share one pretrained model between the two §VIII arms",
    "repro.simulate.serving:chaos_sweep(prompt_lens)": "tests shrink the "
        "SLO surface to tier-1 size",
    "repro.simulate.serving:chaos_sweep(max_new_tokens)": "tests shrink "
        "the SLO surface to tier-1 size",
    "repro.config:GPTConfig(ffn_mult)": "tests shrink the MLP of toy "
        "models, and the grid-rule property draws it",
    # A proof varies it: the option selects what the equivalence covers.
    "repro.core.pmm3d:shard_input(transposed)": "Algorithm 1's "
        "transposed layers are proved == serial",
    "repro.core.pmm3d:shard_weight(transposed)": "Algorithm 1's "
        "transposed layers are proved == serial",
    "repro.core.pmm3d:pmm3d_forward(transposed)": "Algorithm 1's "
        "transposed layers are proved == serial",
    "repro.core.pmm3d:pmm3d_backward(transposed)": "Algorithm 1's "
        "transposed layers are proved == serial",
    "repro.core.axonn:init(gdata)": "§V-A facade: tests prove each grid "
        "axis == serial",
    "repro.core.axonn:init(gs)": "§V-A facade: tests prove each grid "
        "axis == serial",
    "repro.core.axonn:init(machine)": "§V-A facade: tests attach a "
        "placement for two-level collectives",
    "repro.core.axonn:init(collective_algo)": "§V-A facade: tests run "
        "the two-level collectives through it",
    "repro.core.axonn:init(trace)": "§V-A facade: tests turn tracing off",
    "repro.memorization.trainer:run_experiment(grid)": "tests prove the "
        "§VIII run through the 4D model == serial",
    "repro.moe.layer:MoELayer.__init__(k)": "tests prove top-1 and "
        "top-2 routing == expert-parallel",
    "repro.core.elastic:train_elastic(checkpoint_interval)": "the "
        "training-loop differential drives every recovery path",
    "repro.core.elastic:train_elastic(ring)": "the training-loop "
        "differential drives every recovery path",
    "repro.core.elastic:train_elastic(replicate)": "the training-loop "
        "differential drives every recovery path",
    "repro.core.elastic:train_elastic(grow_step)": "the training-loop "
        "differential drives every recovery path",
    "repro.core.elastic:train_elastic(max_recoveries)": "the "
        "training-loop differential exhausts the recovery budget",
    "repro.nn.training:train_with_recovery(max_restarts)": "the "
        "training-loop differential exhausts the restart budget",
    "repro.simulate.failures:simulate_run(read_time)": "the replay is "
        "proved == the old loop with a read time unlike the write time",
    "repro.simulate.failures:FailureModel(fs_bandwidth)": "tests check "
        "that the filesystem caps checkpoint bandwidth",
    "repro.core.degenerate:make_degenerate_grid(placement)": "tests "
        "check that HSDP shards over one node",
    "repro.nn.optim:AdamW.__init__(weight_decay)": "the fused update is "
        "proved bitwise == the old formula with decay on",
    "repro.perfmodel.model:model_comm_time(include_head)": "the staged "
        "sweep's oracle is proved with and without the LM head",
    "repro.pipeline.schedule:simulate_pipeline_iteration(virtual_stages)":
        "tests check the interleaved schedule's bubble and p2p volume",
    "repro.autotune.api:SearchSpace(max_gz)": "tests check that the "
        "ranking and the sweep both respect the bound",
}


def _covers(entry: str, key: str) -> bool:
    return key == entry or key.startswith((entry + ":", entry + ".", entry + "("))


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


def _name(node: ast.expr) -> str | None:
    """``f`` of ``f`` or ``x.f``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _decorators(node) -> set[str | None]:
    return {_name(d.func if isinstance(d, ast.Call) else d)
            for d in node.decorator_list}


@dataclass(eq=False)
class _Def:
    key: str  # module:qualname
    name: str
    parent: _Def | None  # the class of a member
    refs: set[str]
    lines: int
    node: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef


@dataclass(eq=False)
class _Option:
    key: str  # module:qualname(param)
    param: str
    index: int | None  # its position among a call's arguments
    default: ast.expr


class Graph:
    """Definitions of ``modules``, root names, import aliases, and the
    code whose calls set options (``modules`` and ``callers``)."""

    def __init__(self, modules: dict[str, ast.Module],
                 callers: list[ast.Module], roots=(), tool_mains=()) -> None:
        self.defs: list[_Def] = []
        self.roots: set[str] = set(roots)
        self.aliases: dict[str, set[str]] = {}
        #: class name -> base names, for classes that inherit ``__init__``
        self.inherits: dict[str, set[str]] = {}
        #: ``replace`` and the functions that pass their ``**kw`` to it
        self.replacers: set[str] = {"replace"}
        self.tool_mains: set[str] = set(tool_mains)
        self.code = [*modules.values(), *callers]
        for module, tree in modules.items():
            self._add_module(module, tree)
        for tree in callers:
            self._add_aliases(tree)
            self.roots |= _references([tree])
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    self.roots |= {a.name.split(".")[-1] for a in node.names}

    def _add_aliases(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for a in node.names:
                    if a.asname:
                        self.aliases.setdefault(a.asname, set()).add(
                            a.name.split(".")[-1])

    def _add_module(self, module: str, tree: ast.Module) -> None:
        self._add_aliases(tree)
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
            d = _Def(key, node.name, parent, refs, lines, node)
            self.defs.append(d)
            if "__init__" not in {m.name for m in members}:
                self.inherits[node.name] = {_name(b) for b in node.bases} - {None}
            for m in members:
                self._add_def(key, m, d)
        else:
            self.defs.append(
                _Def(key, node.name, parent, _references([node]), lines, node))
            if _forwards_to_replace(node):
                self.replacers.add(node.name)

    def reached(self, kept=()) -> set[str]:
        """Keys of the definitions a root reaches; ``kept`` entries count
        as roots."""
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
        return reached

    def unreached(self, kept=()) -> list[_Def]:
        """Definitions no root reaches; ``kept`` entries count as roots."""
        reached = self.reached(kept)
        return [d for d in self.defs if d.key not in reached]

    def resolve(self, name: str) -> set[str]:
        """``name``, what it aliases, and the classes whose ``__init__``
        a call of it runs."""
        out: set[str] = set()
        pending = [name]
        while pending:
            n = pending.pop()
            if n not in out:
                out.add(n)
                pending += self.aliases.get(n, ())
                pending += self.inherits.get(n, ())
        return out

    def options(self, kept=()) -> tuple[dict[str, list[_Option]],
                                        dict[str, list[_Option]]]:
        """Options of reached public definitions that ``kept`` does not
        cover: by the name a call uses, and frozen fields by field name."""
        reached = self.reached(kept)
        by_callee: dict[str, list[_Option]] = defaultdict(list)
        by_field: dict[str, list[_Option]] = defaultdict(list)
        for d in self.defs:
            if (d.key not in reached or not _is_public(d.key)
                    or any(_covers(e, d.key) for e in kept)):
                continue
            if isinstance(d.node, ast.ClassDef):
                for o in _field_options(d):
                    by_callee[d.name].append(o)
                    by_field[o.param].append(o)
            elif d.name == "__init__":
                opts = _param_options(d)
                by_callee[d.parent.name] += opts
                by_callee["__init__"] += opts  # super().__init__(...)
            else:
                by_callee[d.name] += _param_options(d)
        return by_callee, by_field


def _is_public(key: str) -> bool:
    *outer, leaf = key.split(":", 1)[1].split(".")
    return (not any(p.startswith("_") for p in outer)
            and (leaf == "__init__" or not leaf.startswith("_")))


def _param_options(d: _Def) -> list[_Option]:
    decorators = _decorators(d.node)
    if decorators & {"property", "setter"}:
        return []
    a = d.node.args
    positional = a.posonlyargs + a.args
    bound = d.parent is not None and "staticmethod" not in decorators
    first = len(positional) - len(a.defaults)
    pairs = [(arg, i - bound, default) for i, (arg, default) in enumerate(
        zip(positional[first:], a.defaults), first)]
    pairs += [(arg, None, default)
              for arg, default in zip(a.kwonlyargs, a.kw_defaults)
              if default is not None]
    return [_Option(f"{d.key}({arg.arg})", arg.arg, index, default)
            for arg, index, default in pairs if arg.arg not in SEAMS]


def _forwards_to_replace(node) -> bool:
    """Does ``node`` pass its own ``**kw`` to a ``replace()`` call?"""
    kw = node.args.kwarg
    return kw is not None and any(
        isinstance(c, ast.Call) and _name(c.func) == "replace"
        and any(k.arg is None and getattr(k.value, "id", None) == kw.arg
                for k in c.keywords)
        for c in ast.walk(node))


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(dec, ast.Call) and _name(dec.func) == "dataclass"
        and any(k.arg == "frozen" and getattr(k.value, "value", None) is True
                for k in dec.keywords)
        for dec in node.decorator_list)


def _field_options(d: _Def) -> list[_Option]:
    """Defaulted ``__init__`` fields of a frozen dataclass, in order."""
    if not _is_frozen_dataclass(d.node):
        return []
    fields = []
    for stmt in d.node.body:
        if not (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and "ClassVar" not in ast.unparse(stmt.annotation)):
            continue
        default = stmt.value
        if isinstance(default, ast.Call) and _name(default.func) == "field":
            kw = {k.arg: k.value for k in default.keywords}
            if getattr(kw.get("init"), "value", True) is False:
                continue
            default = kw.get("default", kw.get("default_factory"))
        fields.append((stmt.target.id, default))
    return [_Option(f"{d.key}({name})", name, i, default)
            for i, (name, default) in enumerate(fields)
            if default is not None and not name.startswith("_")
            and name not in SEAMS]


def _same_literal(value: ast.expr, default: ast.expr) -> bool:
    try:
        ast.literal_eval(default)
    except ValueError:
        return False
    return ast.dump(value) == ast.dump(default)


class _CallSites(ast.NodeVisitor):
    """Collects the keys of the options that the visited code sets."""

    def __init__(self, graph: Graph, by_callee, by_field) -> None:
        self.graph = graph
        self.by_callee = by_callee
        self.by_field = by_field
        self.set: set[str] = set()
        self.values: set[str] = set()  # names that appear as values
        self.classes: list[str] = []

    def _options(self, names) -> list[_Option]:
        return [o for n in names for m in self.graph.resolve(n)
                for o in self.by_callee.get(m, ())]

    def finish(self) -> set[str]:
        self.set |= {o.key for o in self._options(self.values)}
        return self.set

    # Annotations, base classes, exception types and ``isinstance``
    # classes are not values: naming a class there calls nothing.
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.classes.append(node.name)
        for stmt in node.decorator_list + node.body:
            self.visit(stmt)
        self.classes.pop()

    def visit_FunctionDef(self, node) -> None:
        a = node.args
        for expr in node.decorator_list + a.defaults + a.kw_defaults:
            if expr is not None:
                self.visit(expr)
        for stmt in node.body:
            self.visit(stmt)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        for stmt in node.body:
            self.visit(stmt)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.values.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self.values.add(node.attr)
        self._visit_base(node.value)

    def _visit_base(self, node: ast.expr) -> None:
        """``x`` of ``x.attr`` is looked into, not passed on."""
        if isinstance(node, ast.Attribute):
            self._visit_base(node.value)
        elif not isinstance(node, ast.Name):
            self.visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func, shift = node.func, 0
        if isinstance(func, ast.Name):
            if func.id in ("isinstance", "issubclass"):
                self.visit(node.args[0])
                return
            in_class = func.id == "cls" and self.classes
            names = {self.classes[-1] if in_class else func.id}
        elif isinstance(func, ast.Attribute):
            names = {func.attr}
            if func.attr == "__init__" and not isinstance(func.value, ast.Call):
                shift = 1  # Base.__init__(self, ...)
            self._visit_base(func.value)
        else:
            names = set()
            self.visit(func)
        options = self._options(names)
        if (any(isinstance(a, ast.Starred) for a in node.args)
                or any(k.arg is None for k in node.keywords)):
            self.set |= {o.key for o in options}
        positions = range(-shift, len(node.args) - shift)
        self.set |= {o.key for o in options if o.index in positions}
        if any(self.graph.resolve(n) & self.graph.replacers for n in names):
            options = options + [o for k in node.keywords
                                 for o in self.by_field.get(k.arg, ())]
        for k in node.keywords:
            self.set |= {o.key for o in options if o.param == k.arg
                         and not _same_literal(k.value, o.default)}
        for a in node.args:
            if isinstance(a, ast.Constant) and isinstance(a.value, str):
                if a.value.isidentifier():  # getattr(obj, "name") dispatch
                    self.values.add(a.value)
            else:
                self.visit(a)
        for k in node.keywords:
            self.visit(k.value)


def census(graph: Graph, kept=()) -> list[str]:
    """Keys of the options no caller sets; ``kept`` as for the walk."""
    by_callee, by_field = graph.options(kept)
    sites = _CallSites(graph, by_callee, by_field)
    for tree in graph.code:
        sites.visit(tree)
    options = {o.key for opts in by_callee.values() for o in opts}
    return sorted(options - sites.finish())


_HEREDOC = re.compile(r"python3? - <<\s*'?(\w+)'?\s*$")


def _ci_scripts(workflow: str) -> list[str]:
    """The bodies of the ``python - <<'EOF'`` heredocs in a workflow."""
    scripts = []
    lines = iter(workflow.splitlines())
    for line in lines:
        m = _HEREDOC.search(line)
        if m:
            body = itertools.takewhile(lambda s: s.strip() != m.group(1), lines)
            scripts.append(textwrap.dedent("\n".join(body)))
    return scripts


def _entry_points(modules: dict[str, ast.Module]):
    """``repro.__all__`` and the tools subcommands' ``main`` keys."""
    roots: set[str] = set()
    mains: set[str] = set()
    for stmt in modules["repro"].body:
        if _is_all_assignment(stmt):
            roots |= set(ast.literal_eval(stmt.value))
    for stmt in modules["repro.tools"].body:
        if (isinstance(stmt, ast.Assign)
                and getattr(stmt.targets[0], "id", None) == "SUBCOMMANDS"):
            modules_run = {m for m, _ in ast.literal_eval(stmt.value).values()}
            mains = {f"repro.tools.{m}:main" for m in modules_run}
    return roots, mains


@lru_cache(maxsize=None)
def _graph() -> Graph:
    modules = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC.parent).with_suffix("")
        module = ".".join(rel.parts).removesuffix(".__init__")
        modules[module] = ast.parse(path.read_text())
    callers = [ast.parse(path.read_text()) for d in CALLER_DIRS
               for path in sorted((ROOT / d).rglob("*.py"))]
    callers += [ast.parse(s) for s in _ci_scripts(CI_WORKFLOW.read_text())]
    return Graph(modules, callers, *_entry_points(modules))


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


@lru_cache(maxsize=None)
def _census() -> tuple[str, ...]:
    return tuple(census(_graph(), kept=ALLOWLIST))


def test_every_option_is_set_outside_tests_or_allowlisted():
    unset = [k for k in _census()
             if not any(_covers(e, k) for e in OPTION_ALLOWLIST)]
    assert not unset, "options no caller outside tests/ sets (delete, " \
        "or allowlist with a reason): " + ", ".join(unset)


def test_option_allowlist_has_no_stale_entries():
    stale = [e for e in OPTION_ALLOWLIST
             if not any(_covers(e, k) for k in _census())]
    assert not stale, "option allowlisted but set or gone: " + ", ".join(stale)
    assert all(OPTION_ALLOWLIST.values()), "every entry needs a reason"


_LIB = """
from dataclasses import dataclass, replace

def f(a, b=1, *, c=None):
    pass

class K:
    def __init__(self, n=0):
        pass

    def g(self, x=0):
        pass

class Sub(K):
    pass

class Built:
    def __init__(self, n=0):
        pass

    @classmethod
    def make(cls):
        return cls(n=1)

@dataclass(frozen=True)
class C:
    a: int
    b: int = 0

    def but(self, **changes):
        return replace(self, **changes)

@dataclass
class Mutable:
    b: int = 0
"""
_UNSET = ["m:C(b)", "m:K.__init__(n)", "m:f(b)", "m:f(c)"]


def _without(*keys: str) -> list[str]:
    return [k for k in _UNSET if k not in keys]


@pytest.mark.parametrize("caller, unset", [
    ("Mutable(b=1)", _UNSET),  # a mutable dataclass's fields are no options
    # a keyword sets its parameter, unless it repeats the default literal
    ("f(0, b=2)", _without("m:f(b)")),
    ("f(0, b=1, c=None)", _UNSET),
    # positional argument i sets parameter i; a method's skips self
    ("f(0, 2)", _without("m:f(b)")),
    ("K().g(1)", _UNSET),
    ("K().g()", sorted(_UNSET + ["m:K.g(x)"])),
    ("K.__init__(k, 1)", _without("m:K.__init__(n)")),
    ("K.__init__(k)", _UNSET),
    # an alias calls what it aliases; a subclass runs the base __init__
    ("from m import f as h\nh(0, c=3)", _without("m:f(c)")),
    ("Sub(2)", _without("m:K.__init__(n)")),
    # a callee used as a value, or called with *args / **kw: all set
    ("fns = [f]", _without("m:f(b)", "m:f(c)")),
    ("use(f)", _without("m:f(b)", "m:f(c)")),
    ("getattr(m, 'f')", _without("m:f(b)", "m:f(c)")),
    ("f(*args)", _without("m:f(b)", "m:f(c)")),
    ("f(0, **kw)", _without("m:f(b)", "m:f(c)")),
    ("isinstance(k, K)", _UNSET),  # naming a class there calls nothing
    ("name = K.__name__", _UNSET),  # nor does looking into it
    # a frozen field is set by construction and by replace()
    ("C(1)", _UNSET),
    ("C(1, 2)", _without("m:C(b)")),
    ("C(1, b=2)", _without("m:C(b)")),
    ("from dataclasses import replace\nreplace(c, b=3)", _without("m:C(b)")),
    ("C(1).but(b=3)", _without("m:C(b)")),
])
def test_census_rule(caller, unset):
    """One matching rule per case; each fails if its rule is removed.
    ``Built.make`` sets ``Built(n)`` through ``cls(...)`` in every case."""
    graph = Graph({"m": ast.parse(_LIB)}, [ast.parse(
        "from m import Built, C, K, Mutable, Sub, f\n" + caller)])
    assert census(graph) == unset


def test_ci_scripts_are_callers():
    workflow = textwrap.dedent("""\
        steps:
          - run: |
              python - <<'EOF'
              from m import f
              f(0, b=2)
              EOF
              echo done
        """)
    assert _ci_scripts(workflow) == ["from m import f\nf(0, b=2)"]
    assert len(_ci_scripts(CI_WORKFLOW.read_text())) >= 1


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
