"""Package-integrity tests: the public API surface is importable, every
``__all__`` entry resolves, and the facade wires together."""

import importlib
import textwrap
from pathlib import Path

import numpy as np
import pytest

PACKAGES = [
    "repro",
    "repro.config",
    "repro.cluster",
    "repro.runtime",
    "repro.tensor",
    "repro.nn",
    "repro.core",
    "repro.perfmodel",
    "repro.kernels",
    "repro.simulate",
    "repro.pipeline",
    "repro.moe",
    "repro.memorization",
    "repro.telemetry",
    "repro.tools",
    "repro.tools.plan",
    "repro.tools.memory_report",
    "repro.tools.trace_view",
    "repro.tools.reproduce",
    "repro.tools.profile_run",
    "repro.tools.goodput_report",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    for sym in exported:
        assert hasattr(mod, sym), f"{name}.__all__ lists missing {sym!r}"
        assert getattr(mod, sym) is not None


def test_version():
    import repro

    assert repro.__version__ == "1.0.0"


def test_facade_end_to_end():
    """The README quickstart, condensed: init, parallelize, train, match."""
    from repro import axonn_init
    from repro.config import GPTConfig
    from repro.core import ParallelGPT
    from repro.nn import GPT

    cfg = GPTConfig(
        name="api", num_layers=1, hidden_size=16, num_heads=4,
        seq_len=8, vocab_size=32,
    )
    ctx = axonn_init(gx=2, gy=1, gz=1, gdata=1)
    serial = GPT(cfg, seed=0)
    par = ParallelGPT.from_serial(serial, ctx.grid)
    ids = np.random.default_rng(0).integers(0, 32, (2, 6))
    assert par.loss(ids).item() == pytest.approx(
        serial.loss(ids).item(), rel=1e-10
    )
    # The context's tracer observed the tensor-parallel collectives.
    assert any(r.tag == "linear.AR_x" for r in ctx.tracer.records)


def test_facade_trace_toggle():
    from repro import axonn_init

    ctx = axonn_init(1, 1, 2, 1, trace=False)
    assert not ctx.tracer.enabled


def test_every_docstringed_module():
    """Every package/module ships a docstring (the documentation bar)."""
    for name in PACKAGES:
        mod = importlib.import_module(name)
        assert mod.__doc__ and mod.__doc__.strip(), f"{name} lacks a docstring"


class TestFacade:
    def test_star_import_matches_all(self):
        import repro

        ns = {}
        exec("from repro import *", ns)
        missing = [n for n in repro.__all__ if n not in ns]
        assert not missing, f"star-import missing {missing}"

    def test_blessed_entry_points_are_the_canonical_objects(self):
        import repro
        import repro.core
        import repro.nn.training as training
        import repro.telemetry as telemetry

        assert repro.train_with_recovery is training.train_with_recovery
        assert repro.train_elastic is repro.core.train_elastic
        assert repro.TrainingReport is training.TrainingReport
        assert repro.Tracer is telemetry.Tracer
        assert repro.telemetry_scope is telemetry.telemetry_scope

    def test_subpackages_declare_all(self):
        for name in PACKAGES:
            mod = importlib.import_module(name)
            assert getattr(mod, "__all__", None), f"{name} lacks __all__"


class TestDeprecationShims:
    """The shims are deleted: old spellings fail like any unknown name."""

    @pytest.mark.parametrize("module", ["repro", "repro.core"])
    def test_old_init_is_gone(self, module):
        mod = importlib.import_module(module)
        with pytest.raises(AttributeError):
            mod.init
        assert callable(mod.axonn_init)
        assert "__getattr__" not in vars(mod)

    def test_old_name_not_in_all(self):
        import repro
        import repro.core

        assert "init" not in repro.__all__
        assert "init" not in repro.core.__all__

    @pytest.mark.parametrize("module", ["repro", "repro.core"])
    def test_unknown_attribute_still_raises(self, module):
        mod = importlib.import_module(module)
        with pytest.raises(AttributeError):
            mod.definitely_not_a_symbol


class TestOneTimingEngine:
    """No planner or simulator entry point has an ``engine`` knob."""

    def test_no_engine_parameter_or_field(self):
        import dataclasses
        import inspect

        offenders = []
        for pkg in ("repro.simulate", "repro.autotune", "repro.perfmodel",
                    "repro.kernels"):
            mod = importlib.import_module(pkg)
            for name in mod.__all__:
                obj = getattr(mod, name)
                if dataclasses.is_dataclass(obj):
                    names = [f.name for f in dataclasses.fields(obj)]
                elif callable(obj):
                    try:
                        names = list(inspect.signature(obj).parameters)
                    except (TypeError, ValueError):
                        continue
                else:
                    continue
                if "engine" in names:
                    offenders.append(f"{pkg}.{name}")
        assert not offenders
        assert not hasattr(importlib.import_module("repro.simulate"), "ENGINES")

    def test_facade_stays_small(self):
        import repro

        assert len(repro.__all__) <= 45


class TestSignatureContracts:
    def test_train_with_recovery_tuning_params_keyword_only(self):
        from repro import train_with_recovery

        with pytest.raises(TypeError):
            train_with_recovery(lambda: None, [], "x.npz", 1)

    def test_train_elastic_tuning_params_keyword_only(self):
        from repro import train_elastic
        from repro.core import GridConfig

        with pytest.raises(TypeError):
            train_elastic(lambda c: None, GridConfig(1, 1, 1), [], None)

    def test_checkpoint_save_flags_keyword_only(self):
        import inspect

        from repro.core import save_checkpoint, save_training_state

        for fn in (save_checkpoint, save_training_state):
            params = inspect.signature(fn).parameters
            assert params["injector"].kind is inspect.Parameter.KEYWORD_ONLY

    def test_reports_share_base_and_to_json(self):
        from repro import ElasticReport, RecoveryReport, TrainingReport

        assert issubclass(RecoveryReport, TrainingReport)
        assert issubclass(ElasticReport, TrainingReport)
        rep = RecoveryReport(losses=[1.0, 0.5], restarts=2)
        doc = rep.to_json()
        assert doc["steps"] == 2
        assert doc["restarts"] == 2
        import json

        json.dumps(doc)  # round-trips through JSON


README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks(heading: str) -> list[str]:
    """The ```python blocks of the README section under ``heading``."""
    lines = README.read_text().splitlines()
    start = next(i for i, ln in enumerate(lines)
                 if ln.lstrip("#").strip() == heading and ln.startswith("#"))
    level = len(lines[start]) - len(lines[start].lstrip("#"))
    blocks, block = [], None
    for ln in lines[start + 1:]:
        if block is None:
            if ln.startswith("#") and \
                    len(ln) - len(ln.lstrip("#")) <= level:
                break  # the next section at the same or a higher level
            if ln.strip() == "```python":
                block = []
        elif ln.strip() == "```":
            blocks.append("\n".join(block) + "\n")
            block = None
        else:
            block.append(ln)
    return blocks


class TestDocSnippetsRun:
    """The README and package-docstring snippets run as written."""

    @pytest.mark.parametrize(
        "heading", ["Quickstart", "Two-level hierarchical collectives"])
    def test_readme_section(self, heading):
        blocks = _python_blocks(heading)
        assert blocks
        for code in blocks:
            exec(compile(code, f"README.md: {heading}", "exec"), {})

    def test_package_docstring_quick_start(self):
        import repro

        doc = repro.__doc__
        body = doc[doc.index("Quick start::") + len("Quick start::"):]
        code = textwrap.dedent(body.strip("\n"))
        exec(compile(code, "repro.__doc__", "exec"), {})
