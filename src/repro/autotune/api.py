"""Request/space types of the unified planning API.

Every planner entry point — :func:`repro.autotune.autotune`,
:func:`repro.simulate.best_configuration`, :func:`repro.simulate.run_point`,
:func:`repro.perfmodel.rank_configurations`, and the ``plan`` CLI — consumes
one :class:`PlanRequest` ("what job am I planning?") optionally paired with
one :class:`SearchSpace` ("which knobs may the tuner move?").  The pair
replaces the overlapping-but-inconsistent parameter bundles the entry
points grew separately (``overlap``, ``kernel_tuning``, ``db``, ``top_k``,
collective algorithm, jitter seed).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..cluster import MachineSpec, get_machine
from ..config import GPTConfig, get_model

# OverlapFlags lives in repro.simulate.executor; importing it here pulls in
# the simulate package, which never imports repro.autotune at module level
# (scaling.py defers its imports into the functions that need them).
from ..simulate.executor import OverlapFlags

if TYPE_CHECKING:  # pragma: no cover
    from ..core.grid import GridConfig
    from ..perfmodel.bandwidth import BandwidthDatabase
    from ..simulate.executor import IterationResult

__all__ = [
    "PlanRequest",
    "SearchSpace",
    "TunedJobConfig",
    "CandidateReport",
    "AutotuneReport",
    "NoFeasibleConfigError",
    "ALL_OVERLAP_COMBOS",
]

#: Every subset of the Section V-D overlap optimizations, in a fixed
#: enumeration order (none first, all last) so tie-breaks are stable.
ALL_OVERLAP_COMBOS: tuple[OverlapFlags, ...] = tuple(
    OverlapFlags(oar=oar, ors=ors, oag=oag)
    for oar in (False, True)
    for ors in (False, True)
    for oag in (False, True)
)


class NoFeasibleConfigError(ValueError):
    """No grid configuration can legally run the requested job.

    Raised uniformly by the planning library (``best_configuration``,
    ``run_point``, ``autotune``) and rendered uniformly by the CLIs.
    ``reasons`` maps each rejected candidate grid (as a string) to why it
    was pruned — divisibility violations or the memory-model verdict.
    Subclasses :class:`ValueError` so pre-PR-9 callers that caught the
    bare ``ValueError`` keep working.
    """

    def __init__(self, message: str, reasons: dict[str, str] | None = None):
        super().__init__(message)
        self.reasons: dict[str, str] = dict(reasons or {})

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = super().__str__()
        if not self.reasons:
            return base
        shown = list(self.reasons.items())[:5]
        lines = [base] + [f"  {cfg}: {why}" for cfg, why in shown]
        if len(self.reasons) > len(shown):
            lines.append(f"  ... and {len(self.reasons) - len(shown)} more")
        return "\n".join(lines)


@dataclass(frozen=True)
class PlanRequest:
    """One job-planning question: (model, machine, GPU count, batch) plus
    the keyword-only tuning knobs every planner shares.

    ``model`` and ``machine`` accept either resolved objects or registry
    names (``"GPT-20B"``, ``"frontier"``); ``global_batch=None`` means the
    paper's default batch schedule
    (:func:`repro.simulate.default_global_batch`).  ``collective_algo=None``
    keeps each candidate grid's own default (flat), matching the pre-PR-9
    ``best_configuration`` behaviour; ``seed`` salts the simulator's
    deterministic run-to-run jitter (``run_salt``).
    """

    model: GPTConfig | str
    num_gpus: int
    machine: MachineSpec | str
    global_batch: int | None = None
    # -- tuning knobs (keyword-only in every consumer) --------------------
    top_k: int = 10
    overlap: OverlapFlags | None = None
    kernel_tuning: bool = True
    collective_algo: str | None = None
    seed: int = 0
    db: "BandwidthDatabase | None" = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise ValueError(f"num_gpus must be >= 1, got {self.num_gpus}")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if self.collective_algo not in (None, "flat", "hierarchical", "auto"):
            raise ValueError(
                "collective_algo must be None, 'flat', 'hierarchical' or "
                f"'auto', got {self.collective_algo!r}"
            )

    # -- resolution helpers ------------------------------------------------

    def resolved_model(self) -> GPTConfig:
        return get_model(self.model) if isinstance(self.model, str) else self.model

    def resolved_machine(self) -> MachineSpec:
        return (
            get_machine(self.machine)
            if isinstance(self.machine, str)
            else self.machine
        )

    def resolved_batch(self) -> int:
        if self.global_batch is not None:
            return self.global_batch
        from ..simulate.scaling import default_global_batch

        return default_global_batch(self.num_gpus)

    def resolved_overlap(self) -> OverlapFlags:
        return self.overlap if self.overlap is not None else OverlapFlags.all()

    def resolved_db(self) -> "BandwidthDatabase":
        if self.db is not None:
            return self.db
        from ..perfmodel.bandwidth import BandwidthDatabase

        return BandwidthDatabase.profile(self.resolved_machine())

    def replace(self, **changes: Any) -> "PlanRequest":
        """A copy with the given fields changed (``dataclasses.replace``)."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class SearchSpace:
    """Which knobs the autotuner may move, and how hard it prunes.

    The default space is the paper's §VI hand-tuning methodology made
    exhaustive: every feasible 4D grid shape, analytically ranked and cut
    to ``prune_k``; the ``validate_k`` best-screened survivors then sweep
    every (overlap subset x kernel-tuning on/off x flat/hierarchical/auto
    collective routing) combination under ``timing_only`` simulation.
    ``validate_k=None`` defers to the request's ``top_k``.

    :meth:`pinned` builds the degenerate space that reproduces the PR 6
    ``best_configuration`` procedure exactly: the request's top-k analytic
    candidates, simulated once each under the request's own knobs.
    """

    prune_k: int = 24
    validate_k: int | None = None
    overlap_flags: tuple[OverlapFlags, ...] = ALL_OVERLAP_COMBOS
    kernel_tuning: tuple[bool, ...] = (True, False)
    collective_algos: tuple[str | None, ...] = ("flat", "hierarchical", "auto")
    max_gz: int | None = None
    #: Largest sequence-parallel degree the enumerator may try.  ``None``
    #: (the default) keeps the classic 4D space (``G_seq = 1`` only);
    #: set e.g. ``max_gs=8`` to let the tuner trade ring-attention KV
    #: rotation against activation memory and smaller per-rank GEMMs.
    max_gs: int | None = None

    def __post_init__(self) -> None:
        if self.prune_k < 1:
            raise ValueError(f"prune_k must be >= 1, got {self.prune_k}")
        if self.max_gs is not None and self.max_gs < 1:
            raise ValueError(f"max_gs must be >= 1, got {self.max_gs}")
        if not self.overlap_flags or not self.kernel_tuning or not self.collective_algos:
            raise ValueError("every knob dimension needs at least one value")
        for algo in self.collective_algos:
            if algo not in (None, "flat", "hierarchical", "auto"):
                raise ValueError(f"bad collective algo {algo!r}")

    @classmethod
    def pinned(cls, request: PlanRequest) -> "SearchSpace":
        """The single-combo space replicating ``best_configuration``."""
        return cls(
            prune_k=request.top_k,
            validate_k=request.top_k,
            overlap_flags=(request.resolved_overlap(),),
            kernel_tuning=(request.kernel_tuning,),
            collective_algos=(request.collective_algo,),
        )

    def resolved_validate_k(self, request: PlanRequest) -> int:
        return self.validate_k if self.validate_k is not None else request.top_k

    def reference_combo(
        self, request: PlanRequest
    ) -> tuple[OverlapFlags, bool, str | None]:
        """The screening-stage knob setting: the most optimistic member of
        each knob dimension (all overlaps, tuning on, auto routing) when
        present, else the dimension's first value."""
        overlap = (
            OverlapFlags.all()
            if OverlapFlags.all() in self.overlap_flags
            else self.overlap_flags[0]
        )
        kernel = True if True in self.kernel_tuning else self.kernel_tuning[0]
        algo = "auto" if "auto" in self.collective_algos else self.collective_algos[0]
        return (overlap, kernel, algo)

    def combos(self) -> list[tuple[OverlapFlags, bool, str | None]]:
        """Every knob combination, in deterministic enumeration order."""
        return [
            (ov, kt, algo)
            for algo in self.collective_algos
            for kt in self.kernel_tuning
            for ov in self.overlap_flags
        ]


def _overlap_dict(flags: OverlapFlags) -> dict[str, bool]:
    return {"oar": flags.oar, "ors": flags.ors, "oag": flags.oag}


@dataclass(frozen=True)
class TunedJobConfig:
    """The autotuner's answer: a complete, runnable job configuration.

    Everything a launcher needs — the 4D grid (with its collective
    routing policy baked into ``config.collective_algo``), the overlap
    switches, and whether BLAS kernel-mode tuning pays — plus the analytic
    and simulated times that justified the pick.
    """

    model: str
    machine: str
    num_gpus: int
    global_batch: int
    config: "GridConfig"
    overlap: OverlapFlags
    kernel_tuning: bool
    collective_algo: str | None
    predicted_comm_time: float
    simulated_time: float
    tuning_speedup: float = 1.0
    algo_choices: dict[str, str] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "model": self.model,
            "machine": self.machine,
            "num_gpus": self.num_gpus,
            "global_batch": self.global_batch,
            "grid": list(self.config.full_dims),
            "collective_algo": self.collective_algo or "flat",
            "overlap": _overlap_dict(self.overlap),
            "kernel_tuning": self.kernel_tuning,
            "predicted_comm_time_s": self.predicted_comm_time,
            "simulated_time_s": self.simulated_time,
            "tuning_speedup": self.tuning_speedup,
            "algo_choices": dict(self.algo_choices),
        }


@dataclass(frozen=True)
class CandidateReport:
    """One validated grid's outcome in the ranked report."""

    config: "GridConfig"
    analytic_rank: int
    predicted_comm_time: float
    screen_time: float
    best_time: float
    best_overlap: OverlapFlags
    best_kernel_tuning: bool
    best_collective_algo: str | None
    algo_choices: dict[str, str] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "grid": list(self.config.full_dims),
            "analytic_rank": self.analytic_rank,
            "predicted_comm_time_s": self.predicted_comm_time,
            "screen_time_s": self.screen_time,
            "best_time_s": self.best_time,
            "best_overlap": _overlap_dict(self.best_overlap),
            "best_kernel_tuning": self.best_kernel_tuning,
            "best_collective_algo": self.best_collective_algo or "flat",
            "algo_choices": dict(self.algo_choices),
        }


@dataclass
class AutotuneReport:
    """The full search outcome: winner plus the ranked evidence trail."""

    request: PlanRequest
    space: SearchSpace
    winner: TunedJobConfig
    winner_result: "IterationResult"
    #: Validated candidates, best simulated time first.
    ranked: list[CandidateReport]
    #: Analytic-rank-1 candidate's screened simulation time — the bar the
    #: winner must meet or beat (the CI gate).
    rank1_sim_time: float
    #: (grid, why) for every enumerated-but-infeasible configuration.
    infeasible: list[tuple["GridConfig", str]]
    num_enumerated: int = 0
    num_feasible: int = 0
    #: (grid, knob combination) results decided: one per screened grid,
    #: plus every other combination of each swept grid, whether walked or
    #: ruled out by the sweep's bound (494 on the default space).
    num_simulations: int = 0
    #: Runs of the simulator's price stage behind those results: at most
    #: one per (grid, kernel mode, collective algorithm) the search
    #: reaches.  Overlap subsets share a pricing, knobs the prices cannot
    #: see share one too, and a knob group the bound rules out before
    #: its price set is needed is never priced.
    num_pricings: int = 0
    #: Stream walks actually run (``schedule_iteration`` calls): at most
    #: one per overlap flags a price set's walk reads, and none for a
    #: knob group the bound rules out.
    num_walks: int = 0
    elapsed_s: float = 0.0
    #: Wall seconds of each search stage — ``enumerate``, ``rank``,
    #: ``screen``, ``sweep`` — a subset of ``elapsed_s``.
    stage_s: dict[str, float] = field(default_factory=dict)

    @property
    def configs_per_second(self) -> float:
        """Enumerated configurations triaged per wall-clock second."""
        if self.elapsed_s <= 0:
            return math.inf
        return self.num_enumerated / self.elapsed_s

    def to_json(self) -> dict[str, Any]:
        return {
            "model": self.winner.model,
            "machine": self.winner.machine,
            "num_gpus": self.winner.num_gpus,
            "global_batch": self.winner.global_batch,
            "winner": self.winner.to_json(),
            "ranked": [c.to_json() for c in self.ranked],
            "rank1_sim_time_s": self.rank1_sim_time,
            "num_enumerated": self.num_enumerated,
            "num_feasible": self.num_feasible,
            "num_infeasible": len(self.infeasible),
            "num_simulations": self.num_simulations,
            "num_pricings": self.num_pricings,
            "num_walks": self.num_walks,
            "elapsed_s": self.elapsed_s,
            "configs_per_second": self.configs_per_second,
            "stage_s": dict(self.stage_s),
        }
