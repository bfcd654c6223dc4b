"""repro — reproduction of "Democratizing AI: Open-source Scalable LLM
Training on GPU-based Supercomputers" (SC '24).

The package rebuilds the paper's system, AxoNN, in pure Python:

* :mod:`repro.core` — the 4D hybrid parallel algorithm (Algorithm 1's
  3D parallel matrix multiply x data parallelism), functionally verified
  against serial training on a virtual SPMD runtime;
* :mod:`repro.perfmodel` — the communication performance model
  (Eqs. 1-7) that ranks 4D grid configurations;
* :mod:`repro.kernels` — platform GEMM models, the NN/NT/TN autotuner,
  and analytical FLOP accounting;
* :mod:`repro.simulate` — the discrete-event performance simulator that
  stands in for Perlmutter, Frontier, and Alps;
* :mod:`repro.autotune` — the end-to-end job autotuner: analytic
  pruning of the 4D grid space (Eqs. 1-7) followed by simulation-backed
  validation of the (overlap x kernel tuning x collective algorithm)
  knob space, behind one :class:`~repro.autotune.PlanRequest` /
  :class:`~repro.autotune.SearchSpace` API;
* :mod:`repro.memorization` — the catastrophic-memorization study and
  the Goldfish loss;
* :mod:`repro.serving` — the continuous-batching serving runtime with a
  paged KV cache and tensor-parallel decode, mirrored analytically by
  :mod:`repro.simulate.serving`;
* :mod:`repro.telemetry` — span tracing, a metrics registry, and
  Chrome-trace / ``BENCH_*.json`` exporters shared by the runtime and
  the simulator;
* :mod:`repro.cluster`, :mod:`repro.runtime`, :mod:`repro.tensor`,
  :mod:`repro.nn` — the substrates (machines/network, virtual ring
  collectives, autograd engine, GPT reference model).

This module is the blessed public surface: everything in ``__all__``
below is a supported entry point.  Quick start::

    import numpy as np
    from repro import axonn_init
    from repro.config import GPTConfig
    cfg = GPTConfig(name="demo", num_layers=2, hidden_size=64,
                    num_heads=8, seq_len=16, vocab_size=64)
    ctx = axonn_init(gx=2, gy=1, gz=8, machine="frontier",
                     collective_algo="auto")
    model = ctx.parallelize(cfg)            # 4D-parallel GPT
    ids = np.random.default_rng(0).integers(0, 64, (8, 16))
    with ctx.grid.collective_scope():       # two-level where it pays
        model.loss(ids).backward()
"""

from .autotune import (
    AutotuneReport,
    NoFeasibleConfigError,
    PlanRequest,
    SearchSpace,
    TunedJobConfig,
    autotune,
)
from .config import (
    DEFAULT_SEQ_LEN,
    DEFAULT_VOCAB_SIZE,
    MODEL_ZOO,
    GPTConfig,
    get_model,
)
from .core import (
    AxoNN,
    ElasticReport,
    Grid4D,
    GridConfig,
    ParallelGPT,
    axonn_init,
    enumerate_grid_configs,
    train_elastic,
)
from .nn import (
    MixedPrecisionTrainer,
    RecoveryReport,
    TrainingReport,
    train_with_recovery,
)
from .perfmodel import AlgorithmChoice, choose_algorithm
from .runtime import collective_policy_scope
from .serving import (
    BatchingConfig,
    PagedKVCache,
    RejectedRequest,
    Request,
    ResilienceReport,
    ResilientTPEngine,
    ServingEngine,
    TensorParallelDecoder,
    poisson_trace,
)
from .telemetry import (
    MetricsRegistry,
    Tracer,
    chrome_trace,
    get_tracer,
    set_tracer,
    telemetry_scope,
    traced,
    write_bench_json,
    write_chrome_trace,
)

__version__ = "1.0.0"

__all__ = [
    # model configuration
    "GPTConfig",
    "MODEL_ZOO",
    "get_model",
    "DEFAULT_SEQ_LEN",
    "DEFAULT_VOCAB_SIZE",
    # 4D-parallel entry points
    "AxoNN",
    "axonn_init",
    "Grid4D",
    "GridConfig",
    "enumerate_grid_configs",
    "ParallelGPT",
    # collective algorithm selection
    "AlgorithmChoice",
    "choose_algorithm",
    "collective_policy_scope",
    # unified planning / autotuning API
    "autotune",
    "PlanRequest",
    "SearchSpace",
    "TunedJobConfig",
    "AutotuneReport",
    "NoFeasibleConfigError",
    # training loops and their reports
    "MixedPrecisionTrainer",
    "TrainingReport",
    "RecoveryReport",
    "train_with_recovery",
    "ElasticReport",
    "train_elastic",
    # serving runtime
    "Request",
    "poisson_trace",
    "BatchingConfig",
    "PagedKVCache",
    "RejectedRequest",
    "ServingEngine",
    "TensorParallelDecoder",
    "ResilientTPEngine",
    "ResilienceReport",
    # telemetry
    "Tracer",
    "get_tracer",
    "set_tracer",
    "telemetry_scope",
    "traced",
    "MetricsRegistry",
    "chrome_trace",
    "write_chrome_trace",
    "write_bench_json",
    "__version__",
]
