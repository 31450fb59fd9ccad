"""XBioSiP reproduction: approximate bio-signal processing at the edge.

Python reproduction of "XBioSiP: A Methodology for Approximate Bio-Signal
Processing at the Edge" (Prabakaran, Rehman, Shafique — DAC 2019).

Subpackages
-----------
``repro.arithmetic``
    Bit-accurate approximate adders/multipliers (elementary cells, ripple-
    carry adders, recursive multipliers, compiled LUT engine).
``repro.energy``
    65 nm synthesis cost database and compositional hardware cost model,
    sensor-node and software-platform energy models.
``repro.dsp``
    The Pan-Tompkins QRS detection pipeline on a configurable (approximate)
    fixed-point datapath, plus a floating-point reference.
``repro.signals``
    Synthetic NSRDB-like ECG records with ground-truth annotations.
``repro.metrics``
    PSNR, 1-D SSIM, peak-detection accuracy and arithmetic error statistics.
``repro.core``
    The XBioSiP methodology: two-stage quality evaluation, error-resilience
    analysis, the three-phase design generation methodology and baselines.
``repro.runtime``
    The cached design-space exploration engine plus the
    ``python -m repro`` command-line interface.
``repro.service``
    The async job-orchestration service: a JSON/HTTP API (``python -m repro
    serve``) running the exploration workloads as concurrent, cancellable,
    content-addressed jobs with in-flight coalescing.

Quickstart
----------
>>> from repro import XBioSiP, load_record
>>> records = [load_record("16265", duration_s=10.0)]
>>> result = XBioSiP(records).run()
>>> result.final_design.summary()  # doctest: +SKIP

Cached exploration
------------------
Every exploration workload executes through an
:class:`~repro.runtime.ExplorationRuntime`, which evaluates designs one
after another through a shared, input-addressed stage graph, memoises
results in a content-addressed cache (in-memory, or SQLite, which persists
across runs and processes) and reports throughput / cache telemetry.

>>> from repro import ExplorationRuntime, XBioSiP, load_record
>>> from repro.runtime import SQLiteResultCache
>>> records = [load_record("16265", duration_s=10.0)]
>>> runtime = ExplorationRuntime(  # doctest: +SKIP
...     records, cache=SQLiteResultCache("xbiosip-cache.sqlite")
... )
>>> result = XBioSiP(records, runtime=runtime).run()  # doctest: +SKIP
>>> print(runtime.report())  # doctest: +SKIP

The same engine powers the command line::

    python -m repro explore --records 16265 --cache cache.sqlite
    python -m repro evaluate --config B9
    python -m repro resilience --stages lpf,hpf
    python -m repro serve --port 8377 --concurrency 4

See ``examples/cached_exploration.py`` for a complete walk-through with a
progress callback.
"""

from .core import (
    DesignEvaluation,
    DesignPoint,
    PAPER_CONFIGURATIONS,
    QualityConstraint,
    StageApproximation,
    XBioSiP,
    XBioSiPResult,
    analyze_stage_resilience,
    generate_design,
    paper_configuration,
    pareto_front,
)
from .arithmetic import ArithmeticBackend, accurate_backend
from .dsp import PanTompkinsPipeline, PanTompkinsResult
from .runtime import ExplorationRuntime
from .signals import load_record, load_records

__version__ = "1.1.0"

__all__ = [
    "ArithmeticBackend",
    "accurate_backend",
    "ExplorationRuntime",
    "DesignEvaluation",
    "DesignPoint",
    "PAPER_CONFIGURATIONS",
    "PanTompkinsPipeline",
    "PanTompkinsResult",
    "QualityConstraint",
    "StageApproximation",
    "XBioSiP",
    "XBioSiPResult",
    "analyze_stage_resilience",
    "generate_design",
    "load_record",
    "load_records",
    "paper_configuration",
    "pareto_front",
    "__version__",
]
