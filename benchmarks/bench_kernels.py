"""Kernel scaling sweep and allocation counts for the traced run.

The sweep times the CRF kernels on seeded random graphs at the node
counts the roadmap asks for, next to the bare LAPACK calls they are built
on, so ``assemble`` can be read against ``cho_factor`` and
``nll_backward`` against ``dpotri``.  The allocation pass records, with
``tracemalloc``, the peak bytes one call of each kernel allocates.
"""

from __future__ import annotations

import gc
import statistics
import tracemalloc
from time import perf_counter

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from ccrf import NodeGraph, build_model
from ccrf.crf import assemble, map_backward, map_infer, nll_backward
from ccrf.networks import pairwise_forward

SWEEP_SIZES = (100, 300, 700, 1500)
RATIO_SIZES = (700, 1500)
SCORE_COLUMNS = 8
FEATURE_DIM = 10  # ``compute_pixel_features`` width for RGB scenes
KERNELS = (
    "networks.pairwise_forward",
    "crf.assemble",
    "crf.map_backward",
    "crf.nll_backward",
    "ref.cho_factor",
    "ref.potri",
)
ALLOC_KERNELS = KERNELS[:4]


def _calls(n: int, seed: int) -> dict:
    """One zero-argument closure per kernel, all on the same random inputs."""
    rng = np.random.default_rng([seed, n])
    graph = NodeGraph(n, rng.standard_normal((n, FEATURE_DIM)), rng.uniform(0.0, 1.0, (n, 2)))
    model = build_model(rng, FEATURE_DIM, SCORE_COLUMNS, (32,), (32,), 16)
    affinity, _ = pairwise_forward(model.pairwise, graph)
    system = assemble(affinity)
    scores = rng.standard_normal((n, SCORE_COLUMNS))
    targets = rng.standard_normal((n, SCORE_COLUMNS))
    labelling = map_infer(system, scores)
    dlabelling = rng.standard_normal((n, SCORE_COLUMNS))
    factor = scipy.linalg.cho_factor(system.a0, lower=True)
    return {
        "networks.pairwise_forward": lambda: pairwise_forward(model.pairwise, graph),
        "crf.assemble": lambda: assemble(affinity),
        "crf.map_backward": lambda: map_backward(system, labelling, dlabelling),
        "crf.nll_backward": lambda: nll_backward(system, scores, targets),
        "ref.cho_factor": lambda: scipy.linalg.cho_factor(system.a0, lower=True),
        "ref.potri": lambda: scipy.linalg.lapack.dpotri(factor[0], lower=1),
    }


def _median_ms(fn, repeats: int) -> float:
    fn()  # first call pays lazy imports and page faults
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return 1e3 * statistics.median(times)


def kernel_sweep(seed: int, repeats: int = 5) -> dict[str, float]:
    """Median milliseconds per call of every kernel at every size."""
    metrics = {}
    for n in SWEEP_SIZES:
        calls = _calls(n, seed)
        for name in KERNELS:
            metrics[f"sweep.n{n}.{name}.ms"] = _median_ms(calls[name], repeats)
        if n in RATIO_SIZES:
            metrics[f"sweep.n{n}.crf.assemble_over_factor"] = (
                metrics[f"sweep.n{n}.crf.assemble.ms"] / metrics[f"sweep.n{n}.ref.cho_factor.ms"]
            )
            metrics[f"sweep.n{n}.crf.nll_backward_over_potri"] = (
                metrics[f"sweep.n{n}.crf.nll_backward.ms"] / metrics[f"sweep.n{n}.ref.potri.ms"]
            )
    return metrics


def alloc_kib(n: int, seed: int) -> dict[str, float]:
    """Peak KiB that one call of each CRF kernel allocates at ``n`` nodes."""
    calls = _calls(n, seed)
    metrics = {}
    for name in ALLOC_KERNELS:
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            calls[name]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        metrics[f"{name}.alloc_kib"] = (peak - base) / 1024.0
    return metrics
