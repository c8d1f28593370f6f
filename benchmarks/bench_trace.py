"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side of each layer boundary: the
public functions that ``ccrf.training`` and ``ccrf.cli`` import are
replaced, for the duration of one traced pipeline, by wrappers that open
a span around the original.  Calls a layer makes internally (for example
``pairwise_forward`` calling ``mlp_forward``) are not traced, so their
time is charged to the calling layer's self time.

A span is ``(name, start, end, parent, command)``; ``parent`` is the index
of the enclosing span or -1, and ``command`` is the CLI command that was
running.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
from time import perf_counter

# module -> {imported name: layer span name}
LAYER_WRAPS = {
    "ccrf.training": {
        "build_graph": "graph.build_graph",
        "unary_forward": "networks.unary_forward",
        "mlp_backward": "networks.mlp_backward",
        "pairwise_forward": "networks.pairwise_forward",
        "pairwise_backward": "networks.pairwise_backward",
        "assemble": "crf.assemble",
        "map_infer": "crf.map_infer",
        "map_backward": "crf.map_backward",
        "nll": "crf.nll",
        "nll_backward": "crf.nll_backward",
        "task_loss": "losses.task_loss",
        "forward_loss": "training.forward_loss",
        "sgd_step": "training.sgd_step",
        "global_grad_norm": "training.global_grad_norm",
        "seg_metrics": "metrics",
        "depth_metrics": "metrics",
    },
    "ccrf.cli": {
        "synth_dataset": "scenes.synth_dataset",
        "save_dataset": "datasets.save_dataset",
        "load_dataset": "datasets.load_dataset",
        "save_checkpoint": "networks.checkpoint_io",
        "load_checkpoint": "networks.checkpoint_io",
    },
}

CLI_SPAN = "cli"

# layers whose self time (and, where listed, call count) is reported
SELF_MS_LAYERS = (
    "scenes.synth_dataset",
    "datasets.save_dataset",
    "datasets.load_dataset",
    "graph.build_graph",
    "networks.unary_forward",
    "networks.mlp_backward",
    "networks.pairwise_forward",
    "networks.pairwise_backward",
    "networks.checkpoint_io",
    "crf.assemble",
    "crf.map_infer",
    "crf.map_backward",
    "crf.nll",
    "crf.nll_backward",
    "losses.task_loss",
    "training.forward_loss",
    "training.sgd_step",
    "training.global_grad_norm",
    "metrics",
    CLI_SPAN,
)
CALL_LAYERS = (
    "graph.build_graph",
    "networks.unary_forward",
    "networks.pairwise_forward",
    "crf.assemble",
    "crf.map_backward",
    "crf.nll_backward",
    "losses.task_loss",
)
# inference layers that ``ccrf train`` reaches outside forward_loss: the
# per-epoch validation pass
VALIDATION_LAYERS = frozenset(
    ("networks.unary_forward", "networks.pairwise_forward", "crf.assemble", "crf.map_infer", "metrics")
)


class SpanRecorder:
    """Collects nested spans in memory; nothing is written until asked."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.command = ""

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.command])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def command_span(self, command: str):
        """The benchmark's own span around one ``ccrf.cli.main`` call."""
        self.command = command
        index = self._open(CLI_SPAN)
        try:
            yield
        finally:
            self._close(index)
            self.command = ""

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

@contextlib.contextmanager
def instrumented(recorder: SpanRecorder):
    """Swap every name in LAYER_WRAPS for a traced wrapper, then restore."""
    originals = []
    try:
        for module_name, names in LAYER_WRAPS.items():
            module = importlib.import_module(module_name)
            for attr, span_name in names.items():
                original = getattr(module, attr)  # a missing name is a hard error
                originals.append((module, attr, original))
                setattr(module, attr, recorder.wrap(span_name, original))
        yield recorder
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)


def write_spans_csv(path, recorders) -> None:
    """All spans of all traced pipelines, one row each, tagged by repetition."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["repeat", "name", "start_s", "end_s", "parent", "command"])
        for repeat, recorder in enumerate(recorders):
            for name, start, end, parent, command in recorder.spans:
                writer.writerow([repeat, name, f"{start:.9f}", f"{end:.9f}", parent, command])


def layer_metrics(spans) -> dict[str, float]:
    """Per-pipeline layer metrics from one traced synth -> train -> eval."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_s[i]
        calls[name] = calls.get(name, 0) + 1

    metrics = {f"{name}.self_ms": 1e3 * self_s.get(name, 0.0) for name in SELF_MS_LAYERS}
    metrics.update({f"{name}.calls": calls.get(name, 0) for name in CALL_LAYERS})
    cli_spans = [i for i, s in enumerate(spans) if s[0] == CLI_SPAN]
    train_cli = {i for i in cli_spans if spans[i][4] == "train"}
    metrics["training.validation.self_ms"] = 1e3 * sum(
        end - start
        for name, start, end, parent, _ in spans
        if parent in train_cli and name in VALIDATION_LAYERS
    )
    metrics["networks.unary_forward.eval_calls"] = sum(
        1 for s in spans if s[0] == "networks.unary_forward" and s[4] == "eval"
    )
    command_s = sum(spans[i][2] - spans[i][1] for i in cli_spans)
    metrics["trace.unaccounted_frac"] = self_s.get(CLI_SPAN, 0.0) / command_s
    return metrics
