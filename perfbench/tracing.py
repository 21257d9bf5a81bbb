"""Span tracing of chromapad from outside the package.

The tracer replaces public functions in the namespaces of the modules that
call them (``chromapad.blocks.conv2d`` is the name ``backbone_forward``
looks up, so wrapping it there catches every backbone convolution) and
restores the originals afterwards. No file under ``src/`` changes.

Each call becomes one span: (id, parent id, name, start ns, end ns, MACs,
computed bytes). Spans stay in memory in start order, so a parent's id is
always smaller than its children's. Self time is a span's duration minus
the durations of its direct children, so the self times of a subtree add
up exactly to the duration of its root.

MACs and bytes are computed from operand shapes, not measured: a matmul of
(m, k) by (k, n) does m*k*n MACs and moves 4*(m*k + k*n + m*n) bytes; a
conv2d moves its input, weight and output (its MACs are counted in the
matmul it calls); a dequantize reads the int8 payload and writes float32.
"""

from __future__ import annotations

import contextlib
import importlib
import time

# (module holding the call site, attribute looked up there, span name)
CALL_SITES = (
    ("workloads", "cli_main", "cli.main"),
    ("workloads", "forward_ppm", "model.forward_ppm"),
    ("workloads", "build_model", "model.build_model"),
    ("workloads", "save_weights", "model.save_weights"),
    ("chromapad.cli", "load_config", "model.load_config"),
    ("chromapad.cli", "load_weights", "model.load_weights"),
    ("chromapad.cli", "read_tensor_file", "model.read_tensor_file"),
    ("chromapad.cli", "write_tensor_file", "model.write_tensor_file"),
    ("chromapad.cli", "quantize_model", "quant.quantize_model"),
    ("chromapad.cli", "forward_ppm", "model.forward_ppm"),
    ("chromapad.cli", "read_scores_csv", "metrics.read_scores_csv"),
    ("chromapad.cli", "evaluate_scores", "metrics.evaluate_scores"),
    ("chromapad.cli", "det_curve", "metrics.det_curve"),
    ("chromapad.cli", "write_det_csv", "metrics.write_det_csv"),
    ("chromapad.model", "read_tensor_file", "model.read_tensor_file"),
    ("chromapad.model", "write_tensor_file", "model.write_tensor_file"),
    ("chromapad.model", "quantize_model", "quant.quantize_model"),
    ("chromapad.model", "dequantize_f32", "quant.dequantize"),
    ("chromapad.model", "forward", "model.forward"),
    ("chromapad.model", "load_ppm", "colorspace.load_ppm"),
    ("chromapad.model", "convert", "colorspace.convert"),
    ("chromapad.model", "backbone_forward", "blocks.backbone"),
    ("chromapad.model", "bottleneck_project", "blocks.bottleneck"),
    ("chromapad.model", "multi_head_window_attention",
     "attention.window_attention"),
    ("chromapad.model", "fuse_branches", "blocks.fuse"),
    ("chromapad.model", "nested_residual_forward", "blocks.residual"),
    ("chromapad.model", "classifier_head", "blocks.classifier"),
    ("chromapad.blocks", "conv2d", "tensor_ops.conv2d"),
    ("chromapad.blocks", "matmul", "tensor_ops.matmul"),
    ("chromapad.attention", "matmul", "tensor_ops.matmul"),
    ("chromapad.attention", "window_attention_head", "attention.head"),
    ("chromapad.tensor_ops", "matmul", "tensor_ops.matmul"),
    ("chromapad.metrics", "det_curve", "metrics.det_curve"),
)


def _matmul_work(args, result):
    m, k = args[0].shape
    n = args[1].shape[1]
    return m * k * n, 4 * (m * k + k * n + m * n)


def _conv2d_work(args, result):
    return 0, 4 * (args[0].size + args[1].size + result.size)


def _dequantize_work(args, result):
    return 0, args[0].qdata.size + 4 * result.size


WORK = {
    "tensor_ops.matmul": _matmul_work,
    "tensor_ops.conv2d": _conv2d_work,
    "quant.dequantize": _dequantize_work,
}

# span tuple fields
SID, PARENT, NAME, T0, T1, MACS, NBYTES = range(7)


class Tracer:
    """Records spans while installed; `spans` is the in-memory trace."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def _enter(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        return sid, parent

    def _wrap(self, name, fn):
        work = WORK.get(name)
        enter = self._enter
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid, parent = enter(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, t0, t1, 0, 0)
            if work is not None:
                macs, nbytes = work(args, result)
                spans[sid] = (sid, parent, name, t0, t1, macs, nbytes)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, such as one op."""
        sid, parent = self._enter(name)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, t0, t1, 0, 0)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every call site for the duration of the block."""
        for module_name, attr, name in CALL_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        try:
            yield self
        finally:
            while self._patches:
                module, attr, original = self._patches.pop()
                setattr(module, attr, original)

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns,macs,bytes_computed\n")
            for s in self.spans:
                fh.write(",".join(str(v) for v in s) + "\n")


def summarize(spans, root_name):
    """Per-name totals over the subtrees rooted at spans named ``root_name``.

    A span belongs to the subtree of its nearest ancestor-or-self named
    ``root_name``. Returns (number of such roots, {name: {"self_ns",
    "incl_ns", "calls", "macs", "bytes"}}).
    """
    child_ns = [0] * len(spans)
    anchor = [-1] * len(spans)
    n_roots = 0
    for s in spans:
        if s[NAME] == root_name:
            anchor[s[SID]] = s[SID]
            n_roots += 1
        elif s[PARENT] >= 0:
            anchor[s[SID]] = anchor[s[PARENT]]
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[T1] - s[T0]
    totals = {}
    for s in spans:
        if anchor[s[SID]] < 0:
            continue
        t = totals.setdefault(s[NAME], {"self_ns": 0, "incl_ns": 0,
                                        "calls": 0, "macs": 0, "bytes": 0})
        dur = s[T1] - s[T0]
        t["self_ns"] += dur - child_ns[s[SID]]
        t["incl_ns"] += dur
        t["calls"] += 1
        t["macs"] += s[MACS]
        t["bytes"] += s[NBYTES]
    return n_roots, totals
