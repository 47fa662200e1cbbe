"""In-memory spans around calls into rtda, for the traced benchmark run.

A span is a list `[name, start, end, parent, request, macs]`: start and
end in `time.perf_counter` seconds, the index of the enclosing span (-1 at
the root), a request id (the training iteration, or a phase tag such as
"setup-0" or "eval-2" outside training) and the convolution MACs the call
performs, read from its argument shapes. Spans are recorded from this
directory only, by replacing attributes of rtda's modules and classes
with timing wrappers and restoring them afterwards; the program under
test is not edited.
"""

from __future__ import annotations

import statistics
import time

import rtda.data
import rtda.metrics
import rtda.models
import rtda.optim
import rtda.tensor
import rtda.trainer

perf = time.perf_counter

NAME, START, END, PARENT, REQUEST, MACS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = None
        self._stack: list[int] = []

    def begin(self, name: str, macs: int = 0) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, perf(), 0.0, parent, self.request, macs]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = perf()
        self._stack.pop()

    def wrap(self, name: str, fn, macs=None):
        """`fn` inside a span; `macs(*args, **kwargs)` counts its MACs."""

        def traced(*args, **kwargs):
            span = self.begin(name, macs(*args, **kwargs) if macs else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return traced


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._saved = []

    def __bool__(self) -> bool:
        return bool(self._saved)

    def set(self, owner, attr: str, value) -> None:
        own = attr in vars(owner)
        self._saved.append((owner, attr, own, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, own, old = self._saved.pop()
            if own:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)


def conv_macs(x, weight, bias=None, stride=1, pad=0) -> int:
    """Multiply-accumulates of rtda.tensor.conv2d or depthwise_conv2d with
    these arguments: every output element of every image costs one MAC
    per weight element feeding it, which is prod(weight.shape) / C_out
    for both ops (C_in * kh * kw dense, kh * kw depthwise)."""
    n, _, h, w = x.shape
    c_out, per_out, k_h, k_w = weight.shape
    out_h = (h + 2 * pad - k_h) // stride + 1
    out_w = (w + 2 * pad - k_w) // stride + 1
    return n * c_out * out_h * out_w * per_out * k_h * k_w


# Forward ops of rtda.tensor that get their own per-layer metrics.
TENSOR_OPS = ("conv2d", "depthwise_conv2d", "batch_norm", "relu", "leaky_relu",
              "bilinear_upsample", "softmax_channels", "masked_nll")
MAC_OPS = ("conv2d", "depthwise_conv2d")


def trace_points():
    """(owner, attribute, span name, MAC counter) for every traced call.

    The trainer imports its helpers by name, so they are replaced in the
    trainer's namespace; nn and models call rtda.tensor through the module,
    and methods are replaced on their classes."""
    points = [(rtda.tensor, op, f"tensor.{op}", conv_macs if op in MAC_OPS else None)
              for op in TENSOR_OPS]
    points += [
        (rtda.trainer, "backward", "tensor.backward", None),
        (rtda.models.MiniBiSeNet, "forward", "models.seg_fwd", None),
        (rtda.trainer, "build_mini_bisenet", "models.build", None),
        (rtda.trainer, "build_discriminator", "models.build", None),
        (rtda.trainer, "seg_cross_entropy", "losses.seg_ce", None),
        (rtda.trainer, "adv_loss", "losses.adv", None),
        (rtda.trainer, "disc_loss", "losses.disc", None),
        (rtda.optim.SGD, "step", "optim.sgd_step", None),
        (rtda.optim.Adam, "step", "optim.adam_step", None),
        (rtda.data, "generate_scene", "data.generate_scene", None),
        (rtda.metrics.ConfusionMatrix, "accumulate", "metrics.accumulate", None),
    ]
    return points


def checkpoint_points():
    return [(rtda.trainer, "save_checkpoint", "checkpoint.save", None),
            (rtda.trainer, "load_checkpoint", "checkpoint.load", None)]


def install(tracer: Tracer, patches: Patches, points) -> None:
    for owner, attr, name, macs in points:
        patches.set(owner, attr, tracer.wrap(name, getattr(owner, attr), macs))


# ---------------------------------------------------------------------------
# analysis


def self_times(spans) -> tuple[list, list, list]:
    """Per span: self time (duration minus its direct children, which
    nest without overlap in this single-threaded program), MACs of the
    span and all its descendants, and the indices of its direct children."""
    n = len(spans)
    children = [[] for _ in range(n)]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    self_s = [s[END] - s[START] for s in spans]
    macs = [s[MACS] for s in spans]
    for i in range(n - 1, -1, -1):
        p = spans[i][PARENT]
        if p >= 0:
            self_s[p] -= spans[i][END] - spans[i][START]
            macs[p] += macs[i]
    return self_s, macs, children


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def iteration_phases(spans, children, root) -> list[float]:
    """Durations of the paper's four alternating steps inside one
    train_iteration span, cut at the trainer's call order: (1) ends where
    the second segmenter forward (the target batch) starts, or at the
    first backward when there is none; (2) runs to the first backward;
    (3) to the discriminator forward that follows it; (4) to the end."""
    kids = [spans[c] for c in children[root]]
    start, end = spans[root][START], spans[root][END]
    first_bwd = next((i for i, k in enumerate(kids) if k[NAME] == "tensor.backward"), None)
    if first_bwd is None:
        return [end - start, 0.0, 0.0, 0.0]
    b2 = kids[first_bwd][START]
    seg_fwds = [k[START] for k in kids[:first_bwd] if k[NAME] == "models.seg_fwd"]
    b1 = seg_fwds[1] if len(seg_fwds) > 1 else b2
    b3 = next((k[START] for k in kids[first_bwd:] if k[NAME] == "models.disc_fwd"), end)
    return [b1 - start, b2 - b1, b3 - b2, end - b3]


def layer_metrics(spans) -> dict:
    """Per-layer numbers, name -> (value, unit), from a trace.

    Training figures are per iteration (sums over the iteration's spans,
    then the median over traced iterations); eval figures are per call
    (one eval batch); checkpoint figures are per call, whatever the
    request; set-up figures per call or per set-up repetition."""
    self_s, macs, children = self_times(spans)
    iters: dict[int, dict] = {}       # iteration -> span name -> span indices
    roots: dict[int, int] = {}        # iteration -> its trainer.iteration span
    per_call: dict[tuple, list] = {}  # (request kind, span name) -> durations
    setup_build: dict[str, float] = {}

    def dur(i):
        return spans[i][END] - spans[i][START]

    for i, s in enumerate(spans):
        name, req = s[NAME], s[REQUEST]
        if name.startswith("checkpoint."):
            per_call.setdefault(("", name), []).append(dur(i))
        elif isinstance(req, int):
            iters.setdefault(req, {}).setdefault(name, []).append(i)
            if name == "trainer.iteration":
                roots[req] = i
        else:
            kind = req.split("-")[0]
            per_call.setdefault((kind, name), []).append(dur(i))
            if kind == "setup" and name == "models.build":
                setup_build[req] = setup_build.get(req, 0.0) + dur(i)
    traced = sorted(roots)

    def per_iter(name, value=dur):
        return _median([sum(value(i) for i in iters[r].get(name, ())) for r in traced])

    def nth(name, n):
        """Median duration of the n-th `name` span of an iteration."""
        found = [iters[r].get(name, ()) for r in traced]
        return _median([dur(idx[n]) if len(idx) > n else 0.0 for idx in found])

    def calls(i):
        return 1

    out = {}
    ms = 1e3
    for op in TENSOR_OPS:
        key = f"tensor.{op}"
        out[f"{key}.fwd_ms"] = per_iter(key) * ms
        out[f"{key}.calls"] = per_iter(key, calls)
        if op in MAC_OPS:
            busy = sum(dur(i) for r in traced for i in iters[r].get(key, ()))
            work = sum(spans[i][MACS] for r in traced for i in iters[r].get(key, ()))
            out[f"{key}.gflops"] = 2 * work / busy / 1e9 if busy else 0.0
    out["tensor.backward_seg_ms"] = nth("tensor.backward", 0) * ms
    out["tensor.backward_disc_ms"] = nth("tensor.backward", 1) * ms

    out["models.seg_fwd_ms"] = per_iter("models.seg_fwd") * ms
    out["models.seg_fwd_self_ms"] = per_iter("models.seg_fwd", self_s.__getitem__) * ms
    out["models.seg_eval_fwd_ms"] = _median(per_call.get(("eval", "models.seg_fwd"), [])) * ms
    out["models.disc_fwd_ms"] = per_iter("models.disc_fwd") * ms
    out["models.disc_fwd_self_ms"] = per_iter("models.disc_fwd", self_s.__getitem__) * ms
    out["models.build_s"] = _median(list(setup_build.values()))
    first_disc = [iters[r]["models.disc_fwd"][0] for r in traced if "models.disc_fwd" in iters[r]]
    out["models.disc_macs_per_fwd"] = macs[first_disc[0]] if first_disc else 0

    for short in ("seg_ce", "adv", "disc"):
        out[f"losses.{short}_ms"] = per_iter(f"losses.{short}") * ms
    out["optim.sgd_step_ms"] = per_iter("optim.sgd_step") * ms
    out["optim.adam_step_ms"] = per_iter("optim.adam_step") * ms

    phases = [iteration_phases(spans, children, roots[r]) for r in traced]
    for k in range(4):
        out[f"trainer.phase{k + 1}_ms"] = _median([p[k] for p in phases]) * ms
    out["trainer.glue_ms"] = per_iter("trainer.iteration", self_s.__getitem__) * ms

    out["data.generate_ms_per_scene"] = _median(per_call.get(("setup", "data.generate_scene"), [])) * ms
    out["data.paired_batch_ms"] = per_iter("data.paired_batch") * ms
    out["checkpoint.save_ms"] = _median(per_call.get(("", "checkpoint.save"), [])) * ms
    out["checkpoint.load_ms"] = _median(per_call.get(("", "checkpoint.load"), [])) * ms
    out["metrics.accumulate_ms"] = _median(per_call.get(("eval", "metrics.accumulate"), [])) * ms
    return {name: (value, unit_of(name)) for name, value in out.items()}


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if "_ms_per_" in name:
        return "ms"
    for suffix, unit in (("_ms", "ms"), (".calls", "count"), (".gflops", "GFLOP/s"),
                         ("_s", "s"), ("macs_per_fwd", "MAC"), (".bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for {name}")


def span_records(spans) -> list[dict]:
    """Spans with their self time, in recording order, for the trace file."""
    self_s, macs, _ = self_times(spans)
    return [{"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT],
             "request": s[REQUEST], "self_s": self_s[i], "macs": macs[i]}
            for i, s in enumerate(spans)]
