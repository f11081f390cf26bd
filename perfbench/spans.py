"""Span tracing of glioseg's layers from outside the program.

The CLI and the library modules import public names into their own
namespaces (``glioseg.cli.fuse_labels``, ``glioseg.staple.staple_binary``,
``glioseg.metrics.hd95``, ``glioseg.netkit.graph.conv3d_forward``, ...), so
a layer is traced by rebinding the name in the namespace that calls it to a
wrapper that records a span. No source file of the program is changed, and
``Tracer.uninstall`` puts every original back.

A span is ``[name, start, end, parent, case, counters]``; ``parent`` is the
index of the enclosing span or -1. Spans stay in memory until ``dump``.
Counters are attached to the span of the call they describe. Work done only
to compute a counter runs inside a ``trace.count`` span, a child of the
span that encloses the counted call, so analysis can subtract it like any
other child. A counter that raises is recorded in ``counter_errors``, which
``dump`` writes out and run.py turns into a failed traced run. Wrapping a
name the program does not have raises, so a renamed layer cannot pass for
one that takes no time.
"""

from __future__ import annotations

import functools
import json
import os
import traceback
from contextlib import contextmanager
from time import perf_counter

import numpy as np
from scipy import ndimage

BOOKKEEPING = "trace.count"
ET_LABEL = 3
_ET_STRUCTURE = ndimage.generate_binary_structure(3, 3)  # 26-adjacency


class Tracer:
    """In-memory span recorder plus the name rebinding that feeds it."""

    def __init__(self):
        self.spans: list[list] = []
        self.case = ""
        self.counter_errors: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        record = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.case, {}]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def _count(self, counter, record, result, args, kwargs):
        with self.span(BOOKKEEPING):
            try:
                counter(record[5], result, *args, **kwargs)
            except Exception:  # noqa: BLE001 - a broken counter must not stop the run
                self.counter_errors.append(f"{record[0]}: {traceback.format_exc(limit=2)}")

    def wrap(self, owner, attr: str, name: str, counter=None) -> None:
        """Rebind owner.attr to a span-recording wrapper."""
        original = getattr(owner, attr)  # raises if the program lost the name
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name) as record:
                result = original(*args, **kwargs)
            if counter is not None:
                tracer._count(counter, record, result, args, kwargs)
            return result

        self._patch(owner, attr, traced)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        payload = {
            "fields": ["name", "start", "end", "parent", "case", "counters"],
            "spans": self.spans,
            "counter_errors": self.counter_errors,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


class _NdimageProxy:
    """scipy.ndimage as seen by glioseg.metrics, with distance transforms traced."""

    def __init__(self, tracer: Tracer, module):
        self._tracer = tracer
        self._module = module

    def distance_transform_edt(self, input, *args, **kwargs):
        with self._tracer.span("metrics.edt") as record:
            result = self._module.distance_transform_edt(input, *args, **kwargs)
        record[5]["edt_voxels"] = int(np.size(input))
        return result

    def __getattr__(self, name):
        return getattr(self._module, name)


# ------------------------------------------------------------ counters
# Each takes (counters, result, *call_args, **call_kwargs) of the traced call.


def _count_read(counters, result, path, *args, **kwargs):
    counters["bytes_read"] = os.path.getsize(path)


def _count_written(counters, result, volume, path, *args, **kwargs):
    counters["bytes_written"] = os.path.getsize(path)


def _count_included(counters, result, volume, policy=None, *args, **kwargs):
    if policy is not None and policy.include_background:
        counters["included_voxels"] = int(volume.data.size)
    else:
        counters["included_voxels"] = int(np.count_nonzero(volume.data))


def _vote_patterns(decisions: np.ndarray) -> int:
    """Distinct vote columns of a bool [J, N] matrix."""
    codes = np.zeros(decisions.shape[1], dtype=np.int64)
    for j, row in enumerate(decisions):
        codes |= row.astype(np.int64) << j
    return int(np.count_nonzero(np.bincount(codes)))


def _count_staple(counters, result, decisions, *args, **kwargs):
    votes = decisions.decisions
    raters, voxels = votes.shape
    counters["em_iterations"] = int(result.iterations)
    counters["converged"] = int(result.converged)
    counters["vote_patterns"] = _vote_patterns(votes)
    counters["decisions_bytes"] = raters * voxels * 8  # the float64 copy EM works on


def _et_components(labels) -> tuple[int, int]:
    et = labels.data == ET_LABEL
    _, count = ndimage.label(et, structure=_ET_STRUCTURE)
    return int(count), int(np.count_nonzero(et))


def _count_filter(counters, result, labels, *args, **kwargs):
    before, voxels_before = _et_components(labels)
    after, voxels_after = _et_components(result)
    counters["et_components"] = before
    counters["et_components_removed"] = before - after
    counters["et_voxels_removed"] = voxels_before - voxels_after


def _count_holes(counters, result, labels, *args, **kwargs):
    counters["hole_voxels_filled"] = int(np.count_nonzero(result.data != labels.data))


def _count_bbox(counters, result, a, b, *args, **kwargs):
    union = a.data | b.data
    counters["grid_voxels"] = int(union.size)
    if not union.any():
        counters["bbox_voxels"] = 0
        return
    extent = 1
    for axis in range(3):
        other = tuple(i for i in range(3) if i != axis)
        hit = np.flatnonzero(union.any(axis=other))
        extent *= int(hit[-1] - hit[0] + 1)
    counters["bbox_voxels"] = extent


def _count_conv(counters, result, x, layer, *args, **kwargs):
    kd, kh, kw = layer.kernel
    counters["gflop"] = 2.0 * result.size * layer.in_channels * kd * kh * kw / 1e9
    counters["out_bytes"] = int(result.nbytes)


def _count_node(counters, result, *args, **kwargs):
    counters["out_bytes"] = int(result.nbytes)


def live_tensor_peak(nodes, input_name: str, input_bytes: int, node_bytes: list[int]) -> int:
    """Peak bytes of tensors alive if each is freed after its last consumer.

    The network output stays alive to the end; a node output nobody reads
    is freed as soon as it is made.
    """
    size = {input_name: input_bytes}
    size.update((node.name, n) for node, n in zip(nodes, node_bytes))
    last = {}
    for step, node in enumerate(nodes):
        for ref in node.inputs:
            last[ref] = step
    last[nodes[-1].name] = len(nodes)
    live = peak = input_bytes
    for step, node in enumerate(nodes):
        live += size[node.name]
        peak = max(peak, live)
        for ref in set(node.inputs) | {node.name}:
            if last.get(ref, step) == step:
                live -= size[ref]
    return peak


def install(tracer: Tracer) -> None:
    """Rebind every traced layer entry point of glioseg to tracer wrappers."""
    import glioseg.cli as cli
    import glioseg.metrics as metrics
    import glioseg.netkit.graph as graph
    import glioseg.postprocess as postprocess
    import glioseg.preprocess as preprocess
    import glioseg.staple as staple

    wrap = tracer.wrap
    wrap(cli, "read_label_volume", "nifti.read_label", _count_read)
    wrap(cli, "read_scalar_volume", "nifti.read_scalar", _count_read)
    wrap(cli, "write_label_volume", "nifti.write_label", _count_written)
    wrap(cli, "write_scalar_volume", "nifti.write_scalar", _count_written)

    wrap(cli, "preprocess_volume", "preprocess.volume")
    wrap(preprocess, "zscore_normalize", "preprocess.zscore", _count_included)
    wrap(preprocess, "rescale_percentiles", "preprocess.rescale")

    wrap(cli, "fuse_labels", "staple.fuse_labels")
    wrap(staple, "staple_binary", "staple.staple_binary", _count_staple)
    for module in (staple, metrics, postprocess):
        wrap(module, "extract_region", "volume.extract_region")
    wrap(staple, "reconstruct_labels", "volume.reconstruct_labels")

    wrap(cli, "postprocess_case", "postprocess.case")
    wrap(postprocess, "filter_small_et", "postprocess.filter_small_et", _count_filter)
    wrap(postprocess, "repair_tc_holes", "postprocess.repair_tc_holes", _count_holes)

    wrap(cli, "evaluate_case", "metrics.evaluate_case")
    wrap(metrics, "dice", "metrics.dice")
    wrap(metrics, "hd95", "metrics.hd95", _count_bbox)
    tracer._patch(metrics, "ndimage", _NdimageProxy(tracer, metrics.ndimage))

    for kind in ("downsample", "upsample", "activation", "normalization",
                 "add_skip", "concat_skip", "attention_gate", "transposed_conv3d"):
        wrap(graph, f"{kind}_forward", f"netkit.{kind}", _count_node)
    wrap(graph, "conv3d_forward", "netkit.conv3d", _count_conv)

    def count_liveness(counters, result, net, x, *args, **kwargs):
        forward_index = next(
            i for i in range(len(tracer.spans) - 1, -1, -1) if tracer.spans[i][5] is counters
        )
        node_bytes = [
            s[5]["out_bytes"]
            for s in tracer.spans[forward_index + 1 :]
            if s[3] == forward_index and "out_bytes" in s[5]
        ]
        if len(node_bytes) != len(net.nodes):
            raise ValueError(f"{len(node_bytes)} traced node outputs for {len(net.nodes)} nodes")
        counters["live_tensor_peak_bytes"] = live_tensor_peak(
            net.nodes, graph.INPUT_NAME, int(np.asarray(x).nbytes), node_bytes
        )

    wrap(cli, "forward", "netkit.forward", count_liveness)
    wrap(cli, "summary", "netkit.summary")
