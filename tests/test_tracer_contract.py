"""The names the benchmark's span tracer rebinds stay alive and called.

``perfbench/spans.py`` traces glioseg from outside by rebinding module
attributes by name, so a renamed or bypassed layer would silently stop
being measured. This test loads that file as it is, without writing to its
directory, installs a tracer, runs the pipeline stages through
``glioseg.cli.main`` as the benchmark worker does, and checks the spans.
"""

from __future__ import annotations

import types
from pathlib import Path

import numpy as np

import glioseg.cli as cli
import glioseg.metrics as metrics
import glioseg.netkit.graph as graph
import glioseg.postprocess as postprocess
import glioseg.preprocess as preprocess
import glioseg.staple as staple
from glioseg.cli import main

from test_cli import SEG, random_labels, seg_dir, write_member_dirs

SPANS_PATH = Path(__file__).parents[1] / "perfbench" / "spans.py"
TRACED_MODULES = (cli, metrics, graph, postprocess, preprocess, staple)


def load_spans() -> types.ModuleType:
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS_PATH.read_text(), str(SPANS_PATH), "exec"), module.__dict__)
    return module


def test_traced_pipeline_records_every_layer_and_uninstall_restores(tmp_path, capsys):
    spans = load_spans()
    rng = np.random.default_rng(2101)
    truth = random_labels(rng)
    members = []
    for _ in range(3):  # each member relabels ~20% of the reference
        noisy = np.where(rng.random(truth.dims) < 0.2, rng.integers(0, 4, truth.dims), truth.data)
        members.append(truth.with_data(noisy.astype(np.uint8)))
    dirs = write_member_dirs(tmp_path, members)
    fused, cleaned = tmp_path / "fused", tmp_path / "clean"
    truth_dir = seg_dir(tmp_path, "truth", {"caseA": truth})

    originals = [dict(vars(module)) for module in TRACED_MODULES]
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        assert main(["fuse", "--members", *dirs, "--output-dir", str(fused)]) == 0
        assert main(["postprocess", str(fused), str(cleaned)]) == 0
        report = tmp_path / "report.json"
        assert main(["evaluate", str(cleaned), str(truth_dir), str(report)]) == 0
        assert main(["demo-net", "vnet", "--size", "8"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert (cleaned / f"caseA{SEG}").exists()

    assert tracer.counter_errors == []
    names = {span[0] for span in tracer.spans}
    for prefix in ("staple.", "volume.", "postprocess.", "metrics.", "netkit."):
        assert any(name.startswith(prefix) for name in names), prefix
    for name in (
        "staple.fuse_labels", "staple.staple_binary",
        "volume.extract_region", "volume.reconstruct_labels",
        "postprocess.case", "postprocess.filter_small_et", "postprocess.repair_tc_holes",
        "metrics.evaluate_case", "metrics.dice", "metrics.hd95", "metrics.edt",
        "netkit.forward", "netkit.summary", "netkit.conv3d",
    ):
        assert name in names, name
    # each stage still calls the traced region helpers, so their spans
    # measure the stage's own work
    inside = {}
    for span in tracer.spans:
        if span[0].startswith("volume."):
            parent = span[3]
            while parent != -1:
                inside.setdefault(tracer.spans[parent][0], set()).add(span[0])
                parent = tracer.spans[parent][3]
    for stage, helpers in (
        ("staple.fuse_labels", {"volume.extract_region", "volume.reconstruct_labels"}),
        ("postprocess.case", {"volume.extract_region"}),
        ("metrics.evaluate_case", {"volume.extract_region"}),
    ):
        assert inside.get(stage) == helpers, stage

    counters = {}
    for span in tracer.spans:
        counters.setdefault(span[0], {}).update(span[5])
    assert {"em_iterations", "converged", "vote_patterns"} <= set(counters["staple.staple_binary"])
    assert {"et_components", "et_components_removed"} <= set(
        counters["postprocess.filter_small_et"]
    )
    assert "hole_voxels_filled" in counters["postprocess.repair_tc_holes"]
    assert "live_tensor_peak_bytes" in counters["netkit.forward"]

    for module, before in zip(TRACED_MODULES, originals):
        for attr, value in before.items():
            assert getattr(module, attr) is value, f"{module.__name__}.{attr} still rebound"
