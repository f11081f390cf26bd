from __future__ import annotations

import argparse
import dataclasses
import json
import re
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

import glioseg.cli as cli
from glioseg.cli import _build_parser, main
from glioseg.config import (
    FLAG_FIELDS,
    ConfigError,
    PipelineConfig,
    config_from_dict,
    config_to_dict,
    load_config,
)
from glioseg.metrics import MetricConfig, aggregate, evaluate_case
from glioseg.netkit import build_vnet, graph
from glioseg.nifti import read_label_volume, read_scalar_volume, write_label_volume, write_scalar_volume
from glioseg.preprocess import RescaleSpec, preprocess_volume
from glioseg.staple import StapleConfig, fuse_labels
from glioseg.volume import LabelVolume, ScalarVolume

MOD_SUFFIXES = ("-t1n.nii.gz", "-t1c.nii.gz", "-t2w.nii.gz", "-t2f.nii.gz")
SEG = "-seg.nii.gz"


def write_case_modalities(root, case, rng, constant_t1=False):
    case_dir = root / case
    case_dir.mkdir(parents=True)
    for index, suffix in enumerate(MOD_SUFFIXES):
        if constant_t1 and index == 0:
            data = np.full((6, 5, 4), 3.0)
        else:
            data = rng.uniform(10.0, 90.0, size=(6, 5, 4))
        write_scalar_volume(ScalarVolume(data), case_dir / f"{case}{suffix}")


def random_labels(rng, dims=(6, 6, 6)):
    return LabelVolume(rng.integers(0, 4, size=dims).astype(np.uint8))


def write_member_dirs(root, members, case="caseA"):
    dirs = []
    for index, labels in enumerate(members):
        member_dir = root / f"member{index}"
        member_dir.mkdir(parents=True, exist_ok=True)
        write_label_volume(labels, member_dir / f"{case}{SEG}")
        dirs.append(str(member_dir))
    return dirs


# ------------------------------------------------------------- normalize


def test_normalize_writes_every_modality(tmp_path):
    rng = np.random.default_rng(500)
    for case in ("caseA", "caseB"):
        write_case_modalities(tmp_path / "raw", case, rng)
    out = tmp_path / "norm"
    assert main(["normalize", str(tmp_path / "raw"), str(out)]) == 0
    written = sorted(p.name for p in out.rglob("*.nii.gz"))
    assert len(written) == 8
    for case in ("caseA", "caseB"):
        for suffix in MOD_SUFFIXES:
            name = f"{case}{suffix}"
            got = read_scalar_volume(out / case / name)
            source = read_scalar_volume(tmp_path / "raw" / case / name)
            want = preprocess_volume(source).data.astype(np.float32).astype(np.float64)
            assert np.array_equal(got.data, want)
            assert got.data.min() >= 0.0 and got.data.max() <= 1.0


def test_normalize_constant_modality_fails_only_that_case(tmp_path, caplog):
    rng = np.random.default_rng(501)
    write_case_modalities(tmp_path / "raw", "bad", rng, constant_t1=True)
    write_case_modalities(tmp_path / "raw", "good", rng)
    out = tmp_path / "norm"
    with caplog.at_level("INFO", logger="glioseg"):
        assert main(["normalize", str(tmp_path / "raw"), str(out)]) == 1
    assert len(list((out / "good").glob("*.nii.gz"))) == 4
    assert not (out / "bad" / f"bad{MOD_SUFFIXES[0]}").exists()
    assert "normalize: 1 case(s) written, 1 failed" in caplog.text


def test_normalize_output_beyond_float32_fails_the_case_and_writes_nothing(tmp_path, caplog):
    rng = np.random.default_rng(505)
    write_case_modalities(tmp_path / "raw", "caseA", rng)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"rescale": {"out_max": 1e39}}))  # finite, but not in float32
    out = tmp_path / "norm"
    with caplog.at_level("INFO", logger="glioseg"):
        assert main(["normalize", str(tmp_path / "raw"), str(out), "--config", str(config)]) == 1
    assert "case caseA failed" in caplog.text and "float32" in caplog.text
    assert "normalize: 0 case(s) written, 1 failed" in caplog.text
    assert list(out.iterdir()) == []


def test_normalize_missing_modality_file_fails(tmp_path):
    rng = np.random.default_rng(502)
    write_case_modalities(tmp_path / "raw", "caseA", rng)
    (tmp_path / "raw" / "caseA" / f"caseA{MOD_SUFFIXES[2]}").unlink()
    assert main(["normalize", str(tmp_path / "raw"), str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("fault", ["missing", "constant"])
def test_normalize_failed_case_leaves_no_outputs(tmp_path, fault):
    rng = np.random.default_rng(503)
    write_case_modalities(tmp_path / "raw", "bad", rng)
    write_case_modalities(tmp_path / "raw", "good", rng)
    last = tmp_path / "raw" / "bad" / f"bad{MOD_SUFFIXES[-1]}"  # the modality read last
    if fault == "missing":
        last.unlink()
    else:
        write_scalar_volume(ScalarVolume(np.full((6, 5, 4), 3.0)), last)
    out = tmp_path / "norm"
    assert main(["normalize", str(tmp_path / "raw"), str(out)]) == 1
    written = sorted(str(p.relative_to(out)) for p in out.rglob("*"))
    assert written == ["good", *sorted(f"good/good{suffix}" for suffix in MOD_SUFFIXES)]


def test_normalize_keeps_one_modality_alive_at_a_time(tmp_path, monkeypatch):
    rng = np.random.default_rng(504)
    for case in ("caseA", "caseB"):
        write_case_modalities(tmp_path / "raw", case, rng)
    # caseA fails on its last modality; that volume must not outlive the case
    write_scalar_volume(
        ScalarVolume(np.full((6, 5, 4), 3.0)),
        tmp_path / "raw" / "caseA" / f"caseA{MOD_SUFFIXES[-1]}",
    )
    volumes = []  # weak references to every volume read or normalized
    alive_at_read = []

    def tracking(function):
        def call(*args):
            result = function(*args)
            volumes.extend([weakref.ref(result), weakref.ref(result.data)])
            return result

        return call

    def read(path):
        alive_at_read.append(sum(ref() is not None for ref in volumes))
        return tracking(read_scalar_volume)(path)

    monkeypatch.setattr("glioseg.cli.read_scalar_volume", read)
    monkeypatch.setattr("glioseg.cli.preprocess_volume", tracking(preprocess_volume))
    assert main(["normalize", str(tmp_path / "raw"), str(tmp_path / "norm")]) == 1
    assert len(volumes) == 2 * (8 + 7)  # the failed modality has no result
    assert alive_at_read == [0] * 8


def test_modalities_sharing_a_suffix_are_a_usage_error(tmp_path):
    # two modalities would be staged and written to one file
    rng = np.random.default_rng(542)
    case_dir = tmp_path / "raw" / "c1"
    case_dir.mkdir(parents=True)
    for suffix in ("-a.nii.gz", "-t2w.nii.gz", "-t2f.nii.gz"):
        write_scalar_volume(ScalarVolume(rng.uniform(10.0, 90.0, size=(6, 5, 4))), case_dir / f"c1{suffix}")
    shared = {"modality_suffixes": {"t1": "-a.nii.gz", "t1gd": "-a.nii.gz"}}
    with pytest.raises(ConfigError, match="modality_suffixes must differ"):
        config_from_dict(shared)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(shared))
    out = tmp_path / "out"
    assert main(["normalize", str(tmp_path / "raw"), str(out), "--config", str(path)]) == 2
    assert not out.exists()


def test_normalize_rejects_missing_input_dir(tmp_path):
    assert main(["normalize", str(tmp_path / "absent"), str(tmp_path / "out")]) == 2


# ------------------------------------------------------------------ fuse


def test_fuse_identical_members_reproduces_them(tmp_path):
    rng = np.random.default_rng(510)
    labels = random_labels(rng)
    dirs = write_member_dirs(tmp_path, [labels, labels, labels])
    out = tmp_path / "fused"
    code = main(["fuse", "--members", *dirs, "--output-dir", str(out)])
    assert code == 0
    fused = read_label_volume(out / f"caseA{SEG}")
    assert np.array_equal(fused.data, labels.data)


def test_fuse_single_member_is_a_copy(tmp_path):
    labels = random_labels(np.random.default_rng(511))
    dirs = write_member_dirs(tmp_path, [labels])
    out = tmp_path / "fused"
    assert main(["fuse", "--members", *dirs, "--output-dir", str(out)]) == 0
    assert np.array_equal(read_label_volume(out / f"caseA{SEG}").data, labels.data)


def test_fuse_matches_module_level_fusion(tmp_path):
    rng = np.random.default_rng(512)
    members = [random_labels(rng, dims=(4, 4, 4)) for _ in range(3)]
    dirs = write_member_dirs(tmp_path, members)
    for method in ("staple", "majority"):
        out = tmp_path / f"fused-{method}"
        code = main(["fuse", "--members", *dirs, "--output-dir", str(out), "--method", method])
        assert code == 0
        got = read_label_volume(out / f"caseA{SEG}")
        want = fuse_labels(members, method=method)
        assert np.array_equal(got.data, want.data)


def test_fuse_skips_case_missing_from_a_member(tmp_path):
    rng = np.random.default_rng(513)
    labels = random_labels(rng)
    dirs = write_member_dirs(tmp_path, [labels, labels])
    extra = random_labels(rng)
    write_label_volume(extra, tmp_path / "member0" / f"caseB{SEG}")
    out = tmp_path / "fused"
    assert main(["fuse", "--members", *dirs, "--output-dir", str(out)]) == 0
    assert (out / f"caseA{SEG}").exists()
    assert not (out / f"caseB{SEG}").exists()
    assert main(["fuse", "--members", *dirs, "--output-dir", str(out), "--strict"]) == 1


def test_fuse_warns_for_each_member_without_a_label_file(tmp_path, caplog):
    empty = [tmp_path / "member0", tmp_path / "member1"]
    for directory in empty:
        directory.mkdir()
    out = tmp_path / "fused"
    with caplog.at_level("INFO", logger="glioseg"):
        assert main(["fuse", "--members", *map(str, empty), "--output-dir", str(out)]) == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert warnings == [f"no *{SEG} files under {directory}" for directory in empty]
    assert caplog.records[-1].getMessage().startswith("fuse: 0 case(s) written, 0 skipped, 0 failed")
    assert not out.exists() or not any(out.iterdir())


def test_fuse_dimension_mismatch_fails_case(tmp_path):
    rng = np.random.default_rng(514)
    dirs = write_member_dirs(tmp_path, [random_labels(rng), random_labels(rng, dims=(5, 5, 5))])
    assert main(["fuse", "--members", *dirs, "--output-dir", str(tmp_path / "fused")]) == 1


MIRRORED = np.array([[-1.0, 0.0, 0.0, 5.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])


def test_fuse_refuses_a_mirrored_member_naming_both_affines(tmp_path, caplog):
    labels = random_labels(np.random.default_rng(516))
    mirrored = LabelVolume(labels.data, labels.spacing, MIRRORED)
    dirs = write_member_dirs(tmp_path, [labels, labels, mirrored])
    out = tmp_path / "fused"
    with caplog.at_level("INFO", logger="glioseg"):
        assert main(["fuse", "--members", *dirs, "--output-dir", str(out)]) == 1
    (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert error.startswith("case caseA failed: predictions disagree on grid")
    assert str(labels.orientation.tolist()) in error and str(MIRRORED.tolist()) in error
    assert not (out / f"caseA{SEG}").exists()


def test_fuse_counts_a_truncated_member_file_as_failed(tmp_path, caplog):
    rng = np.random.default_rng(515)
    dirs = write_member_dirs(tmp_path, [random_labels(rng), random_labels(rng)])
    (Path(dirs[1]) / f"caseA{SEG}").write_bytes(b"\x1f\x8b\x08\x00\x00\x00\x00")  # truncated gzip
    write_member_dirs(tmp_path, [random_labels(rng)], case="caseB")  # member0 only
    out = tmp_path / "fused"
    with caplog.at_level("INFO", logger="glioseg"):
        assert main(["fuse", "--members", *dirs, "--output-dir", str(out)]) == 1
    assert not (out / f"caseA{SEG}").exists()
    assert "fuse: 0 case(s) written, 1 skipped, 1 failed" in caplog.text


def test_fuse_without_members_is_a_usage_error(tmp_path):
    assert main(["fuse", "--output-dir", str(tmp_path / "fused")]) == 2


# ----------------------------------------------------------- postprocess


def et_island_labels(island_size, dims=(10, 10, 10)):
    data = np.zeros(dims, dtype=np.uint8)
    flat = np.zeros(island_size, dtype=np.intp)
    # a straight rod is one 26-connected component
    data.ravel()[: island_size] = 3
    assert int((data == 3).sum()) == island_size
    return LabelVolume(data), flat


def test_postprocess_removes_small_et_island(tmp_path):
    labels, _ = et_island_labels(50)
    src = tmp_path / "pred"
    src.mkdir()
    write_label_volume(labels, src / f"caseA{SEG}")
    out = tmp_path / "clean"
    assert main(["postprocess", str(src), str(out)]) == 0
    cleaned = read_label_volume(out / f"caseA{SEG}")
    assert not np.any(cleaned.data == 3)


def test_postprocess_logs_cases_written_and_failed(tmp_path, caplog):
    labels, _ = et_island_labels(50)
    src = tmp_path / "pred"
    src.mkdir()
    write_label_volume(labels, src / f"caseA{SEG}")
    (src / f"caseB{SEG}").write_bytes(b"\x1f\x8b\x08\x00\x00\x00\x00")  # truncated gzip
    # the inline loop and the thread pool keep the same accounting
    for parallel in ("1", "2"):
        caplog.clear()
        out = tmp_path / f"clean{parallel}"
        with caplog.at_level("INFO", logger="glioseg"):
            assert main(["postprocess", str(src), str(out), "--parallel", parallel]) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and errors[0].startswith("case caseB failed: ")
        assert "postprocess: 1 case(s) written, 1 failed" in caplog.text
        assert [p.name for p in out.iterdir()] == [f"caseA{SEG}"]


def test_hidden_names_such_as_a_leftover_staging_temp_are_no_case(tmp_path, caplog):
    labels, _ = et_island_labels(50)
    src = tmp_path / "pred"
    src.mkdir()
    write_label_volume(labels, src / f"case0{SEG}")
    (src / f".tmp-4242-case1{SEG}").write_bytes(b"\x1f\x8b\x08\x00\x00\x00\x00")  # cut short
    raw = tmp_path / "raw"
    write_case_modalities(raw, "caseA", np.random.default_rng(545))
    (raw / ".stale").mkdir()
    with caplog.at_level("INFO", logger="glioseg"):
        assert main(["postprocess", str(src), str(tmp_path / "clean")]) == 0
        assert main(["normalize", str(raw), str(tmp_path / "norm")]) == 0
    assert "postprocess: 1 case(s) written, 0 failed" in caplog.text
    assert "normalize: 1 case(s) written, 0 failed" in caplog.text


@pytest.mark.parametrize("parallel", ["1", "2"])
def test_run_logs_one_stage_time_per_case(tmp_path, caplog, parallel):
    labels, _ = et_island_labels(50)
    src = tmp_path / "pred"
    src.mkdir()
    for case in ("caseA", "caseB"):
        write_label_volume(labels, src / f"{case}{SEG}")
    with caplog.at_level("INFO", logger="glioseg"):
        assert main(["postprocess", str(src), str(tmp_path / "clean"), "--parallel", parallel]) == 0
    per_case = [r.getMessage() for r in caplog.records if r.getMessage().startswith("case ")]
    timed = [re.fullmatch(r"case (\w+): postprocess in \d+ ms", message) for message in per_case]
    assert all(timed), per_case
    assert sorted(m.group(1) for m in timed) == ["caseA", "caseB"]


def test_postprocess_retains_island_above_threshold(tmp_path):
    labels, _ = et_island_labels(51)
    src = tmp_path / "pred"
    src.mkdir()
    write_label_volume(labels, src / f"caseA{SEG}")
    out = tmp_path / "clean"
    assert main(["postprocess", str(src), str(out)]) == 0
    assert int((read_label_volume(out / f"caseA{SEG}").data == 3).sum()) == 51


def test_postprocess_et_min_volume_flag_overrides_default(tmp_path):
    labels, _ = et_island_labels(11)
    src = tmp_path / "pred"
    src.mkdir()
    write_label_volume(labels, src / f"caseA{SEG}")
    out = tmp_path / "clean"
    code = main(["postprocess", str(src), str(out), "--et-min-volume", "10"])
    assert code == 0
    assert int((read_label_volume(out / f"caseA{SEG}").data == 3).sum()) == 11


def test_postprocess_is_idempotent_through_the_cli(tmp_path):
    rng = np.random.default_rng(520)
    src = tmp_path / "pred"
    src.mkdir()
    for case in ("caseA", "caseB"):
        write_label_volume(random_labels(rng, dims=(8, 8, 8)), src / f"{case}{SEG}")
    once = tmp_path / "once"
    twice = tmp_path / "twice"
    assert main(["postprocess", str(src), str(once)]) == 0
    assert main(["postprocess", str(once), str(twice)]) == 0
    for case in ("caseA", "caseB"):
        first = read_label_volume(once / f"{case}{SEG}")
        second = read_label_volume(twice / f"{case}{SEG}")
        assert np.array_equal(first.data, second.data)


# --------------------------------------------------------------- staging


@pytest.mark.parametrize("stage", ["fuse", "postprocess", "evaluate"])
def test_failed_write_leaves_no_target_and_no_temp(tmp_path, monkeypatch, caplog, stage):
    source = Path(write_member_dirs(tmp_path, [random_labels(np.random.default_rng(540))])[0])
    out = tmp_path / "out"

    def write_then_fail(_content, path):
        Path(path).write_bytes(b"partial")
        raise OSError("disk full")

    if stage == "evaluate":
        target = out / "report.json"
        monkeypatch.setattr(Path, "write_text", lambda self, data, *_: write_then_fail(data, self))
        argv = ["evaluate", str(source), str(source), str(target)]
    else:
        target = out / f"caseA{SEG}"
        monkeypatch.setattr(cli, "write_label_volume", write_then_fail)
        argv = {
            "fuse": ["fuse", "--members", str(source), "--output-dir", str(out)],
            "postprocess": ["postprocess", str(source), str(out)],
        }[stage]
    with caplog.at_level("ERROR", logger="glioseg"):
        assert main(argv) == 1
    assert "disk full" in caplog.text
    assert not target.exists()
    assert list(out.rglob("*")) == []


# -------------------------------------------------------------- evaluate


def seg_dir(tmp_path, name, volumes):
    directory = tmp_path / name
    directory.mkdir(parents=True, exist_ok=True)
    for case, labels in volumes.items():
        write_label_volume(labels, directory / f"{case}{SEG}")
    return directory


def test_evaluate_perfect_predictions(tmp_path):
    rng = np.random.default_rng(530)
    volumes = {f"case{i}": random_labels(rng) for i in range(3)}
    truth = seg_dir(tmp_path, "truth", volumes)
    report_path = tmp_path / "report.json"
    assert main(["evaluate", str(truth), str(truth), str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert [entry["case"] for entry in report["cases"]] == sorted(volumes)
    for entry in report["cases"]:
        for region in ("ET", "TC", "WT"):
            assert entry["regions"][region]["dice"] == 1.0
            assert entry["regions"][region]["hd95_mm"] == 0.0
    assert report["missing"] == []
    assert report["summary"]["WT"]["dice"]["mean"] == 1.0


def test_evaluate_reports_missing_predictions(tmp_path):
    rng = np.random.default_rng(531)
    volumes = {"caseA": random_labels(rng), "caseB": random_labels(rng)}
    truth = seg_dir(tmp_path, "truth", volumes)
    preds = seg_dir(tmp_path, "preds", {"caseA": volumes["caseA"]})
    report_path = tmp_path / "report.json"
    assert main(["evaluate", str(preds), str(truth), str(report_path)]) == 1
    report = json.loads(report_path.read_text())
    assert report["missing"] == ["caseB"]
    assert [entry["case"] for entry in report["cases"]] == ["caseA"]


def test_evaluate_reports_unreadable_prediction_as_failed(tmp_path, caplog):
    rng = np.random.default_rng(534)
    volumes = {"caseA": random_labels(rng), "caseB": random_labels(rng)}
    truth = seg_dir(tmp_path, "truth", volumes)
    preds = seg_dir(tmp_path, "preds", volumes)
    (preds / f"caseB{SEG}").write_bytes(b"\x1f\x8b\x08\x00\x00\x00\x00")  # truncated gzip
    report_path = tmp_path / "report.json"
    with caplog.at_level("INFO", logger="glioseg"):
        assert main(["evaluate", str(preds), str(truth), str(report_path)]) == 1
    report = json.loads(report_path.read_text())
    assert [entry["case"] for entry in report["cases"]] == ["caseA"]
    assert report["missing"] == []
    assert list(report["failed"]) == ["caseB"] and report["failed"]["caseB"]
    assert "1 case(s) evaluated, 0 missing, 1 failed" in caplog.text


def test_evaluate_records_a_mirrored_prediction_as_failed(tmp_path, caplog):
    rng = np.random.default_rng(536)
    volumes = {"caseA": random_labels(rng), "caseB": random_labels(rng)}
    truth = seg_dir(tmp_path, "truth", volumes)
    mirrored = LabelVolume(volumes["caseB"].data, (1, 1, 1), MIRRORED)
    preds = seg_dir(tmp_path, "preds", {"caseA": volumes["caseA"], "caseB": mirrored})
    report_path = tmp_path / "report.json"
    with caplog.at_level("INFO", logger="glioseg"):
        assert main(["evaluate", str(preds), str(truth), str(report_path)]) == 1
    report = json.loads(report_path.read_text())
    assert [entry["case"] for entry in report["cases"]] == ["caseA"]
    assert list(report["failed"]) == ["caseB"]
    assert str(MIRRORED.tolist()) in report["failed"]["caseB"]
    assert "1 case(s) evaluated, 0 missing, 1 failed" in caplog.text


@pytest.mark.parametrize("parallel", ["1", "2"])
def test_failure_without_a_message_is_recorded_by_its_type(tmp_path, monkeypatch, caplog, parallel):
    rng = np.random.default_rng(535)
    volumes = {"caseA": random_labels(rng), "caseB": random_labels(rng)}
    truth = seg_dir(tmp_path, "truth", volumes)

    def out_of_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "evaluate_case", out_of_memory)
    report_path = tmp_path / "report.json"
    argv = ["evaluate", str(truth), str(truth), str(report_path), "--parallel", parallel]
    with caplog.at_level("INFO", logger="glioseg"):
        assert main(argv) == 1
    report = json.loads(report_path.read_text())
    assert report["failed"] == {"caseA": "MemoryError", "caseB": "MemoryError"}
    assert "case caseA failed: MemoryError" in caplog.text


def test_evaluate_matches_module_scores_exactly(tmp_path):
    rng = np.random.default_rng(532)
    truth_labels = random_labels(rng, dims=(8, 8, 8))
    pred_labels = random_labels(rng, dims=(8, 8, 8))
    truth = seg_dir(tmp_path, "truth", {"caseA": truth_labels})
    preds = seg_dir(tmp_path, "preds", {"caseA": pred_labels})
    report_path = tmp_path / "report.json"
    main(["evaluate", str(preds), str(truth), str(report_path)])
    report = json.loads(report_path.read_text())
    want = evaluate_case(pred_labels, truth_labels)
    assert report["cases"][0]["regions"] == want
    assert report["summary"] == aggregate([want])


def test_evaluate_warns_when_no_truth_file_is_found(tmp_path, caplog):
    rng = np.random.default_rng(536)
    preds = seg_dir(tmp_path, "preds", {"caseA": random_labels(rng)})
    truth = tmp_path / "truth"
    truth.mkdir()
    report_path = tmp_path / "report.json"
    with caplog.at_level("INFO", logger="glioseg"):
        assert main(["evaluate", str(preds), str(truth), str(report_path)]) == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert f"no *{SEG} files under {truth}" in warnings
    report = json.loads(report_path.read_text())
    assert (report["cases"], report["summary"], report["missing"], report["failed"]) == ([], {}, [], {})


def test_evaluate_report_schema(tmp_path):
    rng = np.random.default_rng(533)
    truth = seg_dir(tmp_path, "truth", {"caseA": random_labels(rng)})
    report_path = tmp_path / "deep" / "report.json"
    main(["evaluate", str(truth), str(truth), str(report_path)])
    report = json.loads(report_path.read_text())
    assert set(report) == {"cases", "summary", "missing", "failed", "config"}
    assert report["failed"] == {}
    assert set(report["summary"]) == {"ET", "TC", "WT"}
    for section in report["summary"].values():
        assert set(section) == {"dice", "hd95_mm"}
        assert set(section["dice"]) == {"mean", "std", "median"}
    assert report["config"]["label_suffix"] == SEG
    assert report["config"]["postprocess"]["et_min_volume"] == 50


def test_evaluate_report_holds_numpy_settings_as_plain_numbers(tmp_path):
    # the settings types accept NumPy scalars; the report must still be JSON
    rng = np.random.default_rng(534)
    empty = LabelVolume(np.zeros((6, 6, 6), dtype=np.uint8))
    truth = seg_dir(tmp_path, "truth", {"caseA": random_labels(rng), "caseB": empty})
    report_path = tmp_path / "report.json"
    config = dataclasses.replace(
        PipelineConfig(),
        staple=StapleConfig(max_iterations=np.int64(5)),
        rescale=RescaleSpec(out_min=np.float32(0.0)),
        # caseB's regions are all empty, so its scores are these two settings
        metrics=MetricConfig(empty_empty_dice=np.int64(1), empty_empty_hd95=np.int64(0)),
    )
    assert cli.cmd_evaluate(config, truth, truth, report_path) == 0
    snapshot = config_to_dict(config)
    assert type(snapshot["staple"]["max_iterations"]) is int
    assert type(snapshot["rescale"]["out_min"]) is float
    report = json.loads(report_path.read_text())
    assert report["config"] == json.loads(json.dumps(snapshot))
    for scores in report["cases"][1]["regions"].values():
        assert scores == {"dice": 1.0, "hd95_mm": 0.0}
        assert all(type(value) is float for value in scores.values())


# ---------------------------------------------------- config and parallel


def test_config_file_sets_defaults_and_flags_win(tmp_path):
    labels, _ = et_island_labels(40)
    src = tmp_path / "pred"
    src.mkdir()
    write_label_volume(labels, src / f"caseA{SEG}")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"postprocess": {"et_min_volume": 10}}))
    kept = tmp_path / "kept"
    code = main(["postprocess", str(src), str(kept), "--config", str(config_path)])
    assert code == 0
    assert int((read_label_volume(kept / f"caseA{SEG}").data == 3).sum()) == 40
    removed = tmp_path / "removed"
    code = main([
        "postprocess", str(src), str(removed),
        "--config", str(config_path), "--et-min-volume", "60",
    ])
    assert code == 0
    assert not np.any(read_label_volume(removed / f"caseA{SEG}").data == 3)


def test_invalid_config_is_a_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["demo-net", "vnet", "--size", "8"]) == 0  # sanity: command itself works
    assert main(["postprocess", str(tmp_path), str(tmp_path), "--config", str(bad)]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"no_such_key": 1}))
    assert main(["postprocess", str(tmp_path), str(tmp_path), "--config", str(unknown)]) == 2
    assert main(["postprocess", str(tmp_path), str(tmp_path), "--et-min-volume", "-3"]) == 2


@pytest.mark.parametrize("section", [
    {"staple": {"max_iterations": "10"}},
    {"staple": {"max_iterations": 2.5}},
    {"metrics": {"empty_pred_penalty_mm": "x"}},
    {"parallel_cases": "2"},
    {"prediction_dirs": "member0"},
    {"modality_suffixes": ["-t1n.nii.gz"]},
    {"normalization": {"include_background": "false"}},
    {"postprocess": {"fill_holes": "no"}},
    {"postprocess": {"et_min_volume": 2.5}},
    {"postprocess": {"hole_fill_label": 1.0}},
    {"postprocess": {"foreground_connectivity": 26.0}},
    {"metrics": {"empty_empty_dice": True}},
    {"rescale": {"out_min": False}},
])
def test_mistyped_config_value_is_a_usage_error(tmp_path, section):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(section))
    with pytest.raises(ConfigError):
        load_config(path)
    assert main(["postprocess", str(tmp_path), str(tmp_path), "--config", str(path)]) == 2


@pytest.mark.parametrize("section", [
    {"metrics": {"empty_pred_penalty_mm": float("inf")}},
    {"metrics": {"empty_empty_hd95": float("inf")}},
    {"metrics": {"empty_empty_hd95": -1.0}},
    {"metrics": {"empty_empty_dice": float("nan")}},
    {"metrics": {"empty_empty_dice": 1.5}},
    {"normalization": {"epsilon": float("inf")}},
    {"staple": {"tolerance": float("inf")}},
    {"rescale": {"out_max": float("inf")}},
    {"staple": {"tolerance": 10**400}},  # an integer no float can hold
])
def test_non_finite_or_out_of_range_config_real_is_a_usage_error(tmp_path, section):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(section))  # json writes Infinity and NaN
    with pytest.raises(ConfigError):
        load_config(path)
    assert main(["postprocess", str(tmp_path), str(tmp_path), "--config", str(path)]) == 2


def test_unreadable_config_path_is_a_usage_error(tmp_path):
    (tmp_path / "config.json").mkdir()
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"label_suffix": "\xe9"}')
    for path in (tmp_path / "config.json", latin):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(path)
        assert main(["postprocess", str(tmp_path), str(tmp_path), "--config", str(path)]) == 2


def test_config_types_accept_ints_for_floats_and_the_prior_string():
    config = config_from_dict({
        "staple": {"prior": "auto", "tolerance": 1},
        "rescale": {"out_max": 2},
        "normalization": {"include_background": True},
        "postprocess": {"fill_holes": False, "et_min_volume": 10},
    })
    assert config.staple.tolerance == 1 and config.rescale.out_max == 2
    assert config.normalization.include_background is True
    assert config.postprocess.fill_holes is False
    assert config_from_dict({"staple": {"prior": 0.25}}).staple.prior == 0.25


def test_serial_cases_run_on_the_calling_thread(tmp_path, monkeypatch):
    rng = np.random.default_rng(541)
    src = tmp_path / "src"
    src.mkdir()
    for case in ("caseA", "caseB", "caseC"):
        write_label_volume(random_labels(rng, dims=(4, 4, 4)), src / f"{case}{SEG}")
    threads = []

    def recording(labels, config):
        threads.append(threading.get_ident())
        return labels

    monkeypatch.setattr("glioseg.cli.postprocess_case", recording)
    code = main(["postprocess", str(src), str(tmp_path / "out"), "--parallel", "1"])
    assert code == 0
    assert threads == [threading.get_ident()] * 3


def test_parallel_fuse_matches_serial(tmp_path):
    rng = np.random.default_rng(540)
    dirs = None
    for case in ("caseA", "caseB", "caseC"):
        members = [random_labels(rng, dims=(5, 5, 5)) for _ in range(3)]
        for index, labels in enumerate(members):
            member_dir = tmp_path / f"member{index}"
            member_dir.mkdir(exist_ok=True)
            write_label_volume(labels, member_dir / f"{case}{SEG}")
        dirs = [str(tmp_path / f"member{i}") for i in range(3)]
    serial = tmp_path / "serial"
    threaded = tmp_path / "threaded"
    assert main(["fuse", "--members", *dirs, "--output-dir", str(serial)]) == 0
    code = main(["fuse", "--members", *dirs, "--output-dir", str(threaded), "--parallel", "3"])
    assert code == 0
    for case in ("caseA", "caseB", "caseC"):
        a = read_label_volume(serial / f"{case}{SEG}")
        b = read_label_volume(threaded / f"{case}{SEG}")
        assert np.array_equal(a.data, b.data)


# --------------------------------------------------------------- demo-net


def test_demo_net_prints_structure(capsys):
    assert main(["demo-net", "vnet", "--size", "16"]) == 0
    out = capsys.readouterr().out
    assert "stem_conv" in out
    assert "1x32x16x16x16" in out
    assert "forward: input (1, 4, 16, 16, 16) -> output (1, 4, 16, 16, 16)" in out


def test_demo_net_lists_attention_gates(capsys):
    assert main(["demo-net", "msavnet", "--size", "8"]) == 0
    out = capsys.readouterr().out
    assert all(f"gate{level}" in out for level in range(3))


def test_demo_net_rejects_indivisible_size(capsys):
    assert main(["demo-net", "unet3d", "--size", "30"]) == 2


def test_demo_net_evaluates_each_node_once(monkeypatch):
    calls = []
    original = graph.conv3d_forward

    def counting(x, layer):
        calls.append(layer)
        return original(x, layer)

    monkeypatch.setattr(graph, "conv3d_forward", counting)
    assert main(["demo-net", "vnet", "--size", "8"]) == 0
    convs = [node for node in build_vnet().nodes if node.layer.kind == "conv3d"]
    assert len(calls) == len(convs)


# ------------------------------------------------------------ config unit


def test_config_round_trip_and_validation():
    config = load_config(None)
    assert config.label_suffix == SEG
    assert config.parallel_cases == 1
    payload = config_to_dict(config)
    assert config_from_dict(payload).label_suffix == SEG
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict({"bogus": 1})
    with pytest.raises(ConfigError, match="fusion_method"):
        config_from_dict({"fusion_method": "average"})
    with pytest.raises(ConfigError, match="parallel"):
        config_from_dict({"parallel_cases": 0})
    # PipelineConfig raises like every section; only the loader raises ConfigError
    for error, match, kwargs in [
        (ValueError, "suffix", {"label_suffix": ""}),
        (ValueError, "modality", {"modality_suffixes": {"t1": "-t1.nii.gz"}}),
        (TypeError, "staple", {"staple": {"tolerance": 1e-3}}),
        (TypeError, "normalization", {"normalization": None}),
    ]:
        with pytest.raises(error, match=match) as refused:
            PipelineConfig(**kwargs)
        assert not isinstance(refused.value, ConfigError)
    with pytest.raises(ConfigError, match="tolerance"):
        load_config(None, {"staple_tol": "1e-3"})


def test_readme_config_example_is_accepted():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    config = config_from_dict(json.loads(blocks[0]))
    assert config.postprocess.foreground_connectivity == 26
    assert config.modality_suffixes["t1gd"] == "_t1ce.nii.gz"


def test_readme_library_example_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library = readme[readme.index("\n## Library\n"):]
    snippet = re.search(r"```python\n(.*?)```", library, flags=re.DOTALL).group(1)
    rng = np.random.default_rng(537)
    member_paths = []
    for index in range(3):
        member_paths.append(tmp_path / f"member{index}{SEG}")
        write_label_volume(random_labels(rng), member_paths[-1])
    truth_path = tmp_path / f"truth{SEG}"
    write_label_volume(random_labels(rng), truth_path)
    scope = {"member_paths": member_paths, "truth_path": truth_path}
    exec(snippet, scope)
    assert list(scope["report"]) == ["ET", "TC", "WT"]
    for region, scores in scope["report"].items():
        for metric, value in scores.items():
            assert scope["summary"][region][metric] == {"mean": value, "std": 0.0, "median": value}


def test_readme_flag_table_matches_flag_fields():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `--([a-z-]+)` \| `([a-z_.]+)` \|$", readme, flags=re.MULTILINE)
    table = {}
    for flag, key in rows:
        section, _, name = key.rpartition(".")
        table[flag.replace("-", "_")] = (section or None, name)
    assert table == FLAG_FIELDS


def test_config_partial_modality_merge():
    config = config_from_dict({"modality_suffixes": {"t1": "_T1.nii"}})
    assert config.modality_suffixes["t1"] == "_T1.nii"
    assert config.modality_suffixes["flair"] == "-t2f.nii.gz"


def test_load_config_writes_flags_into_sections():
    updated = load_config(None, {
        "et_min_volume": 70,
        "connectivity": 6,
        "staple_tol": 1e-9,
        "staple_max_iter": 500,
        "method": "majority",
        "parallel": 4,
        "members": None,  # not given: the default stays
    })
    assert updated.postprocess.et_min_volume == 70
    assert updated.postprocess.foreground_connectivity == 6
    assert updated.staple.tolerance == 1e-9
    assert updated.staple.max_iterations == 500
    assert updated.fusion_method == "majority"
    assert updated.parallel_cases == 4
    assert updated.prediction_dirs == ()
    # the rest of each section keeps its defaults
    assert updated.postprocess.hole_connectivity == 6 and updated.staple.prior == "auto"
    with pytest.raises(ConfigError):
        load_config(None, {"et_min_volume": -1})


def test_flags_replace_config_file_values(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "fusion_method": "majority",
        "postprocess": {"et_min_volume": 5, "fill_holes": False},
    }))
    config = load_config(path, {"et_min_volume": 7, "parallel": 2})
    assert config.postprocess.et_min_volume == 7
    assert config.postprocess.fill_holes is False
    assert config.fusion_method == "majority"
    assert config.parallel_cases == 2
    # a payload or section that is no object is refused as it was without flags
    for payload, where in [([], "configuration"), ({"postprocess": 3}, "section 'postprocess'")]:
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match=f"{where} must be a JSON object"):
            load_config(path, {"et_min_volume": 7})


# out-of-range flags argparse lets through, and the config key each one sets
BAD_FLAGS = [
    (["--parallel", "0"], {"parallel_cases": 0}),
    (["--staple-tol", "-1"], {"staple": {"tolerance": -1.0}}),
    (["--staple-max-iter", "0"], {"staple": {"max_iterations": 0}}),
    (["--et-min-volume", "-1"], {"postprocess": {"et_min_volume": -1}}),
]


@pytest.mark.parametrize("flag, payload", BAD_FLAGS, ids=[f"{flag[0][2:]}={flag[1]}" for flag, _ in BAD_FLAGS])
def test_bad_flag_and_bad_config_key_log_the_same_error(tmp_path, caplog, flag, payload):
    stage = ["fuse", "--members", str(tmp_path), "--output-dir", str(tmp_path / "out")]
    if flag[0] == "--et-min-volume":
        stage = ["postprocess", str(tmp_path), str(tmp_path / "out")]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    errors = []
    for argv in (stage + flag, stage + ["--config", str(path)]):
        caplog.clear()
        with caplog.at_level("ERROR", logger="glioseg"):
            assert main(argv) == 2
        errors.append([r.getMessage() for r in caplog.records if r.levelname == "ERROR"])
    assert errors[0] == errors[1] and len(errors[0]) == 1
    assert not (tmp_path / "out").exists()


def test_a_flag_replaces_a_bad_config_value_before_it_is_checked(tmp_path):
    # only the effective settings are checked: the file's -5 never takes effect
    labels, _ = et_island_labels(40)
    src = tmp_path / "pred"
    src.mkdir()
    write_label_volume(labels, src / f"caseA{SEG}")
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"postprocess": {"et_min_volume": -5}}))
    out = tmp_path / "out"
    argv = ["postprocess", str(src), str(out), "--config", str(path)]
    assert main(argv) == 2
    assert main([*argv, "--et-min-volume", "10"]) == 0
    assert int((read_label_volume(out / f"caseA{SEG}").data == 3).sum()) == 40


def test_settings_hold_plain_numbers():
    staple = StapleConfig(max_iterations=np.int64(5), tolerance=1)
    assert type(staple.max_iterations) is int and type(staple.tolerance) is float
    config = dataclasses.replace(
        PipelineConfig(prediction_dirs=["a", "b"]),
        parallel_cases=np.int32(2),
        staple=staple,
        rescale=RescaleSpec(out_min=np.float32(0.5), out_max=2),
        metrics=MetricConfig(empty_empty_hd95=np.int64(0)),
    )
    snapshot = config_to_dict(config)
    restored = json.loads(json.dumps(snapshot))
    restored["prediction_dirs"] = tuple(restored["prediction_dirs"])  # json has no tuple
    assert restored == snapshot
    assert repr(restored) == repr(snapshot)  # the same types too, not only equal values
    assert type(snapshot["rescale"]["out_max"]) is float and type(snapshot["parallel_cases"]) is int


# flag -> (argv that sets it, value it must land on); one row per FLAG_FIELDS key
FLAG_SAMPLES = {
    "parallel": (["evaluate", "p", "t", "r.json", "--parallel", "3"], 3),
    "members": (["fuse", "--members", "a", "b"], ("a", "b")),
    "output_dir": (["fuse", "--output-dir", "out"], "out"),
    "method": (["fuse", "--method", "majority"], "majority"),
    "staple_tol": (["fuse", "--staple-tol", "1e-3"], 1e-3),
    "staple_max_iter": (["fuse", "--staple-max-iter", "7"], 7),
    "et_min_volume": (["postprocess", "in", "out", "--et-min-volume", "9"], 9),
    "connectivity": (["postprocess", "in", "out", "--connectivity", "6"], 6),
}


def _config_leaves(config):
    """The config snapshot flattened to "section.field" keys."""
    leaves = {}
    for key, value in config_to_dict(config).items():
        if isinstance(value, dict):
            leaves.update({f"{key}.{field}": item for field, item in value.items()})
        else:
            leaves[key] = value
    return leaves


@pytest.mark.parametrize("dest", sorted(FLAG_FIELDS))
def test_each_flag_sets_its_config_field(dest):
    argv, expected = FLAG_SAMPLES[dest]
    args = _build_parser().parse_args(argv)
    flags = {k: getattr(args, k) for k in FLAG_FIELDS if hasattr(args, k)}
    before = _config_leaves(load_config(None))
    after = _config_leaves(load_config(None, flags))
    section, name = FLAG_FIELDS[dest]
    key = f"{section}.{name}" if section else name
    assert {k for k in after if after[k] != before[k]} == {key}
    assert after[key] == expected


def test_parser_flags_are_exactly_the_flag_table():
    parser = _build_parser()
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {
        action.dest
        for sub in subcommands.choices.values()
        for action in sub._actions
        if action.option_strings
    }
    assert dests - {"help", "config", "strict", "size"} == set(FLAG_FIELDS)


def test_config_snapshot_key_order_is_pinned():
    assert list(config_to_dict(load_config(None))) == [
        "modality_suffixes", "label_suffix", "prediction_dirs", "output_dir",
        "fusion_method", "parallel_cases",
        "normalization", "rescale", "staple", "postprocess", "metrics",
    ]
