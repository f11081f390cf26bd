"""Command-line pipeline: normalize, fuse, postprocess, evaluate, demo-net.

Cases are processed independently (optionally in parallel); every output
file is staged under a temp name in the output directory and renamed onto
its target only once written, and normalize moves a case's modalities into
place only once all of them are written. Logs go to standard error,
reports and volumes to files. Exit codes: 0 clean, 1 any case-level
failure, 2 configuration or usage errors: each is raised as a ConfigError
and logged once, by main.
"""

from __future__ import annotations

import argparse
import contextvars
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from glioseg.config import (
    FLAG_FIELDS,
    MODALITIES,
    ConfigError,
    PipelineConfig,
    config_to_dict,
    load_config,
)
from glioseg.metrics import aggregate, evaluate_case
from glioseg.netkit import build_msavnet, build_unet3d, build_vnet, forward, summary
from glioseg.nifti import (
    read_label_volume,
    read_scalar_volume,
    write_label_volume,
    write_scalar_volume,
)
from glioseg.postprocess import CONNECTIVITIES, postprocess_case
from glioseg.preprocess import preprocess_volume
from glioseg.staple import FUSION_METHODS, fuse_labels

logger = logging.getLogger("glioseg")

# the id of the case that _run_cases is running in this thread, if any
_case = contextvars.ContextVar("glioseg_case", default=None)
_make_record = logging.getLogRecordFactory()


def _case_record(*args, **kwargs) -> logging.LogRecord:
    """A log record that, if made on a glioseg logger while a case runs, names the case."""
    record = _make_record(*args, **kwargs)
    case = _case.get()
    if case is not None and (record.name == "glioseg" or record.name.startswith("glioseg.")):
        record.msg, record.args = f"case {case}: {record.getMessage()}", ()
    return record


# process-wide, but it changes only the records made while a case runs
logging.setLogRecordFactory(_case_record)

EXIT_OK = 0
EXIT_CASE_FAILURE = 1
EXIT_USAGE = 2

ARCHITECTURES = {
    "unet3d": build_unet3d,
    "vnet": build_vnet,
    "msavnet": build_msavnet,
}


@contextmanager
def _staged(targets, directory: Path):
    """Yield one temp path in ``directory`` per target; none outlives the block.

    Only if the block succeeds are they renamed onto the targets (parents made then).
    """
    temps = [directory / f".tmp-{os.getpid()}-{target.name}" for target in targets]
    directory.mkdir(parents=True, exist_ok=True)
    try:
        yield temps
        for tmp, target in zip(temps, targets):
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(tmp, target)
    finally:
        for tmp in temps:
            tmp.unlink(missing_ok=True)


def _entries(directory: Path) -> list[Path]:
    """Entries in name order; a hidden name, such as a leftover staging temp, is no case."""
    return [entry for entry in sorted(directory.iterdir()) if not entry.name.startswith(".")]


def _cases_by_suffix(directory: Path, suffix: str) -> dict[str, Path]:
    cases = {}
    for entry in _entries(directory):
        name = entry.name
        # a dangling link is listed too, so its case fails on read instead of vanishing
        if not entry.is_dir() and name.endswith(suffix) and name != suffix:
            cases[name[: -len(suffix)]] = entry
    return cases


def _run_cases(stage: str, cases, run_one, parallel: int) -> dict[str, str]:
    """Call run_one(case) for each case id, isolating failures per case.

    While run_one runs, each record logged on a glioseg logger starts with
    ``case <id>: ``. Each case that succeeds logs its wall time once at
    INFO. A failure is kept as its message: the exception's traceback would
    keep the failed case's volumes alive until the stage ends.
    """
    failures: dict[str, str] = {}

    def attempt(case):
        started = perf_counter()
        token = _case.set(case)
        try:
            run_one(case)
        except Exception as exc:  # noqa: BLE001 - case isolation contract
            failures[case] = str(exc) or type(exc).__name__
            return
        finally:
            _case.reset(token)
        logger.info("case %s: %s in %d ms", case, stage, round(1000 * (perf_counter() - started)))

    if parallel <= 1 or len(cases) <= 1:
        # inline, not a one-worker pool: the pool raised benchmark peak RSS by 20-35 MiB
        list(map(attempt, cases))
    else:
        with ThreadPoolExecutor(max_workers=parallel) as pool:
            list(pool.map(attempt, cases))
    for case in sorted(failures):
        logger.error("case %s failed: %s", case, failures[case])
    return failures


def _close_stage(stage: str, cases, failures, output_dir, skipped=None) -> int:
    """Log a writing stage's closing line and return its exit code."""
    skip = "" if skipped is None else f"{len(skipped)} skipped, "
    logger.info(
        "%s: %d case(s) written, %s%d failed -> %s",
        stage, len(cases) - len(failures), skip, len(failures), output_dir,
    )
    return EXIT_CASE_FAILURE if failures else EXIT_OK


def _require_directory(path: Path, what: str) -> None:
    if not path.is_dir():
        raise ConfigError(f"{what} is not a directory: {path}")


def _require_apart(output_dir: Path, input_dirs, what: str) -> None:
    """Refuse an output_dir that resolves to or inside one of the input directories.

    A stage writing there would replace the inputs it reads, or a rerun
    would read its own outputs (normalize as a case directory).
    """
    for directory in input_dirs:
        if output_dir.resolve().is_relative_to(directory.resolve()):
            raise ConfigError(f"output directory {output_dir} is in the {what} directory {directory}")


def cmd_normalize(config: PipelineConfig, input_dir, output_dir) -> int:
    """Z-score and percentile-rescale every modality of every case."""
    input_dir, output_dir = Path(input_dir), Path(output_dir)
    _require_directory(input_dir, "input")
    _require_apart(output_dir, [input_dir], "input")
    # a dangling link is listed too, so its case fails on read instead of vanishing
    cases = [entry.name for entry in _entries(input_dir) if not entry.is_file()]
    if not cases:
        logger.warning("no case directories under %s", input_dir)
        return EXIT_OK

    def normalize_case(case: str):
        # Modalities go to temp names beside the case directory and are
        # renamed in only once all of them succeeded, so a failed case leaves
        # no partial set behind. One modality's volumes are alive at a time:
        # its input and preprocess_volume's float32 output grid, the type the
        # writer stores. The statistics run on one gather of the included
        # values, freed before that grid is made; the grid is filled slab by slab.
        names = [case + config.modality_suffixes[m] for m in MODALITIES]
        with _staged([output_dir / case / name for name in names], output_dir) as temps:
            for name, tmp in zip(names, temps):
                write_scalar_volume(
                    preprocess_volume(
                        read_scalar_volume(input_dir / case / name),
                        config.normalization, config.rescale,
                    ),
                    tmp,
                )

    failures = _run_cases("normalize", cases, normalize_case, config.parallel_cases)
    return _close_stage("normalize", cases, failures, output_dir)


def cmd_fuse(config: PipelineConfig, strict: bool = False) -> int:
    """Fuse per-member label maps for every case shared by all members."""
    if not config.prediction_dirs:
        raise ConfigError("fuse requires at least one prediction dir (config or --members)")
    if not config.output_dir:
        raise ConfigError("fuse requires an output dir (config or --output-dir)")
    member_dirs = [Path(d) for d in config.prediction_dirs]
    output_dir = Path(config.output_dir)
    for directory in member_dirs:
        _require_directory(directory, "member")
    _require_apart(output_dir, member_dirs, "member")
    per_member = [_cases_by_suffix(d, config.label_suffix) for d in member_dirs]
    for directory, cases in zip(member_dirs, per_member):
        if not cases:
            logger.warning("no *%s files under %s", config.label_suffix, directory)
    shared = set(per_member[0])
    for cases in per_member[1:]:
        shared &= set(cases)
    skipped = sorted(set().union(*per_member) - shared)
    for case in skipped:
        logger.warning("case %s missing from at least one member, skipped", case)
    if strict and skipped:
        logger.error("%d incomplete case(s) under --strict", len(skipped))
        return EXIT_CASE_FAILURE

    def fuse_case(case: str):
        members = [read_label_volume(cases[case]) for cases in per_member]
        fused = fuse_labels(members, config.staple, config.fusion_method)
        with _staged([output_dir / (case + config.label_suffix)], output_dir) as (tmp,):
            write_label_volume(fused, tmp)

    failures = _run_cases("fuse", sorted(shared), fuse_case, config.parallel_cases)
    return _close_stage("fuse", shared, failures, output_dir, skipped)


def cmd_postprocess(config: PipelineConfig, input_dir, output_dir) -> int:
    """Apply label cleanup to every segmentation file in a directory."""
    input_dir, output_dir = Path(input_dir), Path(output_dir)
    _require_directory(input_dir, "input")
    cases = _cases_by_suffix(input_dir, config.label_suffix)
    if not cases:
        logger.warning("no *%s files under %s", config.label_suffix, input_dir)
        return EXIT_OK

    def postprocess_one(case: str):
        labels = read_label_volume(cases[case])
        cleaned = postprocess_case(labels, config.postprocess)
        with _staged([output_dir / cases[case].name], output_dir) as (tmp,):
            write_label_volume(cleaned, tmp)

    failures = _run_cases("postprocess", sorted(cases), postprocess_one, config.parallel_cases)
    return _close_stage("postprocess", cases, failures, output_dir)


def cmd_evaluate(config: PipelineConfig, pred_dir, truth_dir, report_path) -> int:
    """Score predictions against references and write one JSON report."""
    pred_dir, truth_dir = Path(pred_dir), Path(truth_dir)
    _require_directory(pred_dir, "prediction")
    _require_directory(truth_dir, "truth")
    preds = _cases_by_suffix(pred_dir, config.label_suffix)
    truths = _cases_by_suffix(truth_dir, config.label_suffix)
    if not truths:
        logger.warning("no *%s files under %s", config.label_suffix, truth_dir)
    missing = sorted(set(truths) - set(preds))
    for case in missing:
        logger.error("case %s has no prediction", case)
    for case in sorted(set(preds) - set(truths)):
        logger.warning("prediction %s has no reference, ignored", case)
    reports = {}

    def evaluate_one(case: str):
        pred = read_label_volume(preds[case])
        truth = read_label_volume(truths[case])
        reports[case] = evaluate_case(pred, truth, config.metrics)

    shared = sorted(set(truths) & set(preds))
    failures = _run_cases("evaluate", shared, evaluate_one, config.parallel_cases)

    failed = dict(sorted(failures.items()))
    scored = sorted(reports)  # case order, not completion order, so the summary is reproducible
    payload = {
        "cases": [{"case": case, "regions": reports[case]} for case in scored],
        "summary": aggregate([reports[case] for case in scored]) if scored else {},
        "missing": missing,
        "failed": failed,
        "config": config_to_dict(config),
    }
    report_path = Path(report_path)
    try:
        with _staged([report_path], report_path.parent) as (tmp,):
            tmp.write_text(json.dumps(payload, indent=2) + "\n")
    except OSError as exc:
        logger.error("cannot write report %s: %s", report_path, exc)
        return EXIT_CASE_FAILURE
    logger.info(
        "report: %d case(s) evaluated, %d missing, %d failed -> %s",
        len(reports), len(missing), len(failed), report_path,
    )
    return EXIT_CASE_FAILURE if failures or missing else EXIT_OK


def cmd_demo_net(architecture: str, input_size: int) -> int:
    """Build a network, run one seeded forward pass, print its layer table."""
    build = ARCHITECTURES[architecture]
    net = build()
    if input_size < 1 or input_size % net.spatial_divisor:
        raise ConfigError(
            f"input size {input_size} must be a positive multiple of {net.spatial_divisor} "
            f"for {architecture}"
        )
    shape = (1, net.input_channels, input_size, input_size, input_size)
    x = np.random.default_rng(0).uniform(size=shape)
    shapes = {}
    out = forward(net, x, on_node=lambda node, output: shapes.update({node.name: output.shape}))
    expected = (1, net.num_classes, input_size, input_size, input_size)
    if out.shape != expected:
        raise AssertionError(f"forward produced {out.shape}, expected {expected}")
    print(summary(net, shapes))
    print(f"forward: input {shape} -> output {out.shape}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glioseg",
        description="Brain tumor segmentation pipeline: preprocessing, "
        "ensemble label fusion, cleanup, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="PATH", help="JSON configuration file")
        p.add_argument("--parallel", type=int, metavar="N", help="concurrent case pipelines")

    # positional outputs get their own dest: output_dir is the fuse flag's config field
    p = sub.add_parser("normalize", help="z-score and rescale every case's modalities")
    p.add_argument("input_dir")
    p.add_argument("out_dir", metavar="output_dir")
    common(p)

    p = sub.add_parser("fuse", help="fuse per-member predictions into consensus labels")
    common(p)
    p.add_argument("--members", nargs="+", metavar="DIR", help="one directory per ensemble member")
    p.add_argument("--output-dir", metavar="DIR")
    p.add_argument("--method", help=f"one of {', '.join(FUSION_METHODS)}")
    p.add_argument("--staple-tol", type=float, metavar="TOL")
    p.add_argument("--staple-max-iter", type=int, metavar="N")
    p.add_argument("--strict", action="store_true", help="fail on cases missing from a member")

    p = sub.add_parser("postprocess", help="clean fused segmentations")
    p.add_argument("input_dir")
    p.add_argument("out_dir", metavar="output_dir")
    common(p)
    p.add_argument("--et-min-volume", type=int, metavar="VOXELS")
    p.add_argument("--connectivity", type=int, help=f"one of {', '.join(map(str, CONNECTIVITIES))}")

    p = sub.add_parser("evaluate", help="score predictions and write a JSON report")
    p.add_argument("pred_dir")
    p.add_argument("truth_dir")
    p.add_argument("report")
    common(p)

    p = sub.add_parser("demo-net", help="build an architecture and print its layer table")
    p.add_argument("architecture", choices=sorted(ARCHITECTURES))
    p.add_argument("--size", type=int, default=32, metavar="N", help="cubic input size")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "demo-net":
            return cmd_demo_net(args.architecture, args.size)
        flags = {k: getattr(args, k) for k in FLAG_FIELDS if hasattr(args, k)}
        config = load_config(args.config, flags)
        if args.command == "fuse":
            return cmd_fuse(config, strict=args.strict)
        if args.command == "normalize":
            return cmd_normalize(config, args.input_dir, args.out_dir)
        if args.command == "postprocess":
            return cmd_postprocess(config, args.input_dir, args.out_dir)
        return cmd_evaluate(config, args.pred_dir, args.truth_dir, args.report)
    except ConfigError as exc:
        logger.error("%s", exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
