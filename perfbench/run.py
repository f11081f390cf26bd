"""glioseg benchmark: BraTS-grid cohorts and netkit forward passes through the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the program from ``src``.

Workloads (why each exists is recorded in BENCHMARK.json):

* ``brats_focal``: per case ``normalize`` (4 int16 modalities), ``fuse``
  (STAPLE over 5 members), ``postprocess`` and ``evaluate``. One compact
  nested tumour per case.
* ``brats_diffuse``: per case ``fuse``, ``postprocess``, ``evaluate`` on the
  same tumour plus ~1000 shared enhancing specks per member.
* ``netkit_forward``: per case one ``demo-net`` call each for unet3d, vnet
  and msavnet at the default 32^3 size.

Method. The seeded generator (cohort.py) writes each case's NIfTI inputs
outside the timed region; the program receives only those files. All CLI
stages run in one child process (worker.py) with the default ``--parallel
1`` and one BLAS thread. Cases run one after another until ``--seconds`` of
stage time has been measured, at least one case. Every stage of every case
is one operation and is checked (see ``_check_*``); an operation fails on a
non-zero exit code, a missing output or a failed check. Failures are
counted from exit codes and per-case outputs, never from the report's
summary.

With ``--trace 0`` the last line carries the end-to-end metrics:

* ``setup_s``: child start to ready (interpreter, imports, config load and,
  for netkit_forward, building the three networks), median of 9 starts.
* ``pipeline_case_s``: median seconds per case over all of the workload's
  CLI stages (for netkit_forward a case is the three demo-net calls).
* ``peak_rss_mib``: peak resident memory of the child process.

The line before it is a report with per-stage timings (``normalize_case_s``,
``fuse_case_s``, ``postprocess_case_s``, ``evaluate_case_s``, ``demo_net_s``),
``failed_ratio``, sample counts, output digests and machine facts; the same
report is written to ``perfbench/out/``.

With ``--trace 1`` every case runs twice in the same child: untraced, then
with spans.py's wrappers installed. The last line carries the per-layer
metrics, per case unless the name says otherwise; ``trace.overhead_s`` is
the traced pass's pipeline time minus the untraced pass's. Layer times are
self times: span duration minus the time its child spans cover, so
``staple.fuse_labels_s`` excludes ``staple.staple_binary_s`` and the
``volume.*`` calls inside it, ``metrics.hd95_s`` excludes ``metrics.edt_s``,
``netkit.forward_s`` and ``netkit.summary_s`` exclude every node span, and
``cli.stage_overhead_s`` is what the stages spend outside every layer span.
Counter bookkeeping is a child span too (``trace.bookkeeping_s``). A
counter that raises makes the traced run incorrect. The spans are written
to ``perfbench/out/``. ``staple.decisions_bytes``, ``netkit.conv3d_gflop``,
``metrics.edt_voxels`` and ``netkit.live_tensor_peak_mib`` are computed
from array shapes at the traced call, not measured.

Metric names and units are read from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy
from scipy import ndimage

import cohort
import spans

HERE = Path(__file__).resolve().parent

SETUP_STARTS = 9  # set-up samples per run: 8 probes plus the worker itself
BLAS_THREADS = 1
ARCHITECTURES = {"unet3d": 15_372_644, "vnet": 14_273_682, "msavnet": 17_834_871}
ET_MIN_VOLUME = 50
DEMO_OUTPUT = "-> output (1, 4, 32, 32, 32)"


@dataclass(frozen=True)
class Workload:
    kind: str  # "focal", "diffuse" or "netkit"
    stages: tuple[str, ...]


WORKLOADS = {
    "brats_focal": Workload("focal", ("normalize", "fuse", "postprocess", "evaluate")),
    "brats_diffuse": Workload("diffuse", ("fuse", "postprocess", "evaluate")),
    "netkit_forward": Workload("netkit", tuple(ARCHITECTURES)),
}


@dataclass
class Operation:
    stage: str
    case: str
    ok: bool
    reason: str = ""
    digest: str = ""


@dataclass
class CaseRun:
    case: str
    traced: bool
    seconds: dict[str, float]
    operations: list[Operation] = field(default_factory=list)

    @property
    def total(self) -> float:
        return sum(self.seconds.values())


# ------------------------------------------------------------- worker


class Worker:
    """The child process that runs every CLI stage of one run."""

    def __init__(self, root: Path, netkit: bool, log_path: Path):
        argv = [sys.executable, str(HERE / "worker.py")]
        argv += ["--netkit"] if netkit else []
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), env.get("PYTHONPATH", "")]).rstrip(
            os.pathsep
        )
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(BLAS_THREADS)
        self._log = open(log_path, "ab")
        start = perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=root, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log,
        )
        try:
            self._receive()
        except (RuntimeError, ValueError):
            self.close()
            raise
        self.setup_s = perf_counter() - start

    def _receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}; see its log")
        return json.loads(line)

    def request(self, payload: dict) -> dict:
        self.proc.stdin.write(json.dumps(payload) + "\n")
        self.proc.stdin.flush()
        return self._receive()

    def close(self) -> None:
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream:
                stream.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._log.close()


def measure_setup(root: Path, netkit: bool, log_path: Path) -> float:
    probe = Worker(root, netkit, log_path)
    probe.close()  # closing its stdin ends the worker after the ready line
    return probe.setup_s


# ------------------------------------------------------------- checks


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_labels(path: Path) -> np.ndarray:
    labels = cohort.decode_nifti(path)
    if labels.shape != cohort.GRID:
        raise ValueError(f"grid {labels.shape}, expected {cohort.GRID}")
    if labels.dtype != np.uint8 or labels.max(initial=0) > 3:
        raise ValueError("labels outside {0, 1, 2, 3}")
    # region nesting ET <= TC <= WT holds for any map of valid codes
    return labels


def _check_normalize(files: cohort.CaseFiles, out: Path) -> str:
    digest = hashlib.sha256()
    for suffix in cohort.MODALITY_SUFFIXES:
        volume = cohort.decode_nifti(out / "norm" / files.case / (files.case + suffix))
        if volume.shape != cohort.GRID or volume.dtype != np.float32:
            raise ValueError(f"{suffix}: grid {volume.shape} of {volume.dtype}")
        if not (np.isfinite(volume).all() and volume.min() >= 0.0 and volume.max() <= 1.0):
            raise ValueError(f"{suffix}: intensities outside [0, 1]")
        digest.update(volume.tobytes())
    return digest.hexdigest()


def _check_fuse(files: cohort.CaseFiles, out: Path, kind: str) -> str:
    fused = _read_labels(out / "fused" / (files.case + cohort.LABEL_SUFFIX))
    if kind == "focal":
        truth = cohort.decode_nifti(files.truth_dir / (files.case + cohort.LABEL_SUFFIX))
        fused_wt, truth_wt = fused > 0, truth > 0
        dice = 2.0 * np.count_nonzero(fused_wt & truth_wt) / (
            np.count_nonzero(fused_wt) + np.count_nonzero(truth_wt)
        )
        if dice < files.mean_member_wt_dice:
            raise ValueError(f"fused WT dice {dice:.4f} below mean member {files.mean_member_wt_dice:.4f}")
    return _sha256(fused.tobytes())


def _check_postprocess(files: cohort.CaseFiles, out: Path, kind: str) -> str:
    cleaned = _read_labels(out / "clean" / (files.case + cohort.LABEL_SUFFIX))
    ids, count = ndimage.label(cleaned == 3, structure=ndimage.generate_binary_structure(3, 3))
    if count:
        smallest = int(np.bincount(ids.ravel())[1:].min())
        if smallest <= ET_MIN_VOLUME:
            raise ValueError(f"an ET component of {smallest} voxels survived cleanup")
    return _sha256(cleaned.tobytes())


def _check_evaluate(files: cohort.CaseFiles, out: Path, kind: str) -> str:
    report = json.loads((out / "report.json").read_text())
    entries = [c for c in report.get("cases", []) if c.get("case") == files.case]
    if len(entries) != 1:
        raise ValueError(f"report has {len(entries)} entries for the truth case")
    regions = entries[0]["regions"]
    if sorted(regions) != ["ET", "TC", "WT"]:
        raise ValueError(f"report regions {sorted(regions)}")
    for scores in regions.values():
        if not (0.0 <= scores["dice"] <= 1.0 and math.isfinite(scores["hd95_mm"]) and scores["hd95_mm"] >= 0.0):
            raise ValueError(f"scores out of range: {scores}")
    return _sha256(json.dumps(regions, sort_keys=True).encode())


def _check_demo_net(arch: str, stdout: str) -> str:
    lines = stdout.splitlines()
    total = next((line.split() for line in lines if line.startswith("total ")), None)
    if total is None or total[-1] != str(ARCHITECTURES[arch]):
        raise ValueError(f"parameter total {total and total[-1]}, expected {ARCHITECTURES[arch]}")
    if not lines or not lines[-1].endswith(DEMO_OUTPUT):
        raise ValueError("forward output shape line missing or wrong")
    return _sha256(stdout.encode())


def check_stage(stage: str, reply: dict, case: str, files, out: Path, kind: str) -> Operation:
    if reply["rc"] != 0:
        return Operation(stage, case, False, f"exit code {reply['rc']}")
    try:
        if kind == "netkit":
            digest = _check_demo_net(stage, reply["stdout"])
        elif stage == "normalize":
            digest = _check_normalize(files, out)
        else:
            digest = {"fuse": _check_fuse, "postprocess": _check_postprocess,
                      "evaluate": _check_evaluate}[stage](files, out, kind)
    except (OSError, ValueError, KeyError) as exc:
        return Operation(stage, case, False, f"{type(exc).__name__}: {exc}")
    return Operation(stage, case, True, digest=digest)


# --------------------------------------------------------------- runs


def stage_argv(stage: str, files, out: Path) -> list[str]:
    if files is None:
        return ["demo-net", stage]
    return {
        "normalize": ["normalize", str(files.modality_dir), str(out / "norm")],
        "fuse": ["fuse", "--members", *map(str, files.member_dirs), "--output-dir", str(out / "fused")],
        "postprocess": ["postprocess", str(out / "fused"), str(out / "clean")],
        "evaluate": ["evaluate", str(out / "clean"), str(files.truth_dir), str(out / "report.json")],
    }[stage]


def run_case(worker: Worker, workload: Workload, case: str, files, out: Path, traced: bool) -> CaseRun:
    shutil.rmtree(out, ignore_errors=True)
    stages = [[stage, stage_argv(stage, files, out)] for stage in workload.stages]
    reply = worker.request({"case": case, "stages": stages, "trace": int(traced)})
    run = CaseRun(case, traced, {s["name"]: s["seconds"] for s in reply["stages"]})
    for stage_reply in reply["stages"]:
        run.operations.append(
            check_stage(stage_reply["name"], stage_reply, case, files, out, workload.kind)
        )
    shutil.rmtree(out, ignore_errors=True)
    return run


def drive(worker: Worker, workload: Workload, seed: int, seconds: float, trace: bool, work: Path):
    """Run cases until `seconds` of measured stage time; return their CaseRuns."""
    runs: list[CaseRun] = []
    measured = 0.0
    index = 0
    while index == 0 or measured < seconds:
        case_dir = work / f"case{index:03d}"
        if workload.kind == "netkit":
            files, case = None, f"netkit{seed:04d}x{index:03d}"
        else:
            files = cohort.generate_case(workload.kind, seed, index, case_dir)
            case = files.case
        for traced in ([False, True] if trace else [False]):
            run = run_case(worker, workload, case, files, case_dir / "out", traced)
            runs.append(run)
        measured += run.total
        shutil.rmtree(case_dir, ignore_errors=True)
        index += 1
    return runs


# ------------------------------------------------------------ metrics


def timing(values: list[float]) -> dict:
    """Median, sample count, and the highest percentile with ten samples beyond it."""
    values = sorted(values)
    summary = {"median": statistics.median(values), "count": len(values)}
    if len(values) >= 20:
        pct = math.floor(100.0 * (len(values) - 10) / len(values))
        summary[f"p{pct}"] = values[math.ceil(pct / 100.0 * len(values)) - 1]
    return summary


def machine_facts() -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mem_total_mib": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
    }
    for index in range(8):
        base = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}")
        try:
            if (base / "level").read_text().strip() == "3":
                facts["l3_cache"] = (base / "size").read_text().strip()
        except OSError:
            break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        facts["blas"] = None
    return facts


# Spans whose self time is reported as "<span>_s", per case.
TIMED_SPANS = (
    "nifti.read_label", "nifti.read_scalar", "nifti.write_label", "nifti.write_scalar",
    "preprocess.volume", "preprocess.zscore", "preprocess.rescale",
    "volume.extract_region", "volume.reconstruct_labels",
    "staple.fuse_labels", "staple.staple_binary",
    "postprocess.case", "postprocess.filter_small_et", "postprocess.repair_tc_holes",
    "metrics.evaluate_case", "metrics.hd95", "metrics.dice", "metrics.edt",
    *(f"netkit.{kind}" for kind in (
        "conv3d", "transposed_conv3d", "normalization", "activation", "attention_gate",
        "downsample", "upsample", "add_skip", "concat_skip", "forward", "summary")),
)


def layer_metrics(span_path: Path, runs: list[CaseRun], workload: Workload) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced run's spans, per case, and the counter errors.

    A layer's time is its self time: span duration minus the time its child
    spans cover (counter bookkeeping included), so the layer times of a stage
    add up to that stage's traced time.
    """
    dump = json.loads(span_path.read_text())
    records = dump["spans"]
    self_time = [r[2] - r[1] for r in records]
    for name, start, end, parent, _, _ in records:
        if parent >= 0:
            self_time[parent] -= end - start
    time_by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    counters: dict[str, dict[str, float]] = {}
    peaks: dict[str, float] = {}
    for i, (name, _, _, _, _, counts) in enumerate(records):
        group = "cli.stage" if name.startswith("cli.") else name
        time_by_name[group] = time_by_name.get(group, 0.0) + self_time[i]
        calls[name] = calls.get(name, 0) + 1
        bucket = counters.setdefault(name, {})
        for key, value in counts.items():
            bucket[key] = bucket.get(key, 0) + value
            peaks[key] = max(peaks.get(key, 0), value)

    traced = [r for r in runs if r.traced]
    plain = [r for r in runs if not r.traced]
    cases = len(traced)

    def per_case_count(name, key):
        return counters.get(name, {}).get(key, 0) / cases

    def ratio(num, den):
        return num / den if den else 0.0

    staple_calls = calls.get("staple.staple_binary", 0)
    hd95 = counters.get("metrics.hd95", {})
    values = {f"{name}_s": time_by_name.get(name, 0.0) / cases for name in TIMED_SPANS}
    values.update({
        "nifti.bytes_read": per_case_count("nifti.read_label", "bytes_read")
        + per_case_count("nifti.read_scalar", "bytes_read"),
        "nifti.bytes_written": per_case_count("nifti.write_label", "bytes_written")
        + per_case_count("nifti.write_scalar", "bytes_written"),
        "preprocess.included_voxels": per_case_count("preprocess.zscore", "included_voxels"),
        "volume.extract_region_calls": calls.get("volume.extract_region", 0) / cases,
        "staple.em_iterations": per_case_count("staple.staple_binary", "em_iterations"),
        "staple.converged_ratio": ratio(counters.get("staple.staple_binary", {}).get("converged", 0), staple_calls),
        "staple.vote_patterns": per_case_count("staple.staple_binary", "vote_patterns"),
        "staple.decisions_bytes": peaks.get("decisions_bytes", 0),
        "postprocess.et_components": per_case_count("postprocess.filter_small_et", "et_components"),
        "postprocess.et_components_removed": per_case_count("postprocess.filter_small_et", "et_components_removed"),
        "postprocess.et_voxels_removed": per_case_count("postprocess.filter_small_et", "et_voxels_removed"),
        "postprocess.hole_voxels_filled": per_case_count("postprocess.repair_tc_holes", "hole_voxels_filled"),
        "metrics.edt_voxels": per_case_count("metrics.edt", "edt_voxels"),
        "metrics.bbox_fraction": ratio(hd95.get("bbox_voxels", 0), hd95.get("grid_voxels", 0)),
        "netkit.conv3d_gflop": per_case_count("netkit.conv3d", "gflop"),
        "netkit.live_tensor_peak_mib": peaks.get("live_tensor_peak_bytes", 0) / 2**20,
        "cli.stage_overhead_s": time_by_name.get("cli.stage", 0.0) / cases,
        "trace.overhead_s": statistics.median(t.total - p.total for t, p in zip(traced, plain)),
        "trace.bookkeeping_s": time_by_name.get(spans.BOOKKEEPING, 0.0) / cases,
    })
    for stage in ("normalize", "fuse", "postprocess", "evaluate"):
        values[f"cli.{stage}_case_s"] = statistics.median(r.seconds.get(stage, 0.0) for r in plain)
    values["cli.demo_net_s"] = (
        statistics.median(s for r in plain for s in r.seconds.values()) if workload.kind == "netkit" else 0.0
    )
    return values, dump["counter_errors"]


def declared_metrics(root: Path, kind: str, values: dict) -> dict:
    """values as result metrics, named and unit-labelled as BENCHMARK.json declares them."""
    declared = json.loads((root / "BENCHMARK.json").read_text())[kind]
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        raise ValueError(f"BENCHMARK.json {kind} names differ from the measured {sorted(values)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


# --------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "glioseg" / "cli.py").is_file():
        print(f"no glioseg sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    netkit = workload.kind == "netkit"
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    out_dir = HERE / "out"
    work = HERE / "work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    log_path = work / "worker.log"
    span_path = out_dir / f"{tag}-spans.json"
    worker = None
    try:
        setup = [measure_setup(root, netkit, log_path) for _ in range(SETUP_STARTS - 1)]
        worker = Worker(root, netkit, log_path)
        setup.append(worker.setup_s)
        runs = drive(worker, workload, args.seed, args.seconds, bool(args.trace), work)
        peak_rss = worker.request({"quit": str(span_path) if args.trace else None})["peak_rss_mib"]
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        if log_path.exists():
            sys.stderr.write(log_path.read_text(errors="replace")[-4000:])
        return 1
    finally:
        if worker is not None:
            worker.close()
        shutil.rmtree(work, ignore_errors=True)

    operations = [op for run in runs for op in run.operations]
    failed = [op for op in operations if not op.ok]
    # a traced pass must reproduce its untraced pass exactly
    by_key: dict[tuple[str, str], set[str]] = {}
    for op in operations:
        if op.ok:
            by_key.setdefault((op.case, op.stage), set()).add(op.digest)
    consistent = all(len(d) == 1 for d in by_key.values())
    plain = [r for r in runs if not r.traced]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cases": len(plain),
        "attempted": len(operations),
        "failed_ratio": len(failed) / len(operations),
        "failures": [f"{op.case} {op.stage}: {op.reason}" for op in failed],
        "setup_s": timing(setup),
        "pipeline_case_s": timing([r.total for r in plain]),
        "peak_rss_mib": peak_rss,
        "digests": {f"{case} {stage}": sorted(d)[0] for (case, stage), d in sorted(by_key.items())},
        "machine": machine_facts(),
    }
    report["outputs_sha256"] = _sha256(json.dumps(report["digests"], sort_keys=True).encode())
    if netkit:
        report["demo_net_s"] = timing([s for r in plain for s in r.seconds.values()])
    else:
        for stage in workload.stages:
            report[f"{stage}_case_s"] = timing([r.seconds[stage] for r in plain])

    counter_errors = []
    if args.trace:
        layers, counter_errors = layer_metrics(span_path, runs, workload)
        report["layers"] = layers
        report["counter_errors"] = counter_errors
        report["computed_not_measured"] = [
            "staple.decisions_bytes", "netkit.conv3d_gflop", "metrics.edt_voxels",
            "netkit.live_tensor_peak_mib",
        ]
        metrics = declared_metrics(root, "per_layer", layers)
    else:
        metrics = declared_metrics(root, "end_to_end", {
            "setup_s": report["setup_s"]["median"],
            "pipeline_case_s": report["pipeline_case_s"]["median"],
            "peak_rss_mib": peak_rss,
        })
    (out_dir / f"{tag}.json").write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({"report": report}))
    result = {
        "correct": not failed and consistent and not counter_errors,
        "attempted": len(operations),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
