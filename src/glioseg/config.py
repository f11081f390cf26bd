"""Pipeline configuration: one JSON document, with CLI flags written into it.

The file is a flat object of optional sections; anything omitted keeps
its default. Section names mirror the dataclasses they configure.
load_config writes each given flag into the parsed payload at its
FLAG_FIELDS key, then one builder checks the effective settings: each
settings class, PipelineConfig included, checks its field types and the
intervals and choices declared on its fields (volume.check_field_types)
and its own rules between fields, raising TypeError or ValueError;
the builder refuses unknown keys and non-object sections, and turns every
refusal into a ConfigError:

    {
      "modality_suffixes": {"t1": "-t1n.nii.gz", ...},
      "label_suffix": "-seg.nii.gz",
      "prediction_dirs": ["member0", "member1"],
      "output_dir": "fused",
      "fusion_method": "staple",
      "parallel_cases": 1,
      "normalization": {"include_background": false, "epsilon": 1e-8},
      "rescale": {"lo_percentile": 2.0, "hi_percentile": 98.0, "out_min": 0.0, "out_max": 1.0},
      "staple": {"prior": "auto", "tolerance": 1e-7, "max_iterations": 100},
      "postprocess": {"et_min_volume": 50, "foreground_connectivity": 26},
      "metrics": {"empty_pred_penalty_mm": 373.13}
    }
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Annotated, Literal

from glioseg.metrics import MetricConfig
from glioseg.postprocess import PostprocessConfig
from glioseg.preprocess import NormalizationPolicy, RescaleSpec
from glioseg.staple import FUSION_METHODS, StapleConfig
from glioseg.volume import check_field_types

MODALITIES = ("t1", "t1gd", "t2", "flair")

# the public BraTS release naming; overridable per deployment
DEFAULT_MODALITY_SUFFIXES = {
    "t1": "-t1n.nii.gz",
    "t1gd": "-t1c.nii.gz",
    "t2": "-t2w.nii.gz",
    "flair": "-t2f.nii.gz",
}
DEFAULT_LABEL_SUFFIX = "-seg.nii.gz"


class ConfigError(ValueError):
    """Invalid configuration file or flag combination."""


# argparse dest -> (section, field) it is written to; section None is a top-level field
FLAG_FIELDS = {
    "parallel": (None, "parallel_cases"),
    "members": (None, "prediction_dirs"),
    "output_dir": (None, "output_dir"),
    "method": (None, "fusion_method"),
    "staple_tol": ("staple", "tolerance"),
    "staple_max_iter": ("staple", "max_iterations"),
    "et_min_volume": ("postprocess", "et_min_volume"),
    "connectivity": ("postprocess", "foreground_connectivity"),
}


@dataclass(frozen=True)
class PipelineConfig:
    modality_suffixes: dict = field(default_factory=lambda: dict(DEFAULT_MODALITY_SUFFIXES))
    label_suffix: str = DEFAULT_LABEL_SUFFIX
    prediction_dirs: tuple | list = ()
    output_dir: str = ""
    fusion_method: Literal[FUSION_METHODS] = "staple"
    # declared before the sections: the snapshot keeps this order
    parallel_cases: Annotated[int, "[1, inf)"] = 1
    normalization: NormalizationPolicy = field(default_factory=NormalizationPolicy)
    rescale: RescaleSpec = field(default_factory=RescaleSpec)
    staple: StapleConfig = field(default_factory=StapleConfig)
    postprocess: PostprocessConfig = field(default_factory=PostprocessConfig)
    metrics: MetricConfig = field(default_factory=MetricConfig)

    def __post_init__(self):
        check_field_types(self)
        if set(self.modality_suffixes) != set(MODALITIES):
            raise ValueError(
                f"modality_suffixes must map exactly {sorted(MODALITIES)}, "
                f"got {sorted(self.modality_suffixes)}"
            )
        for key, suffix in self.modality_suffixes.items():
            if not isinstance(suffix, str) or not suffix:
                raise ValueError(f"suffix for {key!r} must be a non-empty string")
        if len(set(self.modality_suffixes.values())) < len(MODALITIES):
            # the modalities of a case would be written to one file
            raise ValueError(f"modality_suffixes must differ, got {self.modality_suffixes}")
        if not self.label_suffix:
            raise ValueError("label_suffix must be a non-empty string")
        if not all(isinstance(d, str) for d in self.prediction_dirs):
            raise ValueError("prediction_dirs must be a list of strings")
        object.__setattr__(self, "prediction_dirs", tuple(self.prediction_dirs))


def _build(cls, payload, where: str):
    """``cls`` from a JSON object with no unknown keys, each section from its own object."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(payload).__name__}")
    factories = {f.name: f.default_factory for f in dataclasses.fields(cls)}
    unknown = set(payload) - set(factories)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    kwargs = dict(payload)
    for key, value in payload.items():
        if dataclasses.is_dataclass(factories[key]):
            kwargs[key] = _build(factories[key], value, f"section {key!r}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def config_from_dict(payload: dict) -> PipelineConfig:
    """Build the settings from a parsed config file; modality_suffixes merges with the defaults."""
    if isinstance(payload, dict) and isinstance(payload.get("modality_suffixes"), dict):
        suffixes = {**DEFAULT_MODALITY_SUFFIXES, **payload["modality_suffixes"]}
        payload = {**payload, "modality_suffixes": suffixes}
    return _build(PipelineConfig, payload, "configuration")


def load_config(path: str | Path | None, flags: dict | None = None) -> PipelineConfig:
    """Parse a JSON config file (None: no file) with flags, keyed by FLAG_FIELDS dest, written in.

    A flag whose value is None was not given. A flag replaces the file's
    value before anything is checked, so a bad file value it replaces is
    never refused.
    """
    payload = {}
    if path is not None:
        path = Path(path)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if isinstance(payload, dict):  # a payload or section that is no object is _build's to refuse
        for dest, value in (flags or {}).items():
            section, name = FLAG_FIELDS[dest]
            target = payload if section is None else payload.setdefault(section, {})
            if value is not None and isinstance(target, dict):
                target[name] = value
    return config_from_dict(payload)


def config_to_dict(config: PipelineConfig) -> dict:
    """JSON-serializable snapshot of the effective configuration."""
    return dataclasses.asdict(config)
