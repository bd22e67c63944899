"""Run configuration: one JSON document drives every CLI workflow.

Sections are optional; each maps onto one of the package's spec types.
Unknown keys anywhere are rejected so typos fail loudly instead of
silently running with defaults.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .core import BiasModelSpec, ModelSpec, PriorSpec, check_count
from .datagen import PRIOR_REGIMES, GenDesign
from .mcmc import SamplerSettings
from .simstudy import DEFAULT_STUDY_SETTINGS, StudyConfig

CONFIG_VERSION = 1


class ConfigError(ValueError):
    pass


def _check_keys(section: dict, allowed: tuple[str, ...], where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {section!r}")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _array(value, where: str) -> list:
    """``value``, which a key that takes a list must hold as a JSON array."""
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a JSON array, got {value!r}")
    return value


def _plan_from(value) -> np.ndarray:
    """``generate.n_plan``: a JSON array of equal-length rows of numbers."""
    rows = [_array(row, f"generate.n_plan[{i}]")
            for i, row in enumerate(_array(value, "generate.n_plan"))]
    for i, row in enumerate(rows):
        for v in row:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ConfigError(f"generate.n_plan[{i}] must hold numbers, got {v!r}")
    if len({len(row) for row in rows}) > 1:
        raise ConfigError(f"generate.n_plan rows must be of one length, got {[len(r) for r in rows]}")
    return np.asarray(rows, dtype=float)


def _flag(section: dict, key: str, default: bool, where: str) -> bool:
    value = section.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{where}.{key} must be true or false, got {value!r}")
    return value


def _priors_from(section: dict, where: str) -> PriorSpec:
    _check_keys(
        section,
        ("regime",) + tuple(f.name for f in dataclasses.fields(PriorSpec)),
        where,
    )
    regime = section.get("regime", "default")
    if regime not in PRIOR_REGIMES:
        raise ConfigError(f"{where}: unknown regime {regime!r}, expected one of {PRIOR_REGIMES}")
    base = PriorSpec.narrowed() if regime == "narrowed" else PriorSpec()
    overrides = {k: v for k, v in section.items() if k != "regime"}
    return dataclasses.replace(base, **overrides)


def _bias_from(entries, where: str) -> tuple[BiasModelSpec, ...]:
    out = []
    for i, entry in enumerate(_array(entries, f"{where}.bias")):
        _check_keys(entry, ("kind", "fixed_phi"), f"{where}.bias[{i}]")
        if "kind" not in entry:
            raise ConfigError(f"{where}.bias[{i}]: missing 'kind'")
        fixed = entry.get("fixed_phi")
        if fixed is not None:
            fixed = tuple(_array(fixed, f"{where}.bias[{i}].fixed_phi"))
        out.append(BiasModelSpec(kind=entry["kind"], fixed_phi=fixed))
    return tuple(out)


_SAMPLER_KEYS = ("scale", "n_chains", "burn_in", "n_draws", "thin", "seed", "target_accept", "adapt_window")


def _sampler_from(section: dict, top_seed: int) -> SamplerSettings:
    _check_keys(section, _SAMPLER_KEYS, "sampler")
    scale = section.get("scale", "paper")
    if scale == "paper":
        base = SamplerSettings()
    elif scale == "desk":
        base = SamplerSettings.desk()
    else:
        raise ConfigError(f"sampler.scale must be 'paper' or 'desk', got {scale!r}")
    overrides = {k: v for k, v in section.items() if k != "scale"}
    overrides.setdefault("seed", top_seed)
    return dataclasses.replace(base, **overrides)


_MODEL_KEYS = ("bias", "priors", "monotone_walk", "center_time", "use_exact_nchg")


def _model_from(section: dict) -> ModelSpec:
    _check_keys(section, _MODEL_KEYS, "model")
    if "bias" not in section:
        raise ConfigError("model: missing 'bias' (one entry per survey)")
    return ModelSpec(
        bias=_bias_from(section["bias"], "model"),
        priors=_priors_from(section.get("priors", {}), "model.priors"),
        monotone_walk=_flag(section, "monotone_walk", False, "model"),
        center_time=_flag(section, "center_time", True, "model"),
        use_exact_nchg=_flag(section, "use_exact_nchg", False, "model"),
    )


_GENERATE_KEYS = (
    "n_plan", "population", "bias", "prior_regime", "priors",
    "monotone_walk", "center_time", "labels",
)


def _generate_from(section: dict) -> GenDesign:
    _check_keys(section, _GENERATE_KEYS, "generate")
    for key in ("n_plan", "population", "bias"):
        if key not in section:
            raise ConfigError(f"generate: missing '{key}'")
    check_count("generate.population", section["population"], 1)
    priors = section.get("priors")
    labels = section.get("labels")
    return GenDesign(
        n_plan=_plan_from(section["n_plan"]),
        population=section["population"],
        bias=_bias_from(section["bias"], "generate"),
        prior_regime=section.get("prior_regime", "default"),
        priors=None if priors is None else _priors_from(priors, "generate.priors"),
        monotone_walk=_flag(section, "monotone_walk", False, "generate"),
        center_time=_flag(section, "center_time", True, "generate"),
        labels=None if labels is None else tuple(_array(labels, "generate.labels")),
    )


_STUDY_KEYS = tuple(f.name for f in dataclasses.fields(StudyConfig))


def _study_from(section: dict) -> StudyConfig:
    _check_keys(section, _STUDY_KEYS, "study")
    kwargs = dict(section)
    if "n_times" in kwargs:
        kwargs["n_times"] = tuple(_array(kwargs["n_times"], "study.n_times"))
    return StudyConfig(**kwargs)


@dataclass(frozen=True)
class RunConfig:
    """Validated view of one configuration document."""

    version: int = CONFIG_VERSION
    seed: int = 0
    sampler: SamplerSettings = SamplerSettings()
    model: ModelSpec | None = None
    generate: GenDesign | None = None
    study: StudyConfig | None = None
    explicit_sampler: bool = False

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        _check_keys(doc, ("version", "seed", "sampler", "model", "generate", "study"), "config")
        version = doc.get("version", CONFIG_VERSION)
        seed = doc.get("seed", 0)
        try:
            check_count("version", version, 1)
            if version != CONFIG_VERSION:
                raise ConfigError(f"unsupported config version {version}, expected {CONFIG_VERSION}")
            check_count("seed", seed, 0)
            return cls(
                version=version,
                seed=seed,
                sampler=_sampler_from(doc.get("sampler", {}), seed),
                model=_model_from(doc["model"]) if "model" in doc else None,
                generate=_generate_from(doc["generate"]) if "generate" in doc else None,
                study=_study_from(doc["study"]) if "study" in doc else None,
                explicit_sampler="sampler" in doc,
            )
        except ConfigError:
            raise
        except (TypeError, ValueError) as e:
            # spec constructors validate their own fields; surface those
            # rejections as configuration errors, not crashes
            raise ConfigError(str(e)) from e

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON: {e}") from e
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: config document must be a JSON object")
        return cls.from_dict(doc)

    def study_settings(self) -> SamplerSettings:
        """Sampler settings for the simulation study: the study default unless
        the document supplied an explicit sampler section."""
        return self.sampler if self.explicit_sampler else DEFAULT_STUDY_SETTINGS
