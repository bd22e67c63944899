import json
import re

import numpy as np
import pytest

from surveysynth.config import ConfigError, RunConfig, StudyConfig
from surveysynth.core import BiasModelSpec, PriorSpec
from surveysynth.mcmc import SamplerSettings
from surveysynth.simstudy import DEFAULT_STUDY_SETTINGS


def test_empty_config_gives_defaults():
    cfg = RunConfig.from_dict({})
    assert cfg.version == 1
    assert cfg.seed == 0
    assert cfg.sampler == SamplerSettings(seed=0)
    assert cfg.model is None
    assert cfg.generate is None
    assert cfg.study is None


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigError, match="surprise"):
        RunConfig.from_dict({"surprise": 1})
    with pytest.raises(ConfigError, match="sampler"):
        RunConfig.from_dict({"sampler": {"n_chain": 2}})
    with pytest.raises(ConfigError, match="model"):
        RunConfig.from_dict({"model": {"bias": [{"kind": "known"}], "montone": True}})
    with pytest.raises(ConfigError, match="priors"):
        RunConfig.from_dict(
            {"model": {"bias": [{"kind": "known"}], "priors": {"theta_mean": 0}}}
        )
    with pytest.raises(ConfigError, match="study"):
        RunConfig.from_dict({"study": {"reps": 2}})


def test_bad_field_values_become_config_errors():
    with pytest.raises(ConfigError, match="kind"):
        RunConfig.from_dict({"model": {"bias": [{"kind": "anchor"}]}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"model": {"bias": [{"kind": "known", "fixed_phi": 2.0}]}})
    # counts and seeds must be integers (not floats or booleans), seeds non-negative
    for doc, named in [({"seed": 1.5}, "seed"), ({"seed": -3}, "seed"), ({"seed": True}, "seed"),
                       ({"study": {"n_reps": 1.5}}, "n_reps"), ({"study": {"n_reps": 0}}, "n_reps"),
                       ({"study": {"n_times": [5, 7.5]}}, "n_times"),
                       ({"study": {"n_anchor": 100.0}}, "n_anchor"),
                       ({"study": {"population": True}}, "population"),
                       ({"sampler": {"burn_in": 10.5}}, "burn_in"),
                       ({"version": 1.5}, "version"), ({"version": True}, "version"),
                       ({"generate": {"n_plan": [[100]], "population": 50_000.7,
                                      "bias": [{"kind": "known"}]}}, "population")]:
        with pytest.raises(ConfigError, match=named):
            RunConfig.from_dict(doc)
    assert StudyConfig(n_times=(np.int64(3),), n_reps=2).n_times == (3,)


@pytest.mark.parametrize(
    "doc, where",
    [
        ({"sampler": []}, "sampler"),
        ({"study": []}, "study"),
        ({"model": "walk"}, "model"),
        ({"generate": []}, "generate"),
        ({"model": {"bias": [{"kind": "known"}], "priors": []}}, "model.priors"),
        ({"generate": {"n_plan": [[100]], "population": 5000, "bias": [{"kind": "known"}],
                       "priors": "narrowed"}}, "generate.priors"),
        ({"model": {"bias": [["walk"]]}}, "model.bias[0]"),
    ],
)
def test_sections_must_be_json_objects(doc, where):
    with pytest.raises(ConfigError, match=f"^{re.escape(where)} must be a JSON object"):
        RunConfig.from_dict(doc)


_GENERATE = {"n_plan": [[100]], "population": 1000, "bias": [{"kind": "known"}]}


@pytest.mark.parametrize(
    "doc, where",
    [
        ({"model": {"bias": "walk"}}, "model.bias"),
        ({"model": {"bias": {"kind": "walk"}}}, "model.bias"),
        ({"model": {"bias": 3}}, "model.bias"),
        ({"generate": {**_GENERATE, "bias": {"kind": "known"}}}, "generate.bias"),
        ({"model": {"bias": [{"kind": "known", "fixed_phi": "12"}]}}, "model.bias[0].fixed_phi"),
        ({"generate": {**_GENERATE, "bias": [{"kind": "known", "fixed_phi": 2.0}]}},
         "generate.bias[0].fixed_phi"),
        ({"generate": {**_GENERATE, "labels": "a"}}, "generate.labels"),
        ({"study": {"n_times": 5}}, "study.n_times"),
    ],
)
def test_list_keys_must_be_json_arrays(doc, where):
    with pytest.raises(ConfigError, match=f"^{re.escape(where)} must be a JSON array"):
        RunConfig.from_dict(doc)


@pytest.mark.parametrize("n_times", [[], [5, 5], [5, 10, 5]])
def test_study_n_times_must_be_distinct_and_not_empty(n_times):
    with pytest.raises(ConfigError, match="study.n_times must list distinct panel lengths"):
        RunConfig.from_dict({"study": {"n_times": n_times}})
    assert RunConfig.from_dict({"study": {"n_times": [10, 5]}}).study.n_times == (10, 5)


def test_version_checked():
    assert RunConfig.from_dict({"version": 1}).version == 1
    with pytest.raises(ConfigError, match="version"):
        RunConfig.from_dict({"version": 2})


def test_sampler_scales_and_overrides():
    cfg = RunConfig.from_dict({"sampler": {"scale": "desk"}})
    assert cfg.sampler == SamplerSettings.desk()
    cfg = RunConfig.from_dict({"sampler": {"scale": "paper", "n_chains": 3}, "seed": 7})
    assert cfg.sampler.n_chains == 3
    assert cfg.sampler.burn_in == SamplerSettings().burn_in
    assert cfg.sampler.seed == 7  # top-level seed flows into the sampler
    cfg = RunConfig.from_dict({"sampler": {"seed": 11}, "seed": 7})
    assert cfg.sampler.seed == 11  # explicit sampler seed wins
    with pytest.raises(ConfigError, match="scale"):
        RunConfig.from_dict({"sampler": {"scale": "galactic"}})


def test_model_section_builds_spec():
    cfg = RunConfig.from_dict(
        {
            "model": {
                "bias": [
                    {"kind": "known"},
                    {"kind": "linear"},
                    {"kind": "known", "fixed_phi": [2.0, 2.0]},
                ],
                "monotone_walk": True,
                "center_time": False,
                "use_exact_nchg": True,
                "priors": {"regime": "narrowed", "theta0_mean": -2.0},
            }
        }
    )
    spec = cfg.model
    assert [b.kind for b in spec.bias] == ["known", "linear", "known"]
    assert spec.bias[2].fixed_phi == (2.0, 2.0)
    assert spec.monotone_walk and not spec.center_time and spec.use_exact_nchg
    # narrowed regime plus one override
    base = PriorSpec.narrowed()
    assert spec.priors.theta0_mean == -2.0
    assert spec.priors.sigma_sq_scale == base.sigma_sq_scale
    with pytest.raises(ConfigError, match="regime"):
        RunConfig.from_dict(
            {"model": {"bias": [{"kind": "known"}], "priors": {"regime": "huge"}}}
        )
    with pytest.raises(ValueError):
        RunConfig.from_dict({"model": {"bias": [{"kind": "mystery"}]}})


def test_generate_section_builds_design():
    cfg = RunConfig.from_dict(
        {
            "generate": {
                "n_plan": [[100, 100], [0, 1000]],
                "population": 5000,
                "bias": [{"kind": "known"}, {"kind": "constant"}],
                "prior_regime": "narrowed",
                "labels": ["anchor", "online"],
                "monotone_walk": True,
            }
        }
    )
    d = cfg.generate
    assert d.n_plan.shape == (2, 2)
    assert d.population == 5000
    assert d.labels == ("anchor", "online")
    assert d.prior_regime == "narrowed"
    assert d.monotone_walk
    assert [b.kind for b in d.bias] == ["known", "constant"]


def test_generate_priors_override():
    cfg = RunConfig.from_dict(
        {
            "generate": {
                "n_plan": [[10]],
                "population": 100,
                "bias": [{"kind": "known"}],
                "priors": {"theta0_var": 0.5},
            }
        }
    )
    assert cfg.generate.priors == PriorSpec(theta0_var=0.5)


def test_study_section():
    cfg = RunConfig.from_dict({"study": {"n_times": [5], "n_reps": 2}})
    assert cfg.study == StudyConfig(n_times=(5,), n_reps=2)
    assert cfg.study.n_anchor == 100
    full = RunConfig.from_dict(
        {"study": {"n_times": [5, 10], "n_reps": 3, "n_anchor": 50, "n_biased": 500, "population": 999}}
    )
    assert full.study.n_times == (5, 10)
    assert full.study.population == 999


def test_study_settings_default_when_no_sampler_section():
    cfg = RunConfig.from_dict({"study": {"n_times": [5], "n_reps": 1}})
    assert cfg.study_settings() == DEFAULT_STUDY_SETTINGS
    cfg = RunConfig.from_dict(
        {"study": {"n_times": [5], "n_reps": 1}, "sampler": {"n_chains": 2, "burn_in": 10, "n_draws": 20, "thin": 1}}
    )
    assert cfg.study_settings().burn_in == 10


def test_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 3}))
    cfg = RunConfig.from_file(path)
    assert cfg.seed == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        RunConfig.from_file(bad)


@pytest.mark.parametrize(
    "section, key",
    [("model", "monotone_walk"), ("model", "center_time"), ("model", "use_exact_nchg"),
     ("generate", "monotone_walk"), ("generate", "center_time")],
)
@pytest.mark.parametrize("value", ["false", 0, 1, None])
def test_flags_must_be_json_booleans(section, key, value):
    body = {"bias": [{"kind": "known"}], key: value}
    if section == "generate":
        body.update(n_plan=[[100]], population=5000)
    with pytest.raises(ConfigError, match=f"{section}.{key} must be true or false"):
        RunConfig.from_dict({section: body})


@pytest.mark.parametrize("key", ["theta0_mean", "theta0_var", "sigma_sq_scale", "pi_sq_scale"])
def test_priors_must_be_numbers_not_booleans(key):
    # true once read as 1: PriorSpec(theta0_var=True)
    doc = {"model": {"bias": [{"kind": "known"}], "priors": {key: True}}}
    with pytest.raises(ConfigError, match=f"{key} must be a number, got True"):
        RunConfig.from_dict(doc)
    with pytest.raises(ValueError, match=key):
        PriorSpec(**{key: False})


def test_fixed_phi_must_be_numbers_not_booleans():
    # [true, 1] once read as (1.0, 1.0)
    doc = {"model": {"bias": [{"kind": "known", "fixed_phi": [True, 1]}]}}
    with pytest.raises(ConfigError, match="fixed_phi value must be a number, got True"):
        RunConfig.from_dict(doc)
    with pytest.raises(ValueError, match="fixed_phi"):
        BiasModelSpec(kind="known", fixed_phi=(1.0, "2"))
    assert BiasModelSpec(kind="known", fixed_phi=[np.float64(2.0), 1]).fixed_phi == (2.0, 1.0)


def test_generate_truth_seed_is_an_unknown_key():
    body = {"n_plan": [[100]], "population": 5000, "bias": [{"kind": "known"}]}
    assert RunConfig.from_dict({"generate": body}).generate.n_times == 1
    with pytest.raises(ConfigError, match="unknown key.*truth_seed"):
        RunConfig.from_dict({"generate": {**body, "truth_seed": 7}})
