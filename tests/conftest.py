import collections

import numpy as np
import pytest

from surveysynth import _chainlib, mcmc
from surveysynth.core import BiasModelSpec, ModelSpec, SurveyPanel

DEMO_Y = [
    [9, 18, 4, 14, 20, 3, 8, 3, 6, 12],
    [66, 48, 7, 19, 30, 2, 10, 2, 2, 6],
    [207, 293, 102, 208, 345, 117, 185, 145, 174, 441],
]
DEMO_N = [[100] * 10, [1000] * 10, [1000] * 10]


@pytest.fixture(scope="session", autouse=True)
def hermetic_environment(tmp_path_factory):
    """The compiled sweep built into a temporary cache for the session, not
    the user's: XDG_CACHE_HOME points there, subprocesses included, and the
    library's path is looked up afresh. SURVEYSYNTH_WORKERS is removed, so
    fits run serially whatever the caller set. A test may still set either."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        patch.delenv("SURVEYSYNTH_WORKERS", raising=False)
        _chainlib.library.cache_clear()
        yield
    _chainlib.library.cache_clear()


@pytest.fixture
def demo_panel() -> SurveyPanel:
    """Three-survey, ten-point demonstration panel with one unbiased survey."""
    return SurveyPanel(
        y=np.array(DEMO_Y, dtype=float),
        n=np.array(DEMO_N, dtype=float),
        population=10_000,
        labels=("survey1", "survey2", "survey3"),
    )


@pytest.fixture
def demo_spec() -> ModelSpec:
    return ModelSpec(
        bias=(
            BiasModelSpec.anchor(),
            BiasModelSpec(kind="linear"),
            BiasModelSpec(kind="linear"),
        )
    )


@pytest.fixture
def count_calls(monkeypatch):
    """``count(module, *names)`` wraps each named attribute of ``module`` as
    a benchmark wraps it, through the module's globals, and returns a
    Counter of the calls made through each."""

    def count(module, *names):
        calls = collections.Counter()

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in names:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        return calls

    return count


@pytest.fixture
def fft_rows(monkeypatch):
    """The number of series each ESS pass of ``mcmc.split_stats`` takes
    through the FFT, one entry per chunk."""
    rows = []
    real = mcmc._geyer_ess

    def recording(halves, *args):
        rows.append(halves.shape[0])
        return real(halves, *args)

    monkeypatch.setattr(mcmc, "_geyer_ess", recording)
    return rows
