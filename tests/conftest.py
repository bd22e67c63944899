import numpy as np
import pytest

from surveysynth import _chainlib
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
