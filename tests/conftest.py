import pytest

from hivekron.diamonds import build_bar, build_tilde
from hivekron.polyhedra import build_cone


@pytest.fixture(scope="session")
def small_builds():
    """The small quivers built once per session; warms the cone cache."""
    out = {}
    for lm in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        out[lm] = {"tilde": build_tilde(*lm), "bar": build_bar(*lm),
                   "cone": build_cone(*lm)}
    return out
