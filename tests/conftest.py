import os

import pytest

from sic_simplex import build_context


@pytest.fixture(scope="session", autouse=True)
def isolated_catalog(tmp_path_factory):
    """Keep fiducial caching inside the test session's tmp dir."""
    path = tmp_path_factory.mktemp("catalog") / "fiducials.json"
    old = os.environ.get("SIC_SIMPLEX_CATALOG")
    os.environ["SIC_SIMPLEX_CATALOG"] = str(path)
    yield str(path)
    if old is None:
        os.environ.pop("SIC_SIMPLEX_CATALOG", None)
    else:
        os.environ["SIC_SIMPLEX_CATALOG"] = old


@pytest.fixture(scope="session")
def contexts():
    """One context per dimension; the d >= 3 fiducial searches run once."""
    return {d: build_context(d, seed=1) for d in (2, 3, 4, 5, 6)}
