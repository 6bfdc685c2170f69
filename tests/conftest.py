import pytest


@pytest.fixture(autouse=True)
def cache_in_tmp_path(tmp_path, monkeypatch):
    # every test's CLI cache lives in its own tmp_path, never in the
    # checkout's cache/; a test that needs another directory sets the
    # variable itself
    monkeypatch.setenv("LAMBDA2_CACHE_DIR", str(tmp_path))
