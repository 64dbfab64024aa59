from __future__ import annotations

import pytest


@pytest.fixture(autouse=True)
def _empty_rule_store(request):
    """Around every test that patches: start from an empty store of
    transverse rules, and drop what the test built, so that no level
    computed under a patch outlives it."""
    if "monkeypatch" not in request.fixturenames:
        yield
        return
    import latcas.casimir as casimir

    casimir._RULES.clear()
    yield
    casimir._RULES.clear()
