from __future__ import annotations

import pytest


@pytest.fixture(autouse=True)
def _empty_rule_store(request):
    """Around every test that patches: start from empty stores of
    transverse rules and even tables, and drop what the test built, so
    that no level or table computed under a patch outlives it."""
    if "monkeypatch" not in request.fixturenames:
        yield
        return
    import latcas.casimir as casimir

    casimir._RULES.clear()
    casimir._table.cache_clear()
    yield
    casimir._RULES.clear()
    casimir._table.cache_clear()
