"""The package surface: every exported name resolves, and none is listed twice."""

import ktq


def test_all_names_resolve():
    missing = [name for name in ktq.__all__ if not hasattr(ktq, name)]
    assert not missing


def test_all_has_no_duplicates():
    assert len(ktq.__all__) == len(set(ktq.__all__))
