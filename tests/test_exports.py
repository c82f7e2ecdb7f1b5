"""The package namespace: every exported name resolves, so a stale export fails."""

import laplacefit


def test_every_export_resolves():
    assert len(set(laplacefit.__all__)) == len(laplacefit.__all__)
    assert [name for name in laplacefit.__all__ if not hasattr(laplacefit, name)] == []


def test_star_import():
    namespace: dict = {}
    exec("from laplacefit import *", namespace)
    assert set(laplacefit.__all__) <= set(namespace)
