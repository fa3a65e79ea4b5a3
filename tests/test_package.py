"""The package's public names: ``__all__`` lists what the package exports."""

from collections import Counter

import graphcurvature


def test_all_names_resolve_without_duplicates():
    names = graphcurvature.__all__
    assert [n for n, c in Counter(names).items() if c > 1] == []
    assert [n for n in names if not hasattr(graphcurvature, n)] == []


def test_star_import_exports_all():
    namespace = {}
    exec("from graphcurvature import *", namespace)
    namespace.pop("__builtins__")
    assert namespace.keys() == set(graphcurvature.__all__)
    for name, obj in namespace.items():
        assert obj is getattr(graphcurvature, name)
