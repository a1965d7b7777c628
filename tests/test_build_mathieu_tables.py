"""The table builder's sampled class data against exact enumeration."""

import importlib.util
from pathlib import Path

import pytest

from permchar import corpus
from permchar.classes import conjugacy_classes

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "build_mathieu_tables.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("build_mathieu_tables", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("family", ["m11", "psl2_23", "a7"])
def test_sampled_class_data_agrees_with_enumerated_classes(family):
    G = corpus.build(family).group
    S = _load_tool().SampledClassData(G, seed=0)
    C = conjugacy_classes(G)
    # sampled reps are first-sampled elements, not lex-least, so the two
    # numberings agree up to the bijection sigma
    sigma = [C.classify(r.images) for r in S.reps]
    assert sorted(sigma) == list(range(len(C)))
    assert [C.sizes[k] for k in sigma] == S.sizes
    assert [C.orders[k] for k in sigma] == S.orders
    for g in G.element_images_iter():
        assert sigma[S.classify(g)] == C.classify(g)
