from functools import cache

import pytest

from permchar import corpus
from permchar.classes import conjugacy_classes


@pytest.fixture(scope="session")
def enumerated_classes():
    """family -> the `ConjugacyClassSet` of its group, enumerated once per
    session (M22's 443,520 elements take seconds); the group is `.group`."""
    return cache(lambda family: conjugacy_classes(corpus.build(family).group))
