from functools import cache

import pytest

from permchar import corpus
from permchar.classes import conjugacy_classes

# collected tests that use `enumerated_classes` and have not finished yet
_pending_users = 0


def pytest_collection_finish(session):
    global _pending_users
    _pending_users = sum(
        1 for item in session.items if "enumerated_classes" in getattr(item, "fixturenames", ())
    )


@pytest.fixture(scope="session")
def _class_sets():
    return cache(lambda family: conjugacy_classes(corpus.build(family).group))


@pytest.fixture
def enumerated_classes(_class_sets):
    """family -> the `ConjugacyClassSet` of its group, enumerated once per
    session (M22's 443,520 elements take seconds); the group is `.group`.
    The class sets are dropped when the last collected test that uses them
    finishes, so M22's element map does not outlive its users."""
    global _pending_users
    yield _class_sets
    _pending_users -= 1
    if _pending_users == 0:
        _class_sets.cache_clear()
