from fractions import Fraction

import pytest

from seqdist import WindowSchedule, fixture, materialize


@pytest.fixture(scope="session")
def f7_prefix_large():
    """Dyadic-harmonic prefix at N = 2**20, shared by the heavier tests."""
    return materialize(fixture("F7"), 2**20)


@pytest.fixture(scope="session")
def f5_prefix_large():
    """Golden-rotation prefix at N = 10**5."""
    return materialize(fixture("F5"), 100_000)


@pytest.fixture(scope="session")
def default_schedule_1e4():
    return WindowSchedule.geometric(10_000)


@pytest.fixture
def fractions_built(monkeypatch):
    """The arguments of every ``Fraction`` built while the test runs."""
    built = []
    new = Fraction.__new__

    def spy(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", spy)
    return built
