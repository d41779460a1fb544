import random

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# more examples for the differential tests of the expansion kernel:
# pytest tests/test_expr.py tests/test_jordan.py --hypothesis-profile deep
settings.register_profile(
    "deep",
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def pytest_addoption(parser):
    parser.addoption(
        "--seed",
        type=int,
        default=20250810,
        help="seed for randomized property tests",
    )


@pytest.fixture
def seed(request):
    return request.config.getoption("--seed")


@pytest.fixture
def rng(seed):
    return random.Random(seed)
