import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from sdembed.network import SigmoidNet

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def net_builds(monkeypatch):
    """A list that gains each `SigmoidNet` as it is constructed during the test."""
    built = []
    validate = SigmoidNet.__post_init__

    def counted(net):
        built.append(net)
        validate(net)

    monkeypatch.setattr(SigmoidNet, "__post_init__", counted)
    return built
