import pytest

from irslink import experiments


@pytest.fixture
def shard_any_work(monkeypatch):
    """Let every study start a shard process for any work: the studies the
    tests run are too small to start one at their measured
    ``Study.shard_work``, and would run in process whatever their workers."""
    for name, spec in experiments.STUDIES.items():
        monkeypatch.setitem(experiments.STUDIES, name, spec._replace(shard_work=1))
