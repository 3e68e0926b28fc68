import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from laco import model as model_module  # noqa: E402


@pytest.fixture(autouse=True)
def shortcuts_stay_on():
    """Fail a test that leaves ``laco.model.SHORTCUTS`` off: every later
    "shortcuts against the full path" check would compare the full path with
    itself.  Autouse, so it tears down after ``monkeypatch`` has undone its patches."""
    yield
    if model_module.SHORTCUTS is not True:
        model_module.SHORTCUTS = True
        pytest.fail("the test left laco.model.SHORTCUTS off")


@pytest.fixture
def full_steps(monkeypatch):
    """Count full decode steps (``DecodeBatch`` calls) from here on, in a one-element list."""
    steps, full_step = [0], model_module.DecodeBatch.__call__

    def counted(batch, *args):
        steps[0] += 1
        return full_step(batch, *args)

    monkeypatch.setattr(model_module.DecodeBatch, "__call__", counted)
    return steps
