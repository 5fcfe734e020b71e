"""Repository-wide pytest hooks: the ``timing`` marker for wall-clock gates.

A timing assertion fails on a loaded host with the code unchanged, so the
default run (tier-1) holds only each test's equivalence half; CI runs the
timing halves of ``tests/`` and ``benchmarks/`` as their own step with
``-m timing``.
"""


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "timing: a wall-clock gate; deselected unless `-m timing` selects it"
    )


def pytest_collection_modifyitems(config, items):
    """Leave wall-clock gates out of a run whose ``-m`` does not name them."""
    if "timing" in config.getoption("markexpr"):
        return
    timing = [item for item in items if item.get_closest_marker("timing") is not None]
    if timing:
        config.hook.pytest_deselected(items=timing)
        items[:] = [item for item in items if item.get_closest_marker("timing") is None]
