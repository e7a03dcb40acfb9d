"""Settings for the whole test suite."""

import pytest

# Where mypy_extensions is installed, hypothesis's failure report touches its
# deprecated TypedDict.  Under `pytest -W error` that warning turns a failing
# property into an INTERNALERROR which ends the run, so it is ignored on every
# test; any other warning still fails.  A filterwarnings entry in the pytest
# configuration would not do, since `-W error` on the command line overrides it.
_REPORT_WARNING = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(_REPORT_WARNING)
