"""Ensure the in-tree package is importable when running pytest.

Equivalent to ``pip install -e .``; kept so the test-suite runs in
environments where editable installs are unavailable (e.g. offline
machines without the ``wheel`` package).
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(__file__), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

try:
    from hypothesis import settings
except ImportError:  # the CI jobs that install no hypothesis
    pass
else:
    # ``--hypothesis-profile=engine-deep``: the larger example budget the
    # engine CI job gives the properties that read it
    settings.register_profile("engine-deep", max_examples=500,
                              deadline=None)
