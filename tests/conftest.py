"""Hypothesis profiles for the test suite.

``fuzz-deep`` runs each CLI fuzz case of ``test_cli_fuzz.py`` with 400
examples instead of the 15 of a default run:

    PYTHONPATH=src python -m pytest -q tests/test_cli_fuzz.py --hypothesis-profile=fuzz-deep
"""

from hypothesis import settings

settings.register_profile("fuzz-deep", max_examples=400)
