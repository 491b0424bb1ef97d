"""Hypothesis settings: with the ``CI`` environment variable set, property
tests draw a fixed sequence of examples and print the blob that replays a
failure; without it they keep searching at random."""
import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
