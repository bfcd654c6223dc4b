"""Reference implementations the tests compare the system against.

Nothing under ``src/repro`` calls these; they live here so that ``src``
holds only what the system reaches (``tests/test_reachability.py``).
"""
