"""A repeatable benchmark of the shared data plane (see run.py)."""
