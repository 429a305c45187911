"""Outside-in benchmark of the PyraNet reproduction (see run.py)."""
