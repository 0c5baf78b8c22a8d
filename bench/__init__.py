"""The repository benchmark (see README.md); run it with ``python bench/run.py``."""
