"""End-to-end benchmark of ``expkant.experiments.run``; see ``run.py``."""
