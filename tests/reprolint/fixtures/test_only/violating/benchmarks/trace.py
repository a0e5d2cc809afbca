"""Fixture: a trace table names code in identifier-only strings."""

ROWS = ("store traced_step", "run.main")
