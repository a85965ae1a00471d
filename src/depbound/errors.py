"""The base of depbound's numerical failures, importable without numpy."""


class NumericalError(Exception):
    """A computation failed numerically; the CLI exits 2 on it."""
