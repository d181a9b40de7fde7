"""toralg: exact computer algebra for toroidal Lie algebras, their
Heisenberg/Virasoro relatives, and vertex operator representations on
truncated graded modules. All arithmetic is exact rational."""

__version__ = "0.1.0"


class ConfigError(ValueError):
    """Parameters that select no valid object or run: the caller's input
    is at fault, not the program."""
