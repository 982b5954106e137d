"""Public-path benchmark of the scheduling library (see README.md)."""
