"""The package's one exception type: a `ConfigError` is a usage or input
problem (the CLI exits 1); every other exception is a runtime or numeric
failure (exit 2)."""


class ConfigError(Exception):
    """Bad configuration, malformed input file, or invalid user arguments."""
