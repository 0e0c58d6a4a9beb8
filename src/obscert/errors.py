"""Exception taxonomy shared by all modules.

The CLI maps these onto distinct exit codes, so certification failures,
hypothesis failures and configuration mistakes stay distinguishable in
batch runs.
"""


class ObscertError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(ObscertError):
    """Malformed or inconsistent run configuration."""


class HypothesisError(ObscertError):
    """A hypothesis certificate is violated or cannot be established."""


class InfeasibleError(ObscertError):
    """The certification pipeline cannot proceed with the given inputs."""


class ResolutionError(ObscertError):
    """Grid or direction-fan resolution is too coarse for the operation."""


class SoundnessError(ObscertError):
    """A certified constant failed the soundness oracle, or its trace does not replay."""
