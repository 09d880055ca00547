"""Exception types shared across the toolkit."""


class ConfigurationError(ValueError):
    """Invalid model or campaign parameters."""


class ModelRangeError(ConfigurationError):
    """A query fell outside the range where the timing model is valid."""


class DatasetError(ValueError):
    """A campaign dataset is incomplete or inconsistent."""


class DecodeFailure(Exception):
    """The received word is not correctable (more than t errors)."""
