"""Exception types shared across the package."""


class CosnetError(Exception):
    """Base class for all package errors."""


class ShapeError(CosnetError):
    """Tensor/matrix shape or dimension violation."""


class GeometryError(CosnetError):
    """Convolution/pooling geometry produces a non-positive output size."""


class ConfigError(CosnetError):
    """Invalid unit/variant configuration."""


class GraphError(CosnetError):
    """Graph construction, shape-propagation or execution failure."""


class VariantLookupError(CosnetError):
    """Unknown variant name; carries the list of known names."""

    def __init__(self, name, known):
        self.name = name
        self.known = list(known)
        super().__init__(f"unknown variant {name!r}; known: {', '.join(self.known)}")


class PlanError(CosnetError):
    """Execution planning failed on an unrecognized structure."""


class LabelError(CosnetError):
    """Class label outside the valid range."""


class DatasetFormatError(CosnetError):
    """Raw dataset file is malformed (magic, truncation, bad label)."""


class CheckpointError(CosnetError):
    """Checkpoint file is malformed, corrupt, or mismatched."""


class DivergenceError(CosnetError):
    """Training loss became NaN or infinite; carries the epoch index."""

    def __init__(self, epoch):
        self.epoch = epoch
        super().__init__(f"loss diverged (not finite) at epoch {epoch}")
