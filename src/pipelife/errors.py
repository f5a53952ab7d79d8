"""Exception hierarchy for the pipelife package.

Every domain error raised by the library derives from PipeLifeError so
callers (and the CLI) can distinguish domain failures from bugs.
"""


class PipeLifeError(Exception):
    """Base class for all pipelife domain errors."""


# -- data ingestion / schema --------------------------------------------------

class UnknownMaterial(PipeLifeError):
    """Material name is not one of the seven recognized variants."""


class FileUnreadable(PipeLifeError):
    """Input file is missing or cannot be opened."""


class SchemaMismatch(PipeLifeError):
    """CSV header lacks a required column."""


class EmptyAfterCleaning(PipeLifeError):
    """Every row was dropped during cleaning."""


class RatioSumInvalid(PipeLifeError):
    """Split ratios do not sum to one."""


class UnknownColumn(PipeLifeError):
    """Requested feature column does not exist."""


class EmptyDataset(PipeLifeError):
    """Operation requires a non-empty dataset."""


# -- statistics ----------------------------------------------------------------

class EmptySeries(PipeLifeError):
    """Series must be non-empty."""


class LengthMismatch(PipeLifeError):
    """Paired series have different lengths."""


class ConstantSeries(PipeLifeError):
    """Series is constant where variation is required."""


class TooFewGroups(PipeLifeError):
    """ANOVA requires at least two groups with two observations each."""


class DegenerateWithinVariance(PipeLifeError):
    """All groups are internally constant and identical; F undefined."""


class TooShort(PipeLifeError):
    """Each sample needs at least two observations."""


# -- metrics -------------------------------------------------------------------

class ConstantActuals(PipeLifeError):
    """Relative error measures are undefined for constant actuals."""


class AllMapeTermsSkipped(PipeLifeError):
    """Every actual value was zero; MAPE undefined."""


class NegativeMape(PipeLifeError):
    """MAPE cannot be negative."""


# -- models --------------------------------------------------------------------

class InvalidConfig(PipeLifeError):
    """Model or generator configuration violates its invariants."""


class DimensionMismatch(PipeLifeError):
    """Input vector dimension does not match the model."""


class EmptyBatch(PipeLifeError):
    """Gradient evaluation requires a non-empty batch."""


class EmptySplit(PipeLifeError):
    """Training requires a non-empty train split."""


class RuleExplosion(PipeLifeError):
    """Grid partition would exceed the configured rule cap."""


class TooFewMfs(PipeLifeError):
    """Grid partition requires at least two membership functions per input."""


class AllRulesZero(PipeLifeError):
    """Total firing strength underflowed; input is outside all rules."""


class UntrainedModel(PipeLifeError):
    """Operation requires a trained model."""


# -- deterioration regression ----------------------------------------------------

class UnsupportedMaterial(PipeLifeError):
    """No built-in deterioration model for this material."""


class OutOfDomain(PipeLifeError):
    """Age or wall-thickness-loss outside the model domain."""


class Underdetermined(PipeLifeError):
    """Fewer observations than basis terms."""


class NonpositiveBaseline(PipeLifeError):
    """Baseline RUL must be positive for a fractional-change check."""
