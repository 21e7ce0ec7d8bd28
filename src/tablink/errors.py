"""Exception types shared across the package."""


class TablinkError(Exception):
    """Base class for all errors raised by this package."""


class InvalidEntityId(TablinkError, ValueError):
    """String is not a well-formed Q/P identifier."""


class ConfigError(TablinkError):
    """Domain config file is structurally invalid."""


class UnresolvedTypeName(ConfigError):
    """A tier, near-miss map, or inference rule references a type name
    missing from the type dictionary."""


class TierConflict(ConfigError):
    """The same type id appears under bad and a positive tier."""


class BadWeights(ConfigError):
    """Score weights are negative or do not sum to 1.0 within tolerance."""


class ParseError(TablinkError):
    """An input document (dump entity, table, JSON Lines line) is malformed."""


class EmptyMention(TablinkError):
    """Mention normalizes to nothing (or only stopwords)."""


class IndexUnavailable(TablinkError):
    """Index directory is missing required pieces or was built with an
    incompatible format version."""


class GoldMismatch(TablinkError):
    """A gold record addresses a cell absent from the annotations."""
