"""Exception types shared across the package.

Two families matter to callers: ``ParameterError`` for malformed arguments
(bad or NaN orders, out-of-range scales, unparsable configs) and ``DomainError``
for inputs that are well-formed but violate an operation's precondition
(empty sets, null measure, mismatched registries). The CLI maps them to
distinct exit codes.
"""


class ParameterError(ValueError):
    """An argument value is outside the range an operation accepts."""


class DomainError(ValueError):
    """A precondition on otherwise well-formed inputs was violated."""


class EmptySetError(DomainError):
    """A metric operation received an empty set."""


class RegistryMismatchError(DomainError):
    """Operands index into different element registries."""


class UnknownIdError(DomainError):
    """An element id is absent from the registry or distance table."""


class NullMeasureError(DomainError):
    """A measure-based distance received a set of zero total measure."""


class LevelMismatchError(DomainError):
    """Nested operands sit at different nesting depths."""


class SamplingError(DomainError):
    """A sampling plan produced an unusable sample (e.g. an empty side)."""
