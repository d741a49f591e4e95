"""Exception types shared across the package."""


class HorizonFVError(Exception):
    """Base class for all package errors."""


class DomainError(HorizonFVError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class RangeError(HorizonFVError, ValueError):
    """A requested value lies outside the achievable range of a map."""


class UnsupportedModelError(HorizonFVError, ValueError):
    """The flux model does not have the shape required by an operation."""


class CflError(DomainError):
    """Requested time step violates the stability bound."""


class StepSizeError(HorizonFVError, RuntimeError):
    """Integrator step size too large to keep the state admissible."""


class NumericsError(HorizonFVError, RuntimeError):
    """A numeric fault (NaN / inf) was detected during an update."""


class ContractError(HorizonFVError, ValueError):
    """Mismatched or inconsistent inputs passed to a diagnostic."""


class PresetError(HorizonFVError, ValueError):
    """An experiment preset is invalid for the requested operation."""


class ConfigError(HorizonFVError, ValueError):
    """A run configuration file is malformed or violates a constraint."""
