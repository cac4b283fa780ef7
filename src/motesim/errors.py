"""Exception hierarchy shared by all simulator layers."""


class MotesimError(Exception):
    """Base class for all simulator errors."""


class ConfigError(MotesimError):
    """A parameter violates its documented range or type (CLI exit code 1)."""


class ScenarioError(ConfigError):
    """A scenario or preset argument failed validation (CLI exit code 1)."""


class TableEntryMissing(MotesimError):
    """Sensitivity table has no entry for the requested (SF, BW) pair."""


class ZeroDistanceError(MotesimError):
    """Transmitter and receiver occupy the same position."""


class IllegalTransition(MotesimError):
    """A node received an event that is not legal in its current state.

    This signals a stack bug and aborts the simulation. The message names
    the node, the event, the state and the virtual time; no event trace is
    attached.
    """


class ContractViolation(MotesimError):
    """A radio driver was used outside its documented contract."""


class RadioUnavailable(MotesimError):
    """Send requested while the radio is off or not yet ready."""


class PayloadTooLarge(MotesimError):
    """Unicast payload exceeds the configured MTU."""


def validated(cls):
    """Make the named tuple ``cls`` run its ``_check`` method, which raises
    ``ConfigError``, on every construction, ``_make`` and ``_replace`` too:
    they would build through ``tuple.__new__`` and skip it."""
    build = cls.__new__

    def __new__(klass, *args, **kwargs):
        record = build(klass, *args, **kwargs)
        record._check()
        return record

    cls.__new__ = staticmethod(__new__)
    cls._make = classmethod(lambda klass, values: klass(*values))
    return cls
