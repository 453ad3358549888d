"""Exception types shared across the package.

Every rejected input, whether a system description, a run configuration,
a spec file or a command-line value, raises :class:`InvalidInput` with a
message that names what is wrong.  It is a :class:`ValueError`, so
callers that catch ``ValueError`` keep working.  A simulation whose event
budget would be exceeded raises :class:`NumericalBudget`.

The command line maps ``InvalidInput`` to exit code 2, ``NumericalBudget``
to 3 and ``OSError`` to 4.  Any other exception is a program fault and
shows its traceback.
"""


class PollingModelError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(PollingModelError, ValueError):
    """An input is malformed or out of range; the message says which."""


class NumericalBudget(PollingModelError):
    """The simulation exceeded its configured event budget."""
