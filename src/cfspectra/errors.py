"""Shared exception types."""


class SpectraError(Exception):
    pass


class DomainError(SpectraError):
    """Input outside an operation's mathematical domain."""


class NotRenormalizable(SpectraError):
    """The word admits no valid decomposition at this renormalization step."""


class NoValidExtension(SpectraError):
    """No one-digit completion of the word to an {a,b}-word exists."""


class TemplateMismatch(SpectraError):
    """A cut does not match the requested push template."""


class PreconditionUnverified(SpectraError):
    """A lemma precondition could not be certified within budget."""


class EmptyLanguage(SpectraError):
    """An operation requires a nonempty word set."""
