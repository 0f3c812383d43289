"""Exception types shared across the package."""


class HasesError(Exception):
    """Base class for package-specific failures."""


class EpochExhausted(HasesError):
    """The signer has used all of its configured signing epochs."""


class EpochDesync(HasesError):
    """The two component signers of a hybrid state disagree on the epoch."""


class KeyFileInUse(HasesError):
    """Another process holds the lock of the signer key file."""


class UnknownSigner(HasesError):
    """The requested identity is not registered with the key store."""


class EpochOutOfRange(HasesError):
    """Requested epoch lies outside [1, J]."""


class MalformedFrame(HasesError):
    """A wire frame or request body could not be parsed."""


class BadSignatureFile(ValueError):
    """A signature file is not a well-formed container.  ``hases verify``
    rejects it (exit 1): the data offered for verification is bad."""


class CcoRequestError(HasesError):
    """The commitment service answered with a non-OK status byte."""

    def __init__(self, status: int, message: str = ""):
        super().__init__(message or f"service returned status {status:#04x}")
        self.status = status
