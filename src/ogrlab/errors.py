"""Exception hierarchy shared by all ogrlab modules."""


class OgrlabError(Exception):
    """Base class for all errors raised by this package."""


class InputError(OgrlabError):
    """Caller violated a documented precondition (CLI exit code 2)."""


class SizeMismatchError(InputError):
    pass


class DegenerateInputError(InputError):
    pass


class UnsupportedFormError(InputError):
    """Form has no rational points of the requested kind (e.g. non-split over the reals)."""


class EmptinessError(InputError):
    """Isotropic k-planes in n-space do not exist for n < 2k."""


class NotAPointError(InputError):
    """Coordinates do not satisfy the defining equations of the variety."""


class PoleError(InputError):
    """Evaluation of a rational form at one of its poles."""


class AmbiguityError(OgrlabError):
    """A construction the theory asserts to be unique admitted several candidates."""

    def __init__(self, message, candidates):
        super().__init__(f"{message}: {candidates!r}")
        self.candidates = candidates


class InternalInvariantError(OgrlabError):
    """Internal consistency violated; indicates a bug, not bad input."""
