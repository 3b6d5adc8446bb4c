"""Every exception xorcount raises of its own, each defined once; the modules
that raise one import it from here."""


class ParameterError(ValueError):
    """An argument outside the range a function or setting accepts."""


class DimensionError(ValueError):
    """Assignments, hashes or formulas of mismatched widths."""


class CapacityError(ValueError):
    """An enumeration or encoding larger than the caps allow."""


class ParseError(ValueError):
    """Malformed input: DIMACS text or a formula, a table spec, or the 0/1
    members of an explicit set."""


class IntegrityError(RuntimeError):
    """A solver returned a witness that fails the in-process recheck."""


class OracleUnknownError(RuntimeError):
    """Some trials came back unknown; no estimate is finalized from them."""

    def __init__(self, unknown: int, total: int):
        super().__init__("%d of %d trials unknown; refusing to estimate" % (unknown, total))
        self.unknown = unknown
        self.total = total
