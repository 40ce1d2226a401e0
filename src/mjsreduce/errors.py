"""Exception hierarchy.

InputError covers malformed user-supplied data (CLI exit code 2).
ComputationError covers failures inside an otherwise valid computation
(CLI exit code 3).
"""


class MjsError(Exception):
    pass


class InputError(MjsError):
    pass


class ComputationError(MjsError):
    pass


class DimensionMismatch(InputError):
    pass


class PartitionMismatch(InputError):
    pass


class BadWeights(InputError):
    pass


class NotNormalized(InputError):
    pass


class NotErgodic(ComputationError):
    pass


class RankDeficient(ComputationError):
    pass


class DegenerateInput(ComputationError):
    pass


class TooLarge(ComputationError):
    pass


class RhoTooSmall(ComputationError):
    pass


class XiTooSmall(ComputationError):
    pass


class TooManySequences(ComputationError):
    pass


class SingularInnerMatrix(ComputationError):
    pass


class Diverged(ComputationError):
    pass


class NotMss(ComputationError):
    pass


class NotConverged(ComputationError):
    pass
