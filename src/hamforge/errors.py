"""Exception types shared across the package."""


class HamforgeError(Exception):
    """Base class for every error raised by this package."""


class OperationalError(HamforgeError):
    """A search or generator gave up on its budget: not a counterexample.
    The CLI exits 2 on it; any other HamforgeError from a check fails its row."""


# --- rotation tables / plane graphs ---------------------------------------

class InconsistentRotation(HamforgeError):
    """An edge appears in only one endpoint's rotation."""


class MultiEdge(HamforgeError):
    """A loop or a repeated entry in a rotation."""


class DisconnectedGraph(HamforgeError):
    """The rotation table describes a disconnected graph."""


class NonPlanarTrace(HamforgeError):
    """Face tracing contradicts Euler's formula for the sphere."""


class NotACycle(HamforgeError):
    """A vertex sequence that is not a cycle of the graph."""


class EmptyInterior(HamforgeError):
    """Contraction requested for a cycle with nothing inside."""


class DisconnectedInterior(HamforgeError):
    """Contraction requested for a cycle whose interior is disconnected."""


class NotContractible(HamforgeError):
    """Edge contraction would create a multi-edge."""


class NotAChain(HamforgeError):
    """The block structure between two vertices is not a path."""


# --- corpus ----------------------------------------------------------------

class TooSmall(HamforgeError):
    """Construction requested below its minimum size."""


class BadHeader(HamforgeError):
    """Malformed planar_code header."""


class TruncatedRecord(HamforgeError):
    """planar_code stream ended inside a record."""


class ValidationFailed(HamforgeError):
    """A decoded graph failed validation.

    Attributes:
        index: position of the offending record in the stream.
    """

    def __init__(self, index, cause):
        super().__init__(f"record {index} failed validation: {cause}")
        self.index = index
        self.cause = cause


class BudgetExceeded(OperationalError):
    """Enumeration requested beyond the configured budget."""


class FilterUnsatisfiableTimeout(OperationalError):
    """Rejection sampling gave up before satisfying the filter."""


# --- structures / independent-set pipeline ----------------------------------

class SNotIndependent(HamforgeError):
    """A vertex set that must be independent is not."""


class ColoringTimeout(OperationalError):
    """Backtracking four-coloring exceeded its node budget."""


class HypothesisViolated(HamforgeError):
    """Input does not satisfy an operation's hypotheses.

    Attributes:
        which: short name of the violated condition.
    """

    def __init__(self, which, detail=""):
        super().__init__(f"hypothesis violated: {which}" + (f" ({detail})" if detail else ""))
        self.which = which


class MinDegreeViolated(HamforgeError):
    """Minimum-degree precondition failed."""


class FourConnectivityLost(HamforgeError):
    """G - F stopped being 4-connected for a supposedly valid edge family."""

    def __init__(self, family):
        super().__init__(f"G-F not 4-connected for F={sorted(family)}")


# --- Tutte paths -------------------------------------------------------------

class TutteViolation(HamforgeError):
    """A claimed Tutte path has an offending bridge.

    Attributes:
        bridge: the offending bridge.
        attachment_count: its number of attachments on the path.
    """

    def __init__(self, bridge, attachment_count, limit):
        super().__init__(
            f"bridge with {attachment_count} attachments (limit {limit})")
        self.bridge = bridge
        self.attachment_count = attachment_count


class SearchExhausted(HamforgeError):
    """A search for a theorem-guaranteed object found nothing: an
    implementation bug or a counterexample to a published theorem."""


# --- enumeration --------------------------------------------------------------

class SearchTimeout(OperationalError):
    """A backtracking search exceeded its node budget.

    Attributes:
        budget: the node budget that was exhausted.
        partial: paths or cycles found before giving up; for an exact
            count, those completed by the search states it finished.
    """

    def __init__(self, budget, partial=0):
        super().__init__(f"search budget of {budget} nodes exhausted")
        self.budget = budget
        self.partial = partial


# --- proof replay ---------------------------------------------------------------

class InteriorsOverlap(HamforgeError):
    """Diamond interiors are not pairwise disjoint."""


class EmptyStar(HamforgeError):
    """No vertices available to grow diamonds from."""


class ChainBroken(HamforgeError):
    """A level of the nested-chain cycle tree could not be expanded.

    Attributes:
        level: the level at which expansion failed.
    """

    def __init__(self, level, detail=""):
        super().__init__(f"chain broken at level {level}" + (f": {detail}" if detail else ""))
        self.level = level


class StructureViolation(HamforgeError):
    """A structural claim that should follow from the hypotheses failed."""
