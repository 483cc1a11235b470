"""Exception types shared across the statefuzz package.

Each stage of the pipeline raises a narrow subclass of StateFuzzError so
callers (and the CLI) can report which contract was violated without
string-matching messages.
"""

from __future__ import annotations

from contextlib import contextmanager


class StateFuzzError(Exception):
    """Base class for every error raised by this package."""


@contextmanager
def naming(path):
    """Prefix the message of a StateFuzzError raised in the block with path,
    the file whose document the block reads; the error keeps its type."""
    try:
        yield
    except StateFuzzError as exc:
        raise type(exc)(f"{path}: {exc}") from None


# --- fuzz specification / mission parsing -------------------------------

class VocabularyError(StateFuzzError):
    """A mode, state, action, or environment level is not in the vocabulary."""


class ConstraintError(StateFuzzError):
    """The mode/state constraint block references undeclared names, or
    lists one state under two modes."""


class BandError(StateFuzzError):
    """A transition-delay band is malformed (min >= max, negative, duplicate)."""


class GeometryError(StateFuzzError):
    """Mission geometry is unusable (no waypoints, self-intersecting fence)."""


class SequenceError(StateFuzzError):
    """An expected state sequence is inconsistent with the flight plan."""


class ConfigError(StateFuzzError):
    """A system-under-test configuration violates its invariants."""


# --- simulated system under test ----------------------------------------

class IllegalEvent(StateFuzzError):
    """RC input arrived while the vehicle is PRE_ARM or DONE (harness bug)."""


class UnknownFault(StateFuzzError):
    """A fault id outside the registry was seeded or queried."""


# --- test generation ------------------------------------------------------

class EmptyProduct(StateFuzzError):
    """The constrained combination space is empty, or the spec does not list
    the mission in MISSION_CONTEXT; nothing to generate."""


class UnknownAxis(StateFuzzError):
    """A focused-generation axis name is not a fuzzable dimension."""


# --- oracle ---------------------------------------------------------------

class MalformedTree(StateFuzzError):
    """No built-in oracle revision or mode mapping has the name asked for."""


class MissingDatum(StateFuzzError):
    """A predicate needed a profile field that is absent."""


# --- analysis ---------------------------------------------------------------

class EmptyFailureSet(StateFuzzError):
    """Clustering was requested but no test had a FAILURE verdict."""


class DegenerateK(StateFuzzError):
    """K is out of range for the number of points being clustered."""


# --- truth tables / cut sets ------------------------------------------------

class InvalidOnly(StateFuzzError):
    """Every run behind a truth table came back INVALID; axes are misaimed."""


# --- campaign storage / CLI --------------------------------------------------

class UnknownTestId(StateFuzzError):
    """A replay or lookup referenced a test id missing from the campaign."""


class NotACampaign(StateFuzzError):
    """An output directory holds files but no campaign.json."""


class CampaignRunning(StateFuzzError):
    """campaign.json says the run writing the campaign has not finished."""


class LayoutMismatch(StateFuzzError):
    """campaign.json records no layout or another than this code reads, or a
    complete campaign holds no tests.json: run the campaign again."""


class RecipeMismatch(StateFuzzError):
    """A tests.json recipe no longer regenerates the cases it was stored with."""


class AnalysisMismatch(StateFuzzError):
    """A field of analysis.json that focus or report reads is not as analyze writes it."""


class VerdictDrift(StateFuzzError):
    """The stored profiles, judged on load, count other main verdicts than
    campaign.json recorded when they flew."""
