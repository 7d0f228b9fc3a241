"""Exception hierarchy shared by all pase modules."""


class PaseError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(PaseError, ValueError):
    """A config key is unknown, or a setting does not parse or is out of range."""


# --- audio ingestion / emission -------------------------------------------

class MalformedContainer(PaseError):
    """RIFF/WAVE structure is missing, truncated, or inconsistent."""


class UnsupportedEncoding(PaseError):
    """WAV codec other than PCM-16 or IEEE float-32."""


class IoFailure(PaseError):
    """OS-level read/write failure."""


class DuplicateId(PaseError):
    """Manifest contains a repeated utterance id."""


class MissingField(PaseError):
    """Manifest record does not have the three required fields."""


# --- distortion -------------------------------------------------------------

class GeometryError(PaseError):
    """Source or microphone placed outside the simulated room."""


class UnphysicalT60(PaseError):
    """Requested reverberation time implies wall absorption > 1."""


class SampleRateMismatch(PaseError):
    """Operands carry different sample rates."""


class SilentNoise(PaseError):
    """Noise signal has zero power, SNR scaling impossible."""


class SilentOverlap(PaseError):
    """Overlap speech has zero power, gain scaling impossible."""


class InvalidBand(PaseError):
    """Band-stop edges outside (0, Nyquist) or inverted."""


class OutOfRange(PaseError):
    """Mask region extends beyond the signal."""


class EmptyPool(PaseError):
    """A distortion is enabled but its sample pool is empty."""


# --- features ----------------------------------------------------------------

class TooShort(PaseError):
    """Signal shorter than one analysis window."""


class TooFewFrames(PaseError):
    """Delta computation needs at least five frames."""


class FrameGridMismatch(PaseError):
    """Embedding and target frame counts differ by more than one frame."""


# --- tensor engine ------------------------------------------------------------

class ShapeMismatch(PaseError):
    """Operand shapes incompatible for the requested operation."""


class NotScalar(PaseError):
    """backward() called on a non-scalar tensor."""


# --- workers / training ---------------------------------------------------------

class SingleUtteranceBatch(PaseError):
    """Contrastive sampling needs at least two distinct utterances."""


class EmptyList(PaseError):
    """Loss averaging over zero workers."""


class EmptyCorpus(PaseError):
    """Training manifest resolves to too few utterances."""


class NonFiniteLoss(PaseError):
    """NaN/Inf appeared in the total loss; training aborted."""


class NonFiniteGradient(PaseError):
    """NaN/Inf appeared in a parameter gradient; training aborted before
    the optimizer step."""


class DegenerateSplit(PaseError):
    """Probe split cannot satisfy class/utterance minimums."""


# --- serialization ----------------------------------------------------------------

class IncompatibleVersion(PaseError):
    """Serialized file carries an unknown format version."""


class ChecksumMismatch(PaseError):
    """Checkpoint payload does not match its trailing CRC."""
