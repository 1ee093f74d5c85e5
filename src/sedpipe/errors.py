"""Exception types shared across the toolkit."""


class SedError(Exception):
    """Base class for every error raised by this package."""


class WavFormatError(SedError):
    """Malformed RIFF/WAVE container."""


class UnsupportedWavError(SedError):
    """Well-formed WAV, but a codec, bit depth or channel count outside the
    supported subset (PCM, 16/24 bit, mono or stereo)."""


class AnnotationError(SedError):
    """Bad annotation line: syntax, unknown label or inverted time range."""


class ManifestError(SedError):
    """Bad dataset manifest row, or a fold is missing a required split role."""


class ChannelError(SedError):
    """Feature extractor fed the wrong channel count."""


class ShapeError(SedError):
    """Array shapes incompatible with the operation."""


class RangeError(SedError):
    """Numeric parameter outside its valid range."""


class StateError(SedError):
    """Operation invoked before the state it needs exists."""


class ConfigError(SedError):
    """Invalid or unknown configuration entry. The CLI maps this to exit
    code 2."""


class ClassVocabularyError(SedError):
    """Reference and prediction rolls carry different class vocabularies."""


class UndefinedMetricError(SedError):
    """Error rate is undefined: the reference contains no activity."""


class CheckpointError(SedError):
    """Corrupt checkpoint file or malformed architecture descriptor."""
