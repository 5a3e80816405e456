"""f0warp: pitch-adaptive Mel filterbank features.

Speech features whose filterbank follows the speaker: the DFT bin grid is
shifted in the Mel domain by the gap between the utterance's median f0
and a target f0, which normalizes speakers toward a common acoustic
space.  Driving the same shift through a set of fixed Mel offsets turns
the mechanism into a data-augmentation fan-out.

The sample rate is fixed at 16 kHz (``REQUIRED_SAMPLE_RATE``), so
``FeatureConfig`` and ``PitchConfig`` check every setting when built.
"""

from .audio_io import (
    AudioBuffer,
    AudioIOError,
    ChannelMismatch,
    CorruptFile,
    RateMismatch,
    UnsupportedFormat,
    read_wav,
)
from .augment import (
    DEFAULT_SHIFTS_MEL,
    AugmentationPlan,
    augment_utterance,
    make_plan,
)
from .errors import DomainError, TooShort
from .melwarp import (
    BASELINE_HI_FREQ,
    LOG_MEL,
    MAX_ABS_SHIFT_MEL,
    MFCC,
    WARPED_HI_FREQ,
    EmptyFilter,
    FeatureConfig,
    WarpSpec,
    build_filterbank,
    compute_warp,
    extract_features,
    filterbank_ceiling,
    frame_and_window,
    hz_to_mel,
    identity_warp,
    mel_to_hz,
    power_spectrum,
    warp_bin_mels,
)
from .pipeline import (
    BatchResult,
    DuplicateId,
    ManifestEntry,
    MatrixFormatError,
    ParseError,
    export_text_archive,
    process_dataset,
    read_archive_index,
    read_manifest,
    read_matrix,
    write_matrix,
)
from .pitch import (
    PitchConfig,
    PitchFrame,
    PitchTrack,
    UtteranceF0,
    detect_pitch,
    median_f0,
)

__version__ = "0.1.0"
