"""Two-party secure logistic regression training over additively secret-shared
fixed-point data, with a trusted initializer supplying correlated randomness."""

from .activation import batch_activate, clipped_relu, clipped_relu_fixed
from .bitops import decompose_opt, decompose_ripple
from .engine import (
    ExactTruncationOracle,
    MaskedMatrix,
    Session,
    Transcript,
    batch_mul,
    matmul,
    mul,
)
from .errors import (
    FormatError,
    FrameError,
    IngestionError,
    MpcError,
    ProtocolError,
    RandomnessUnderflowError,
    RangeError,
    TransportError,
)
from .fixedpoint import (
    FixedPointParams,
    decode,
    decode_array,
    encode,
    encode_array,
    exact_truncate,
    truncate_share_local,
)
from .local import local_session_pair, run_pair, run_sessions
from .prefixnet import PrefixNetworkPlan, closed_form_mask_bits, plan_prefix_network
from .randomness import (
    MaterializedSource,
    OnDemandSource,
    TrustedDealer,
    deserialize_stream,
    read_randomness_file,
    serialize_stream,
    write_randomness_file,
)
from .sharing import (
    BitVectorShare,
    RingShare,
    Role,
    VectorShare,
    read_share_file,
    split,
    split_array,
    write_share_file,
)
from .training import (
    Dataset,
    TrainingConfig,
    count_multiplications,
    count_traffic,
    predict_and_score,
    train_plain_fixed,
    train_plain_float,
    train_secure,
    training_randomness_requests,
)

__version__ = "0.1.0"
