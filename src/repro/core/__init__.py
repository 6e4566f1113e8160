"""AdOC core: the paper's contribution.

The adaptive online compression pipeline (Figure 1), the Figure-2 level
update algorithm, the section-5 performance guards, the wire protocol,
and the seven-function user API of section 4.1.
"""

from .._lazy import lazy_exports
from .adaptation import AdaptationTrace, LevelAdapter, update_level
from .api import (
    ADOC_MAX_LEVEL,
    ADOC_MIN_LEVEL,
    AdocSocket,
    adoc_attach,
    adoc_close,
    adoc_detach,
    adoc_read,
    adoc_receive_file,
    adoc_send_file,
    adoc_send_file_levels,
    adoc_write,
    adoc_write_levels,
)
from .compressor import compress_buffer
from .config import DEFAULT_CONFIG, AdocConfig
from .deadlines import (
    DEFAULT_RETRY_POLICY,
    Deadline,
    DeadlineExceeded,
    RetryPolicy,
    TransferError,
    reap_threads,
)
from .divergence import BandwidthRecord, CodecRates, ConnectionRecords, DivergenceGuard
from .fifo import PacketQueue, QueueClosed, QueuedPacket
from .guards import IncompressibleGuard
from .packets import (
    MessageHeader,
    ProtocolError,
    Record,
    RecordHeader,
)
from .planner import SendResult
from .receiver import OutputBuffer, ReceiverPipeline
from .sender import MessageSender
from .stats import ConnectionStats

# The alternative control laws are ablation baselines; the pipeline's
# LevelAdapter runs Figure 2 unless a caller passes one as ``policy``,
# and applies the same guards and codec rules to either.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "POLICIES": "policies",
        "make_policy": "policies",
    },
)

__all__ = [
    "update_level",
    "LevelAdapter",
    "AdaptationTrace",
    "AdocConfig",
    "DEFAULT_CONFIG",
    "Deadline",
    "DeadlineExceeded",
    "TransferError",
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "reap_threads",
    "PacketQueue",
    "QueuedPacket",
    "QueueClosed",
    "DivergenceGuard",
    "BandwidthRecord",
    "CodecRates",
    "ConnectionRecords",
    "IncompressibleGuard",
    "compress_buffer",
    "Record",
    "RecordHeader",
    "MessageHeader",
    "ProtocolError",
    "MessageSender",
    "SendResult",
    "ConnectionStats",
    "POLICIES",
    "make_policy",
    "ReceiverPipeline",
    "OutputBuffer",
    "AdocSocket",
    "adoc_attach",
    "adoc_detach",
    "adoc_write",
    "adoc_write_levels",
    "adoc_read",
    "adoc_send_file",
    "adoc_send_file_levels",
    "adoc_receive_file",
    "adoc_close",
    "ADOC_MIN_LEVEL",
    "ADOC_MAX_LEVEL",
]
