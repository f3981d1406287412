"""A deterministic MapReduce runtime with Hadoop-faithful accounting.

This subpackage substitutes for the paper's Hadoop 0.20.2 cluster: jobs are
described exactly as map/combine/partition/reduce (``job``), executed by a
single-process runtime that measures per-task CPU time and shuffle
records/bytes (``runtime``), and projected onto a cluster of ``N`` nodes with
one map and one reduce slot each via the scheduling model (``cluster``).
"""

from .cluster import Cluster, schedule_makespan
from .counters import Counters
from .engines import (
    DEFAULT_ENGINE,
    Executor,
    PersistentProcessExecutor,
    PersistentThreadExecutor,
    SerialExecutor,
    TaskBatch,
    available_engines,
    get_executor,
)
from .faults import (
    ChaosAction,
    ChaosPlan,
    ChaosRule,
    resolve_chaos,
)
from .hdfs import DfsFile, DistributedFileSystem, SegmentChunk
from .job import BlockBufferingMapper, Context, Mapper, MapReduceJob, Reducer
from .partitioners import HashPartitioner, ModPartitioner, Partitioner
from .plan import (
    JobGraph,
    PlanCache,
    PlanError,
    PlanRun,
    PlanScheduler,
    Stage,
    StageContext,
    StageExecution,
)
from .runtime import JobResult, LocalRuntime, TaskFailure
from .serialization import (
    decode_record_block,
    encode_record_block,
    estimate_bytes,
    record_count,
    shuffle_sort_key,
)
from .shuffle import (
    DEFAULT_MERGE_FAN_IN,
    DEFAULT_SHUFFLE,
    InMemoryShuffleStore,
    MapManifest,
    Segment,
    SegmentIntegrityError,
    SegmentLost,
    ShuffleStore,
    SpillShuffleStore,
    available_shuffle_backends,
    get_shuffle_store,
    iter_segment,
    merged_segment_groups,
    planned_merge_passes,
    write_segment,
)
from .splits import (
    dataset_splits,
    split_records,
    weighted_record_chunks,
)
from .stats import JobStats, TaskStat
from .types import ColumnarBlock, InputSplit, NeighborBlock, RecordBlock

__all__ = [
    "Cluster",
    "schedule_makespan",
    "Counters",
    "DistributedFileSystem",
    "DfsFile",
    "Context",
    "Mapper",
    "Reducer",
    "BlockBufferingMapper",
    "MapReduceJob",
    "Partitioner",
    "HashPartitioner",
    "ModPartitioner",
    "LocalRuntime",
    "JobResult",
    "TaskFailure",
    "ChaosPlan",
    "ChaosRule",
    "ChaosAction",
    "resolve_chaos",
    "JobGraph",
    "Stage",
    "StageContext",
    "StageExecution",
    "PlanRun",
    "PlanScheduler",
    "PlanCache",
    "PlanError",
    "Executor",
    "TaskBatch",
    "SerialExecutor",
    "PersistentThreadExecutor",
    "PersistentProcessExecutor",
    "get_executor",
    "available_engines",
    "DEFAULT_ENGINE",
    "estimate_bytes",
    "record_count",
    "shuffle_sort_key",
    "encode_record_block",
    "decode_record_block",
    "ShuffleStore",
    "InMemoryShuffleStore",
    "SpillShuffleStore",
    "Segment",
    "MapManifest",
    "SegmentChunk",
    "SegmentIntegrityError",
    "SegmentLost",
    "get_shuffle_store",
    "available_shuffle_backends",
    "DEFAULT_SHUFFLE",
    "write_segment",
    "iter_segment",
    "merged_segment_groups",
    "planned_merge_passes",
    "DEFAULT_MERGE_FAN_IN",
    "dataset_splits",
    "split_records",
    "weighted_record_chunks",
    "JobStats",
    "TaskStat",
    "InputSplit",
    "ColumnarBlock",
    "RecordBlock",
    "NeighborBlock",
]
