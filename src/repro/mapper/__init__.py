"""The Data Semantic Mapper — DaYu core component #1 (paper Section IV).

Connects the "what" (high-level semantics of data interactions, from the
VOL profiler) with the "how" (underlying I/O behaviour, from the VFD
profiler), per task:

- :class:`~repro.mapper.config.DaYuConfig` — the **Input Parser**: user
  configuration (statistics location, page size, ops to skip, I/O tracing
  on/off).
- :class:`~repro.mapper.mapper.DataSemanticMapper` — the per-task
  orchestration of both **Access Trackers** (VOL + VFD) and the
  **Characteristic Mapper** join.
- :class:`~repro.mapper.stats.DatasetIoStats` — the joined per-data-object
  I/O statistics (the numbers shown in the paper's Figure 7 pop-up).
- :class:`~repro.mapper.mapper.TaskProfile` — everything DaYu knows about
  one task, serializable for the offline Workflow Analyzer.
- :mod:`~repro.mapper.overhead` — overhead accounting (Figures 9 and 10).
- :mod:`~repro.mapper.columnar` — the binary trace format (column chunks
  + page statistics behind a footer index; the storage form of Figure 9d;
  ``dayu-compact`` merges per-task traces into one run file).  JSON
  remains the human-readable interchange form.
"""

from repro.mapper.columnar import (
    COLUMNAR_TRACE_SUFFIX,
    CorruptTrace,
    RunReader,
    compact_profiles,
    decode_columnar,
    decode_run,
    encode_columnar,
    encode_run,
)
from repro.mapper.config import DaYuConfig
from repro.mapper.mapper import DataSemanticMapper, TaskContext, TaskProfile
from repro.mapper.overhead import OverheadReport, overhead_report
from repro.mapper.persist import (
    load_profile,
    load_profiles_from_dir,
    load_profiles_from_host_dir,
    load_profiles_path,
    MalformedJsonTrace,
    profile_from_json_dict,
    RetiredTraceFormat,
    sniff_trace_format,
    TRACE_READ_ERRORS,
    UnknownTraceFormat,
)
from repro.mapper.stats import FILE_METADATA_OBJECT, DatasetIoStats, map_characteristics

__all__ = [
    "DaYuConfig",
    "DataSemanticMapper",
    "TaskContext",
    "TaskProfile",
    "DatasetIoStats",
    "map_characteristics",
    "FILE_METADATA_OBJECT",
    "OverheadReport",
    "overhead_report",
    "profile_from_json_dict",
    "load_profile",
    "load_profiles_from_dir",
    "load_profiles_from_host_dir",
    "load_profiles_path",
    "sniff_trace_format",
    "UnknownTraceFormat",
    "RetiredTraceFormat",
    "MalformedJsonTrace",
    "TRACE_READ_ERRORS",
    "CorruptTrace",
    "COLUMNAR_TRACE_SUFFIX",
    "encode_columnar",
    "decode_columnar",
    "encode_run",
    "decode_run",
    "compact_profiles",
    "RunReader",
]
