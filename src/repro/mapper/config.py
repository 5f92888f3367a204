"""The Input Parser: DaYu's user-provided configuration.

The paper's Input Parser "reads the user-provided configuration and
parameters for initialization — for example, the location to store the
recorded statistics, the page size to record, the number of I/O operations
to skip, and whether to turn on/off I/O tracing", letting users trade
collection granularity against storage overhead.

Parsing is cheap but not free; its modeled cost is charged to the
``dayu.input_parser`` clock account so the component breakdown of the
paper's Figure 10 has all three slices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.simclock import SimClock
from repro.vfd.tracing import TracerCosts
from repro.vol.tracer import VolCosts

__all__ = ["DaYuConfig", "INPUT_PARSER_ACCOUNT"]

INPUT_PARSER_ACCOUNT = "dayu.input_parser"

#: Modeled one-time cost of reading and validating the configuration.
_PARSE_COST = 5.0e-5


@dataclass(frozen=True)
class DaYuConfig:
    """Validated DaYu configuration.

    Attributes:
        output_dir: Directory (in the simulated FS) where task profiles are
            stored by :meth:`DataSemanticMapper.save`.
        page_size: Address-region granularity, in bytes, used when mapping
            I/O to file regions (the SDG's ``addr[lo-hi)`` nodes).
        skip_ops: Per-file count of initial I/O operations not recorded.
        trace_io: Record time-sensitive per-operation I/O traces.  When
            False only aggregate session statistics are kept — constant
            storage overhead, as the paper describes.
        trace_format: On-disk profile format written by
            :meth:`DataSemanticMapper.save` — ``"columnar"`` for the
            footer-indexed binary form (:mod:`repro.mapper.columnar`),
            ``"json"`` for the verbose interchange form.
        vfd_costs: Modeled VFD profiler costs.
        vol_costs: Modeled VOL profiler costs.
        mapper_cost_per_record: Modeled Characteristic Mapper join cost per
            VFD record.
    """

    output_dir: str = "/dayu"
    page_size: int = 4096
    skip_ops: int = 0
    trace_io: bool = True
    trace_format: str = "json"
    vfd_costs: TracerCosts = field(default_factory=TracerCosts)
    vol_costs: VolCosts = field(default_factory=VolCosts)
    mapper_cost_per_record: float = 5.0e-6

    def __post_init__(self) -> None:
        if self.page_size <= 0:
            raise ValueError(f"page_size must be positive, got {self.page_size}")
        if self.skip_ops < 0:
            raise ValueError(f"skip_ops must be non-negative, got {self.skip_ops}")
        if not self.output_dir.startswith("/"):
            raise ValueError(f"output_dir must be absolute, got {self.output_dir!r}")
        if self.trace_format not in ("json", "columnar"):
            raise ValueError(
                f"trace_format must be 'json' or 'columnar', "
                f"got {self.trace_format!r}")

    @classmethod
    def parse(cls, raw: Mapping[str, object], clock: SimClock | None = None) -> "DaYuConfig":
        """Build a config from a raw user mapping, charging the parse cost.

        Unknown keys are rejected — silent typos in an analysis config are
        worse than a crash.
        """
        known = {
            "output_dir", "page_size", "skip_ops", "trace_io", "trace_format",
            "vfd_costs", "vol_costs", "mapper_cost_per_record",
        }
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if clock is not None:
            clock.advance(_PARSE_COST, INPUT_PARSER_ACCOUNT)
        return cls(**raw)  # type: ignore[arg-type]
