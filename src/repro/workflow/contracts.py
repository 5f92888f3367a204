"""Ahead-of-time dataflow contracts for workflow tasks.

DaYu decodes a workflow's dataflow semantics *after* a run by joining
VOL/VFD traces.  A :class:`TaskContract` states the same facts *before*
the run: which datasets a task reads and writes, in which files, with
which extents, element counts, and layouts.  Contracts come from two
sources that the static lint front end reconciles:

- **declared** — attached to a :class:`~repro.workflow.model.Task` at
  construction time (``Task(..., contract=...)``) and validated by
  :meth:`Workflow.validate`;
- **inferred** — recovered from the task function's source by the AST
  extractor in :mod:`repro.lint.static`.

Both feed the pre-run DY4xx rules (:mod:`repro.lint.prerun`), the
contract-only predicted SDG (:mod:`repro.lint.predict`), and the
post-run contract-drift checker (:mod:`repro.lint.drift`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "ContractAccess",
    "TaskContract",
    "ContractError",
    "normalize_dataset",
    "dtype_itemsize",
    "creates",
    "reads",
    "writes",
    "opens",
    "resizes",
    "validate_contract",
    "reconcile",
]

#: Access operation kinds, in canonical report order.
ACCESS_OPS = ("create", "read", "write", "open", "resize")

#: Inline bytes per element for the simulated HDF5 dtypes (vlen elements
#: store a fixed-size heap reference inline; matches
#: ``repro.hdf5.datatype.Datatype.itemsize``).
_VLEN_REF_SIZE = 14


class ContractError(ValueError):
    """A declared contract violates its structural invariants."""


def normalize_dataset(name: str) -> str:
    """Canonical object path: the root-anchored form traces record."""
    return "/" + name.strip("/")


def dtype_itemsize(dtype: str) -> Optional[int]:
    """Inline bytes per element for a dtype code (None when unknown)."""
    if not dtype:
        return None
    if dtype.startswith("vlen"):
        return _VLEN_REF_SIZE
    if dtype[0] in "iufS" and dtype[1:].isdigit():
        return int(dtype[1:])
    return None


@dataclass(frozen=True)
class ContractAccess:
    """One declared or inferred dataset interaction of one task.

    Attributes:
        op: ``"create"`` (dataset definition; with ``elements`` > 0 the
            creation also writes the initial data), ``"read"`` /
            ``"write"`` (raw data movement), ``"open"`` (metadata-only
            touch, e.g. a shape query), or ``"resize"`` (metadata
            mutation of an existing dataset's extent).
        file: File path the dataset lives in.
        dataset: Root-anchored object path (``"/contact_map"``).
        count: How many operations of this kind the task performs
            (loop-multiplied by the extractor; ``0`` means "at least
            once, trip count unknown").
        elements: Elements moved per operation (``None`` = unknown).
        extent: Declared dataset shape for ``create`` accesses.
        dtype: Element type code (``"f4"``, ``"vlen-bytes"``, ...).
        layout: Storage layout (``"contiguous"`` / ``"chunked"`` / ...).
        select: Optional element-range selection ``(start, count)`` pairs
            per operation (collective hyperslab writes declare these).
        conditional: The access sits on a branch or an
            unknown-trip-count loop — it may legally never happen.
        exact: Every component resolved statically; inexact accesses are
            exempt from count/extent checks.
    """

    op: str
    file: str
    dataset: str
    count: int = 1
    elements: Optional[int] = None
    extent: Optional[Tuple[int, ...]] = None
    dtype: str = ""
    layout: str = ""
    select: Optional[Tuple[Tuple[int, int], ...]] = None
    conditional: bool = False
    exact: bool = True

    def __post_init__(self) -> None:
        if self.op not in ACCESS_OPS:
            raise ContractError(f"bad contract access op {self.op!r}")
        if self.count < 0:
            raise ContractError("contract access count must be >= 0")
        if self.elements is not None and self.elements < 0:
            raise ContractError("contract access elements must be >= 0")

    @property
    def key(self) -> Tuple[str, str]:
        return (self.file, self.dataset)

    @property
    def moves_data(self) -> bool:
        """Whether this access implies raw data movement.

        For ``create``: ``elements=0`` is an explicitly dataless
        definition; ``None`` (unknown) is conservatively treated as
        data-bearing (``create_dataset(data=...)`` with an unresolved
        extent still writes *something*).
        """
        if self.op in ("read", "write"):
            return True
        if self.op != "create":
            return False
        return self.elements is None or self.elements > 0

    @property
    def extent_elements(self) -> Optional[int]:
        """Total elements of a ``create`` extent (None when unknown)."""
        if self.extent is None:
            return None
        total = 1
        for dim in self.extent:
            if dim is None:
                return None
            total *= int(dim)
        return total

    @property
    def select_range(self) -> Optional[Tuple[int, int]]:
        """Merged ``[lo, hi)`` element bounds of the selection."""
        if not self.select:
            return None
        lo = min(start for start, _ in self.select)
        hi = max(start + count for start, count in self.select)
        return (lo, hi)

    def to_json_dict(self) -> dict:
        return {
            "op": self.op,
            "file": self.file,
            "dataset": self.dataset,
            "count": self.count,
            "elements": self.elements,
            "extent": list(self.extent) if self.extent is not None else None,
            "dtype": self.dtype,
            "layout": self.layout,
            "select": [list(s) for s in self.select] if self.select else None,
            "conditional": self.conditional,
            "exact": self.exact,
        }


def _access(op: str, file: str, dataset: str, **kwargs) -> ContractAccess:
    extent = kwargs.pop("shape", None)
    if extent is not None:
        extent = tuple(int(d) for d in extent)
    if kwargs.get("select") is not None:
        kwargs["select"] = tuple(tuple(s) for s in kwargs["select"])
    return ContractAccess(op=op, file=file,
                          dataset=normalize_dataset(dataset),
                          extent=extent, **kwargs)


def creates(file: str, dataset: str, shape=None, dtype: str = "",
            layout: str = "", elements: Optional[int] = None,
            **kwargs) -> ContractAccess:
    """Declare a dataset creation.  ``elements`` > 0 means the creation
    also writes that much initial data (``create_dataset(data=...)``);
    ``0`` declares an explicitly dataless definition; ``None`` leaves
    the data volume unknown (treated as data-bearing)."""
    return _access("create", file, dataset, shape=shape, dtype=dtype,
                   layout=layout, elements=elements, **kwargs)


def reads(file: str, dataset: str, elements: Optional[int] = None,
          count: int = 1, **kwargs) -> ContractAccess:
    """Declare a data read of a dataset."""
    return _access("read", file, dataset, elements=elements, count=count,
                   **kwargs)


def writes(file: str, dataset: str, elements: Optional[int] = None,
           count: int = 1, **kwargs) -> ContractAccess:
    """Declare a data write to an existing dataset."""
    return _access("write", file, dataset, elements=elements, count=count,
                   **kwargs)


def opens(file: str, dataset: str, **kwargs) -> ContractAccess:
    """Declare a metadata-only touch (open / shape query)."""
    return _access("open", file, dataset, **kwargs)


def resizes(file: str, dataset: str, shape=None, **kwargs) -> ContractAccess:
    """Declare a dataset resize — a metadata *mutation* (the shape
    message changes under any concurrent reader's feet; DY503 subject).
    ``shape`` is the new extent when statically known."""
    return _access("resize", file, dataset, shape=shape, **kwargs)


@dataclass
class TaskContract:
    """The full set of dataset interactions one task commits to.

    Attributes:
        task: Task name (filled in by :meth:`Workflow.validate` when
            declared with an empty name).
        accesses: The access list, in program order.
        source: ``"declared"`` or ``"inferred"``.
        exact: False when the extractor could not resolve every access
            (the unresolved parts are listed in ``notes``).
        notes: Human-readable extraction caveats.
        file_opens: Per-path file-open counts (filled by the extractor;
            feeds the open-in-loop anti-pattern rule).  Declared
            contracts leave this empty.
    """

    task: str = ""
    accesses: List[ContractAccess] = field(default_factory=list)
    source: str = "declared"
    exact: bool = True
    notes: List[str] = field(default_factory=list)
    file_opens: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def declare(cls, *accesses: ContractAccess, task: str = "") -> "TaskContract":
        """Build a declared contract from access constructors."""
        return cls(task=task, accesses=list(accesses), source="declared")

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def datasets(self) -> List[Tuple[str, str]]:
        """Distinct ``(file, dataset)`` pairs, first-touch order."""
        seen = []
        for a in self.accesses:
            if a.key not in seen:
                seen.append(a.key)
        return seen

    def by_dataset(self) -> Dict[Tuple[str, str], List[ContractAccess]]:
        out: Dict[Tuple[str, str], List[ContractAccess]] = {}
        for a in self.accesses:
            out.setdefault(a.key, []).append(a)
        return out

    def ops_for(self, file: str, dataset: str) -> List[str]:
        key = (file, normalize_dataset(dataset))
        return [a.op for a in self.accesses if a.key == key]

    def data_reads(self) -> List[ContractAccess]:
        return [a for a in self.accesses if a.op == "read"]

    def data_writes(self) -> List[ContractAccess]:
        """Writes and data-bearing creates."""
        return [a for a in self.accesses
                if a.op == "write" or (a.op == "create" and a.moves_data)]

    def files(self) -> List[str]:
        seen = []
        for a in self.accesses:
            if a.file not in seen:
                seen.append(a.file)
        return seen

    def to_json_dict(self) -> dict:
        return {
            "task": self.task,
            "source": self.source,
            "exact": self.exact,
            "notes": list(self.notes),
            "file_opens": dict(self.file_opens),
            "accesses": [a.to_json_dict() for a in self.accesses],
        }


def validate_contract(contract: TaskContract, task_name: str = "") -> None:
    """Check a declared contract's structural invariants.

    Raises :class:`ContractError` on: a task-name mismatch, a read and a
    create of the same dataset declaring conflicting dtypes/layouts, or
    an access whose elements exceed the dataset's own declared extent.
    """
    name = contract.task or task_name
    if contract.task and task_name and contract.task != task_name:
        raise ContractError(
            f"contract task {contract.task!r} attached to task {task_name!r}")
    described: Dict[Tuple[str, str], ContractAccess] = {}
    for a in contract.accesses:
        if a.op != "create":
            continue
        prev = described.get(a.key)
        if prev is not None:
            if a.dtype and prev.dtype and a.dtype != prev.dtype:
                raise ContractError(
                    f"task {name!r} declares {a.dataset} in {a.file} with "
                    f"conflicting dtypes {prev.dtype!r} vs {a.dtype!r}")
            if a.layout and prev.layout and a.layout != prev.layout:
                raise ContractError(
                    f"task {name!r} declares {a.dataset} in {a.file} with "
                    f"conflicting layouts {prev.layout!r} vs {a.layout!r}")
        else:
            described[a.key] = a
    for a in contract.accesses:
        extent = described.get(a.key)
        if extent is None or extent.extent_elements is None:
            continue
        cap = extent.extent_elements
        if a.elements is not None and a.exact and a.elements > cap:
            raise ContractError(
                f"task {name!r} declares a {a.op} of {a.elements} element(s) "
                f"against {a.dataset} in {a.file}, which holds only {cap}")
        rng = a.select_range
        if rng is not None and a.exact and rng[1] > cap:
            raise ContractError(
                f"task {name!r} declares a {a.op} selection up to element "
                f"{rng[1]} of {a.dataset} in {a.file}, which holds only {cap}")


def reconcile(declared: TaskContract,
              inferred: TaskContract) -> List[str]:
    """Compare a declared contract against the AST-inferred one.

    Presence-level comparison — per ``(file, dataset)``, do the two
    sides agree on whether the task creates/reads/writes it?  Counts and
    element totals are not compared (loop bounds legitimately scale with
    parameters).  Inexact inferred contracts only report accesses the
    extractor *did* resolve; missing declared accesses are then skipped.
    Returns human-readable discrepancy strings (empty = agreement).
    """
    out: List[str] = []

    def kinds(contract: TaskContract, key) -> set:
        ops = set()
        for a in contract.accesses:
            if a.key != key:
                continue
            if a.op == "create":
                ops.add("create")
                if a.moves_data:
                    ops.add("write")
            elif a.op in ("read", "write"):
                ops.add(a.op)
        return ops

    all_keys = {a.key for a in declared.accesses}
    all_keys.update(a.key for a in inferred.accesses)
    for key in sorted(all_keys):
        d, i = kinds(declared, key), kinds(inferred, key)
        file, dataset = key
        for op in sorted(i - d):
            out.append(f"task performs an undeclared {op} of "
                       f"{dataset} in {file}")
        if inferred.exact:
            for op in sorted(d - i):
                out.append(f"task declares a {op} of {dataset} in {file} "
                           "its code never performs")
    return out
