"""``dayu-plan/v1``: a versioned, executable placement plan.

The paper's fig11 experiment hand-placed PyFLEXTRKR's stages onto the
node that produced their data and staged the hot files onto node-local
flash.  A :class:`PlacementPlan` is that optimization as a derived
artifact: task → node pins plus file → (node, tier) localizations,
emitted by the greedy solver (:mod:`repro.optimizer.placement`) from the
static cost report, or compiled from advisory findings by
:func:`repro.optimizer.build_plan`, serialized as JSON so ``dayu-run
--plan`` can execute it on either engine.

Executing a plan means three things:

- :func:`plan_file_map` / :func:`plan_path_resolver` — rewrite every
  localized file's path to its ``/local/<node>/<tier>/…`` home.  The
  rewrite is strict: an unpinned task touching a localized file from the
  wrong node fails loudly with a locality error rather than silently
  reading stale shared data.
- ``pins=plan.tasks`` on the runner — the plan's task → node pins
  (unpinned tasks keep the runner's default placement);
- :func:`stage_in_plan` — copy localized files that already exist on
  shared storage (external inputs) to their planned homes, paying
  honest device costs on the simulated clock.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.cluster.cluster import Cluster
from repro.middleware.stager import stage_in

__all__ = [
    "PLAN_SCHEMA",
    "FilePlacement",
    "PlacementPlan",
    "local_path",
    "plan_file_map",
    "plan_path_resolver",
    "stage_in_plan",
]

#: Versioned schema tag for serialized plans.
PLAN_SCHEMA = "dayu-plan/v1"


def local_path(path: str, node: str, tier: str) -> str:
    """The node-local home of a localized file.

    The original path is flattened into one component (``/`` → ``__``).
    Flattening is not injective (``/pfs/a__b.h5`` and ``/pfs/a/b.h5``
    meet), so :func:`plan_file_map` rejects a plan whose files collide.
    """
    return (f"{Cluster.local_prefix(node, tier)}/"
            f"{path.lstrip('/').replace('/', '__')}")


@dataclass(frozen=True)
class FilePlacement:
    """One localized file: where it goes and why.

    ``volume`` is the predicted bytes of one copy of the file (the
    stage-in price when it pre-exists); ``datasets`` the dataset names
    whose traffic motivated the move.
    """

    path: str
    node: str
    tier: str
    volume: int = 0
    datasets: Tuple[str, ...] = ()

    @property
    def placed_path(self) -> str:
        return local_path(self.path, self.node, self.tier)


@dataclass
class PlacementPlan:
    """The ``dayu-plan/v1`` artifact.

    Attributes:
        workload: Registry name the plan was solved for (``dayu-run
            --plan`` refuses a mismatched workload).
        scale: Workload scale the plan was solved at.
        cluster: Cluster spec name the plan prices against.
        n_nodes: Node count of that cluster.
        tasks: Explicit task → node pins (unlisted tasks round-robin).
        files: Localized files, in solver commit order.
        predicted: Solver-side forecast — ``baseline_makespan_seconds``,
            ``planned_makespan_seconds``, ``stage_in_seconds``.
    """

    workload: str
    scale: float
    cluster: str
    n_nodes: int
    tasks: Dict[str, str] = field(default_factory=dict)
    files: List[FilePlacement] = field(default_factory=list)
    predicted: Dict[str, float] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "schema": PLAN_SCHEMA,
            "workload": self.workload,
            "scale": self.scale,
            "cluster": self.cluster,
            "n_nodes": self.n_nodes,
            "tasks": dict(sorted(self.tasks.items())),
            "files": [
                {
                    "path": f.path,
                    "node": f.node,
                    "tier": f.tier,
                    "placed_path": f.placed_path,
                    "volume": f.volume,
                    "datasets": list(f.datasets),
                }
                for f in self.files
            ],
            "predicted": {k: round(v, 9)
                          for k, v in sorted(self.predicted.items())},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def save(self, path: str) -> None:
        from repro.ioutil import atomic_write_text

        atomic_write_text(path, self.to_json())

    @classmethod
    def from_json_dict(cls, data: dict) -> "PlacementPlan":
        schema = data.get("schema")
        if schema != PLAN_SCHEMA:
            raise ValueError(f"not a {PLAN_SCHEMA} document "
                             f"(schema={schema!r})")
        plan = cls(
            workload=data["workload"],
            scale=float(data.get("scale", 1.0)),
            cluster=data.get("cluster", ""),
            n_nodes=int(data.get("n_nodes", 0)),
            tasks=dict(data.get("tasks", {})),
            files=[
                FilePlacement(path=f["path"], node=f["node"],
                              tier=f["tier"],
                              volume=int(f.get("volume", 0)),
                              datasets=tuple(f.get("datasets", ())))
                for f in data.get("files", ())
            ],
            predicted={k: float(v)
                       for k, v in data.get("predicted", {}).items()},
        )
        plan_file_map(plan)
        return plan

    @classmethod
    def load(cls, path: str) -> "PlacementPlan":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


def plan_file_map(plan: PlacementPlan) -> Dict[str, str]:
    """``original path -> placed path`` for every localized file.

    Raises :class:`ValueError` naming both paths when two localized files
    would share one placed path, and so one replica.
    """
    fmap: Dict[str, str] = {}
    owner: Dict[str, str] = {}
    for f in plan.files:
        placed = f.placed_path
        other = owner.setdefault(placed, f.path)
        if other != f.path:
            raise ValueError(f"localized files {other!r} and {f.path!r} "
                             f"collide at {placed!r}")
        fmap[f.path] = placed
    return fmap


def plan_path_resolver(plan: PlacementPlan
                       ) -> Callable[[str, str, str], str]:
    """A :class:`~repro.workflow.dscheduler.DataflowRunner` path resolver
    applying the plan's localizations to every task open."""
    fmap = plan_file_map(plan)

    def resolver(path: str, mode: str, node: str) -> str:
        return fmap.get(path, path)

    return resolver


def stage_in_plan(cluster: Cluster, plan: PlacementPlan) -> float:
    """Copy pre-existing localized files to their planned homes.

    Files the workflow itself produces don't exist yet and are simply
    created at their placed paths by the resolver; external inputs that
    prepare steps already materialized on shared storage are copied
    here, paying read costs on the source device and write costs on the
    destination.  Returns the simulated seconds the staging took.
    """
    t0 = cluster.clock.now
    for f in plan.files:
        if cluster.fs.exists(f.path) and not cluster.fs.exists(f.placed_path):
            stage_in(cluster.fs, f.path, f.placed_path)
    return cluster.clock.now - t0
