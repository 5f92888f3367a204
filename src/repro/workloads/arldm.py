"""ARLDM: auto-regressive latent diffusion image synthesis — data prep.

Reproduces the paper's Section VI-C workload: a three-stage workflow whose
first stage, ``arldm_saveh5``, packs image and text data into
``flintstones_out.h5`` as 1-D arrays of *variable-length* elements
(``image0``..``image4`` plus ``text``); training then reads the image
datasets and inference reads datasets selectively.

Over 90% of the volume is variable-length — the property that makes the
contiguous-vs-chunked layout choice decisive (the paper's Figures 8 and
13c).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.hdf5 import Selection
from repro.workflow.model import Stage, Task, Workflow
from repro.workflow.runner import TaskRuntime

__all__ = ["ArldmParams", "build_arldm"]


@dataclass(frozen=True)
class ArldmParams:
    """Workload scale knobs (defaults test-sized).

    Attributes:
        data_dir: Shared working directory.
        n_image_datasets: Image datasets (paper: image0..image4).
        items: Variable-length elements per dataset (stories).
        avg_image_bytes: Mean image element size (sizes vary ±50%).
        avg_text_bytes: Mean text element size.
        layout: ``"contiguous"`` (ARLDM's default) or ``"chunked"`` (the
            paper's optimized layout).
        chunks: Elements per chunk when chunked (the paper sweeps 5 and 10
            chunks per dataset).
        heap_data_capacity: Global-heap collection size for the output file.
        compute_seconds: Modeled compute per task.
    """

    data_dir: str = "/pfs/arldm"
    n_image_datasets: int = 5
    items: int = 40
    avg_image_bytes: int = 2048
    avg_text_bytes: int = 128
    layout: str = "contiguous"
    chunks: int = 8
    heap_data_capacity: int = 65536
    compute_seconds: float = 0.05

    @property
    def out_file(self) -> str:
        return f"{self.data_dir}/flintstones_out.h5"

    @property
    def train_out(self) -> str:
        return f"{self.data_dir}/arldm_model.h5"

    @property
    def inference_out(self) -> str:
        return f"{self.data_dir}/generated.h5"


def _image_elements(p: ArldmParams, dataset_idx: int) -> List[bytes]:
    """Deterministic variable-length fake image blobs (±50% size spread)."""
    rng = np.random.default_rng(42 + dataset_idx)
    sizes = rng.integers(
        max(p.avg_image_bytes // 2, 1), p.avg_image_bytes * 3 // 2 + 1, p.items
    )
    return [bytes([dataset_idx % 256]) * int(s) for s in sizes]


def _text_elements(p: ArldmParams) -> List[str]:
    rng = np.random.default_rng(99)
    sizes = rng.integers(max(p.avg_text_bytes // 2, 1),
                         p.avg_text_bytes * 3 // 2 + 1, p.items)
    return ["t" * int(s) for s in sizes]


def build_arldm(params: ArldmParams) -> Workflow:
    """Assemble the three-stage ARLDM workflow."""
    p = params
    layout_kwargs = (
        {"layout": "chunked", "chunks": (max(p.items // p.chunks, 1),)}
        if p.layout == "chunked"
        else {"layout": "contiguous"}
    )

    # ------------------ stage 1: data preparation ---------------------
    def saveh5(rt: TaskRuntime) -> None:
        f = rt.open(p.out_file, "w", heap_data_capacity=p.heap_data_capacity)
        for d in range(p.n_image_datasets):
            f.create_dataset(
                f"image{d}", shape=(p.items,), dtype="vlen-bytes",
                data=_image_elements(p, d), **layout_kwargs,
            )
        f.create_dataset(
            "text", shape=(p.items,), dtype="vlen-str",
            data=_text_elements(p), **layout_kwargs,
        )
        f.close()

    stage1 = Stage(
        "arldm_prepare",
        [Task("arldm_saveh5", saveh5, compute_seconds=p.compute_seconds)],
        parallel=False,
    )

    # ---------------------- stage 2: training -------------------------
    def train(rt: TaskRuntime) -> None:
        f = rt.open(p.out_file, "r", heap_data_capacity=p.heap_data_capacity)
        for d in range(p.n_image_datasets):
            f[f"image{d}"].read()
        f["text"].read()
        f.close()
        out = rt.open(p.train_out, "w")
        out.create_dataset("weights", shape=(1024,), dtype="f4",
                           data=np.zeros(1024, dtype=np.float32))
        out.close()

    stage2 = Stage(
        "arldm_train",
        [Task("arldm_train", train, compute_seconds=p.compute_seconds * 4)],
        parallel=False,
    )

    # --------------------- stage 3: inference -------------------------
    def inference(rt: TaskRuntime) -> None:
        f = rt.open(p.out_file, "r", heap_data_capacity=p.heap_data_capacity)
        # Inference conditions on text plus a *subset* of the stories.
        f["text"].read()
        subset = max(p.items // 4, 1)
        f["image0"].read(Selection.hyperslab(((0, subset),)))
        f.close()
        model = rt.open(p.train_out, "r")
        model["weights"].read()
        model.close()
        out = rt.open(p.inference_out, "w")
        out.create_dataset(
            "generated", shape=(subset,), dtype="vlen-bytes",
            data=[b"g" * p.avg_image_bytes for _ in range(subset)],
        )
        out.close()

    stage3 = Stage(
        "arldm_inference",
        [Task("arldm_inference", inference, compute_seconds=p.compute_seconds * 2)],
        parallel=False,
    )

    return Workflow("arldm", [stage1, stage2, stage3])
