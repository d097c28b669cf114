"""Trajectory records and deterministic serialization.

A record keeps its samples in one (samples, columns) float array whose
column order is the CSV header. The CSV writer renders the integer
columns with %d and every other value with repr-faithful precision
(%.17g), in a fixed column order, so reruns with the same seed produce
byte-identical files. Files are renamed into place once fully written.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional

import numpy as np

__all__ = ["FlowRecord", "TtsaRecord"]

_INTEGER_COLUMNS = ("k", "indicator_accepted")


def _write_text(path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it
    over ``path``. A failed write removes the temporary file and leaves
    ``path`` as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, newline="\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, header, data) -> None:
    """Write the rows of the float array ``data`` under ``header``: %d for
    the columns k and indicator_accepted, %.17g for every other column."""
    fmt = ",".join("%d" if name in _INTEGER_COLUMNS else "%.17g" for name in header)
    rows = np.asarray(data, dtype=float).reshape(-1, len(header)).tolist()
    _write_text(path, "\n".join([",".join(header), *(fmt % tuple(row) for row in rows)])
                + "\n")


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_json(path, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
    _write_text(path, text + "\n")


class _Record:
    """Samples of one run, one row per sample in the column order of
    ``header``, in an array that doubles its capacity when full."""

    kind = ""

    def __init__(self, dim: int):
        self.dim = dim
        self.header = self._header(dim)
        self._data = np.empty((1, len(self.header)))
        self._size = 0

    def append(self, row) -> None:
        """Add one sample: ``row`` holds a value per column of ``header``."""
        if self._size == len(self._data):
            self._data = np.concatenate([self._data, np.empty_like(self._data)])
        self._data[self._size] = row
        self._size += 1

    def __len__(self):
        return self._size

    @property
    def samples(self) -> np.ndarray:
        """The (samples, columns) array of every sample so far."""
        return self._data[:self._size]

    def column(self, name: str) -> np.ndarray:
        """The samples of column ``name``; for a vector such as "x", the
        (samples, dim) block of its columns x_1 ... x_dim."""
        if name in self.header:
            return self.samples[:, self.header.index(name)]
        start = self.header.index(f"{name}_1")
        return self.samples[:, start:start + self.dim]

    def write_csv(self, path) -> None:
        write_csv(path, self.header, self.samples)

    def write_json(self, path, config: Optional[dict] = None) -> None:
        """The run's kind, totals and ``config``; the samples are the CSV's."""
        payload = {"kind": self.kind, **self._totals()}
        if config is not None:
            payload["config"] = config
        write_json(path, payload)

    def _totals(self) -> dict:
        return {}


class FlowRecord(_Record):
    """Sampled trajectory of the continuous incentive flow.

    Columns: the time t, the incentive p, the response x*(p), the value
    V(p), ||grad Phi(x*(p))|| and ||p - p_dagger||.
    """

    kind = "flow"

    @staticmethod
    def _header(n):
        return (["t"] + [f"p_{i+1}" for i in range(n)]
                + [f"xstar_{i+1}" for i in range(n)]
                + ["V", "grad_norm", "dist_to_pdagger"])


class TtsaRecord(_Record):
    """Sampled trajectory of the discrete two-timescale iteration.

    Columns: the step k, the strategy x_k, the incentive p_k,
    ||x_k - x*(p_k)||, ||p_k - p_dagger||, V(p_k), the gate outcome of the
    sampled step (1 accepted, 0 rejected) and
    ||grad Phi(x_k) - grad Phi(x*(p_k))||.

    ``step_accepts`` keeps the per-step projection indicator for every
    iteration (not just the sampled ones) so acceptance fractions over
    arbitrary windows stay exact; only summary counts are serialized.
    """

    kind = "ttsa"

    def __init__(self, dim: int):
        super().__init__(dim)
        self.step_accepts: Optional[np.ndarray] = None   # full length-K bool array
        self.accepted_mass: Optional[float] = None       # sum of b_k over accepted steps

    @staticmethod
    def _header(n):
        return (["k"] + [f"x_{i+1}" for i in range(n)]
                + [f"p_{i+1}" for i in range(n)]
                + ["tracking_error", "incentive_error", "V",
                   "indicator_accepted", "xi_norm"])

    def acceptance_fraction(self, start: int = 0, stop: Optional[int] = None) -> float:
        """The accepted share of steps start ... stop - 1; NaN if there are none."""
        window = () if self.step_accepts is None else self.step_accepts[start:stop]
        return float(np.mean(window)) if len(window) else float("nan")

    def _totals(self) -> dict:
        if self.step_accepts is None:
            return {}
        return {"accepted_steps_total": int(np.sum(self.step_accepts)),
                "steps_total": len(self.step_accepts)}
