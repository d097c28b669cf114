"""Trajectory records and deterministic serialization.

CSV and JSON writers render every float with repr-faithful precision
(%.17g) and a fixed column order, so reruns with the same seed produce
byte-identical files. Files are renamed into place once fully written.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

__all__ = ["FlowRecord", "TtsaRecord", "fmt17"]


def fmt17(x) -> str:
    """Shortest-faithful decimal rendering of a float."""
    return format(float(x), ".17g")


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


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_json(path, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
    _write_text(path, text + "\n")


@dataclass
class FlowRecord:
    """Sampled trajectory of the continuous incentive flow."""

    dim: int
    times: list = field(default_factory=list)
    incentives: list = field(default_factory=list)      # p at each sample
    responses: list = field(default_factory=list)       # x*(p)
    values: list = field(default_factory=list)          # V(p)
    grad_norms: list = field(default_factory=list)      # ||grad Phi(x*(p))||
    dists_to_target: list = field(default_factory=list)  # ||p - p_dagger||

    def append(self, t, p, x_star, V, grad_norm, dist):
        self.times.append(float(t))
        self.incentives.append(np.array(p, dtype=float))
        self.responses.append(np.array(x_star, dtype=float))
        self.values.append(float(V))
        self.grad_norms.append(float(grad_norm))
        self.dists_to_target.append(float(dist))

    def __len__(self):
        return len(self.times)

    @property
    def header(self):
        n = self.dim
        return (["t"] + [f"p_{i+1}" for i in range(n)]
                + [f"xstar_{i+1}" for i in range(n)]
                + ["V", "grad_norm", "dist_to_pdagger"])

    def write_csv(self, path) -> None:
        rows = []
        for k in range(len(self.times)):
            row = [fmt17(self.times[k])]
            row += [fmt17(v) for v in self.incentives[k]]
            row += [fmt17(v) for v in self.responses[k]]
            row += [fmt17(self.values[k]), fmt17(self.grad_norms[k]),
                    fmt17(self.dists_to_target[k])]
            rows.append(row)
        write_csv(path, self.header, rows)

    def write_json(self, path, extra: Optional[dict] = None) -> None:
        payload = {
            "kind": "flow",
            "t": self.times,
            "p": [v.tolist() for v in self.incentives],
            "x_star": [v.tolist() for v in self.responses],
            "V": self.values,
            "grad_norm": self.grad_norms,
            "dist_to_pdagger": self.dists_to_target,
        }
        if extra:
            payload.update(extra)
        write_json(path, payload)


@dataclass
class TtsaRecord:
    """Sampled trajectory of the discrete two-timescale iteration.

    ``step_accepts`` keeps the per-step projection indicator for every
    iteration (not just the sampled ones) so acceptance fractions over
    arbitrary windows stay exact; only summary counts are serialized.
    """

    dim: int
    steps: list = field(default_factory=list)
    strategies: list = field(default_factory=list)
    incentives: list = field(default_factory=list)
    tracking_errors: list = field(default_factory=list)   # ||x_k - x*(p_k)||
    incentive_errors: list = field(default_factory=list)  # ||p_k - p_dagger||
    values: list = field(default_factory=list)            # V(p_k)
    accepted_flags: list = field(default_factory=list)    # at sampled steps
    xi_norms: list = field(default_factory=list)          # ||grad Phi(x_k) - grad Phi(x*(p_k))||
    step_accepts: Optional[np.ndarray] = None             # full length-K bool array
    accepted_mass: Optional[float] = None                 # sum of b_k over accepted steps

    def append(self, k, x, p, tracking, incentive, V, accepted, xi_norm):
        self.steps.append(int(k))
        self.strategies.append(np.array(x, dtype=float))
        self.incentives.append(np.array(p, dtype=float))
        self.tracking_errors.append(float(tracking))
        self.incentive_errors.append(float(incentive))
        self.values.append(float(V))
        self.accepted_flags.append(bool(accepted))
        self.xi_norms.append(float(xi_norm))

    def __len__(self):
        return len(self.steps)

    @property
    def header(self):
        n = self.dim
        return (["k"] + [f"x_{i+1}" for i in range(n)]
                + [f"p_{i+1}" for i in range(n)]
                + ["tracking_error", "incentive_error", "V",
                   "indicator_accepted", "xi_norm"])

    def write_csv(self, path) -> None:
        rows = []
        for k in range(len(self.steps)):
            row = [str(self.steps[k])]
            row += [fmt17(v) for v in self.strategies[k]]
            row += [fmt17(v) for v in self.incentives[k]]
            row += [fmt17(self.tracking_errors[k]),
                    fmt17(self.incentive_errors[k]),
                    fmt17(self.values[k]),
                    "1" if self.accepted_flags[k] else "0",
                    fmt17(self.xi_norms[k])]
            rows.append(row)
        write_csv(path, self.header, rows)

    def acceptance_fraction(self, start: int = 0, stop: Optional[int] = None) -> float:
        if self.step_accepts is None or len(self.step_accepts) == 0:
            return float("nan")
        window = self.step_accepts[start:stop]
        if len(window) == 0:
            return float("nan")
        return float(np.mean(window))

    def write_json(self, path, config: Optional[dict] = None) -> None:
        payload = {
            "kind": "ttsa",
            "k": self.steps,
            "x": [v.tolist() for v in self.strategies],
            "p": [v.tolist() for v in self.incentives],
            "tracking_error": self.tracking_errors,
            "incentive_error": self.incentive_errors,
            "V": self.values,
            "indicator_accepted": [int(b) for b in self.accepted_flags],
            "xi_norm": self.xi_norms,
        }
        if self.step_accepts is not None:
            payload["accepted_steps_total"] = int(np.sum(self.step_accepts)) if len(self.step_accepts) else 0
            payload["steps_total"] = int(len(self.step_accepts))
        if config is not None:
            payload["config"] = config
        write_json(path, payload)
