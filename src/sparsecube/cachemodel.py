"""Analytic model of how caching shapes expected retrieval time.

A query costs M when everything it needs is resident and D when the disk is
involved; with p the probability of the resident case, the expected time is
the convex combination p*M + (1-p)*D.  Under uniform access, p is estimated
by the cached fraction of the representation.  The module exposes the
sufficient thresholds on the cached fractions, the exact boundary line
between the two representations, and the expected-time-vs-memory curves used
by the sweep experiment.

All times are real-valued milliseconds; no unit conversion happens here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import FormatError


@dataclass(frozen=True)
class RepConstants:
    """Per-representation in-memory (M) and disk-path (D) retrieval times."""

    M: float
    D: float

    def __post_init__(self):
        if not 0 < self.M < self.D:
            raise ValueError(f"need 0 < M < D, got M={self.M}, D={self.D}")


@dataclass(frozen=True)
class CacheModelParams:
    md: RepConstants  # multidimensional representation
    tbl: RepConstants  # table representation
    preload_bytes: int  # resident before any query (header, dim values, aux)
    cell_bytes: int  # compressed cell array, the md part that stays on disk
    table_bytes: int  # total size of the table representation

    def __post_init__(self):
        if min(self.preload_bytes, self.cell_bytes, self.table_bytes) <= 0:
            raise ValueError("sizes must be positive")


def expected_time(p: float, c: RepConstants) -> float:
    """p*M + (1-p)*D; lies in [M, D]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    return p * c.M + (1.0 - p) * c.D


def md_sufficient_threshold(params: CacheModelParams) -> float:
    """Below this table cached fraction, md wins regardless of its own caching."""
    md, tbl = params.md, params.tbl
    return (tbl.D - md.D) / (tbl.D - tbl.M)


def table_sufficient_threshold(params: CacheModelParams) -> float | None:
    """Above this table cached fraction, the table wins; needs M_t < M_m."""
    md, tbl = params.md, params.tbl
    if not tbl.M < md.M:
        return None
    return (tbl.D - md.M) / (tbl.D - tbl.M)


def md_pm_sufficient_threshold(params: CacheModelParams) -> float | None:
    """Above this md cached fraction, md wins; needs M_m < M_t."""
    md, tbl = params.md, params.tbl
    if not md.M < tbl.M:
        return None
    return (md.D - tbl.M) / (md.D - md.M)


def md_line(params: CacheModelParams) -> tuple[float, float]:
    """(slope, intercept) of the exact boundary p_t = slope*p_m + intercept."""
    md, tbl = params.md, params.tbl
    denom = tbl.D - tbl.M
    return (md.D - md.M) / denom, (tbl.D - md.D) / denom


def md_faster_iff(p_m: float, p_t: float, params: CacheModelParams) -> bool:
    """True iff the md expected time is strictly smaller (boundary excluded)."""
    slope, intercept = md_line(params)
    return p_t < slope * p_m + intercept


def t_m(x: float, params: CacheModelParams) -> float:
    """Expected md retrieval time with x octets of memory (x >= preload)."""
    if x < params.preload_bytes:
        raise ValueError(
            f"memory {x} below the preloaded size {params.preload_bytes}"
        )
    p = min((x - params.preload_bytes) / params.cell_bytes, 1.0)
    return expected_time(p, params.md)


def t_t(x: float, params: CacheModelParams) -> float:
    """Expected table retrieval time with x octets of memory for caching."""
    if x < 0:
        raise ValueError("memory must be >= 0")
    p = min(x / params.table_bytes, 1.0)
    return expected_time(p, params.tbl)


def save_params(params: CacheModelParams, path: str | Path) -> None:
    doc = {
        "M_m": params.md.M,
        "D_m": params.md.D,
        "M_t": params.tbl.M,
        "D_t": params.tbl.D,
        "H": params.preload_bytes,
        "C": params.cell_bytes,
        "S": params.table_bytes,
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_params(path: str | Path) -> CacheModelParams:
    try:
        doc = json.loads(Path(path).read_text())
        return CacheModelParams(
            md=RepConstants(doc["M_m"], doc["D_m"]),
            tbl=RepConstants(doc["M_t"], doc["D_t"]),
            preload_bytes=int(doc["H"]),
            cell_bytes=int(doc["C"]),
            table_bytes=int(doc["S"]),
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"bad constants file: {exc}") from exc
