"""Panel data model: values plus an observation mask, locator sets,
and column-wise standardization.

A panel is a T x N matrix of float64 values where rows index time and
columns index series.  Missing cells are carried as NaN in ``values`` and
as False in ``mask``; no arithmetic ever reads a masked-out value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DataValidationError,
    DimensionMismatch,
    TooFewObservations,
    ZeroVarianceSeries,
)

MODES = ("raw", "demean", "standardize")


@dataclass(frozen=True)
class PanelMatrix:
    """Immutable T x N panel with an explicit observation mask."""

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        mask = np.asarray(self.mask, dtype=bool)
        if values.ndim != 2:
            raise DimensionMismatch(f"panel must be 2-d, got shape {values.shape}")
        if mask.shape != values.shape:
            raise DimensionMismatch(
                f"mask shape {mask.shape} != values shape {values.shape}"
            )
        if values.shape[0] < 1 or values.shape[1] < 1:
            raise DimensionMismatch("panel must have at least one row and column")
        if not np.isfinite(values[mask]).all():
            raise DataValidationError("observed cells contain non-finite values")
        obs_per_series = mask.sum(axis=0)
        if (obs_per_series == 0).any():
            i = int(np.flatnonzero(obs_per_series == 0)[0])
            raise TooFewObservations(i, 1, 0)
        values = values.copy()
        values[~mask] = np.nan
        values.setflags(write=False)
        mask = mask.copy()
        mask.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)

    # -- construction ---------------------------------------------------

    @classmethod
    def from_values(cls, values) -> "PanelMatrix":
        """Build a panel treating NaN entries as missing."""
        values = np.asarray(values, dtype=np.float64)
        return cls(values, ~np.isnan(values))

    @classmethod
    def complete(cls, values) -> "PanelMatrix":
        values = np.asarray(values, dtype=np.float64)
        return cls(values, np.ones(values.shape, dtype=bool))

    # -- basic shape ----------------------------------------------------

    @property
    def T(self) -> int:
        return self.values.shape[0]

    @property
    def N(self) -> int:
        return self.values.shape[1]

    @property
    def n_missing(self) -> int:
        return int((~self.mask).sum())

    @property
    def is_complete(self) -> bool:
        return bool(self.mask.all())

    def filled(self, fill: float = 0.0) -> np.ndarray:
        """Writable copy of values with ``fill`` at missing cells."""
        out = self.values.copy()
        out[~self.mask] = fill
        return out


@dataclass(frozen=True)
class LocatorSets:
    """Index bookkeeping for an observation mask.

    per_time[t]   -- observed series indices at period t (J^t)
    per_series[i] -- observed period indices for series i (J_i)
    N_ot[t]       -- number of series observed at t
    T_oi[i]       -- number of periods observed for series i
    N_o           -- count of fully observed series (the tall block)
    T_o           -- count of fully observed periods (the wide block)
    """

    per_time: tuple
    per_series: tuple
    N_ot: np.ndarray
    T_oi: np.ndarray
    N_o: int
    T_o: int
    tall_series: np.ndarray
    complete_rows: np.ndarray


def build_locators(panel: PanelMatrix) -> LocatorSets:
    mask = panel.mask
    T, N = mask.shape
    N_ot = mask.sum(axis=1).astype(np.int64)
    T_oi = mask.sum(axis=0).astype(np.int64)
    tall = np.flatnonzero(T_oi == T)
    rows = np.flatnonzero(N_ot == N)
    per_time = tuple(np.flatnonzero(mask[t]) for t in range(T))
    per_series = tuple(np.flatnonzero(mask[:, i]) for i in range(N))
    return LocatorSets(
        per_time=per_time,
        per_series=per_series,
        N_ot=N_ot,
        T_oi=T_oi,
        N_o=int(tall.size),
        T_o=int(rows.size),
        tall_series=tall,
        complete_rows=rows,
    )


@dataclass(frozen=True)
class StandardizationRecord:
    """Column transform x -> (x - mean) / std and its inverse."""

    mode: str
    means: np.ndarray
    stds: np.ndarray

    def invert_values(self, M: np.ndarray) -> np.ndarray:
        """Map a T x N matrix in transformed units back to original units."""
        M = np.asarray(M, dtype=np.float64)
        if M.ndim != 2 or M.shape[1] != self.means.shape[0]:
            raise DimensionMismatch(
                f"matrix with {M.shape[-1]} columns does not match record of "
                f"length {self.means.shape[0]}"
            )
        return M * self.stds + self.means

    def scale_for(self, i: int) -> float:
        return float(self.stds[i])

    def shift_for(self, i: int) -> float:
        return float(self.means[i])


def standardize(panel: PanelMatrix, mode: str = "standardize"):
    """Column-standardize using observed cells only.

    Returns ``(panel, record)``.  Means and standard deviations are
    computed over each series' observed entries; the standard deviation
    uses the (count - 1) denominator.  ``raw`` is the identity transform,
    ``demean`` centers without scaling.
    """
    if mode not in MODES:
        raise DataValidationError(f"unknown mode {mode!r}; expected one of {MODES}")
    N = panel.N
    if mode == "raw":
        record = StandardizationRecord(mode, np.zeros(N), np.ones(N))
        return panel, record
    mask = panel.mask
    values = panel.values
    means = np.empty(N)
    stds = np.ones(N)
    for i in range(N):
        obs = values[mask[:, i], i]
        means[i] = obs.mean()
        if mode == "standardize":
            if obs.size < 2:
                raise TooFewObservations(i, 2, obs.size)
            s = obs.std(ddof=1)
            if not s > 0.0:
                raise ZeroVarianceSeries(i)
            stds[i] = s
    out = PanelMatrix((values - means) / stds, mask)
    return out, StandardizationRecord(mode, means, stds)


def destandardize(panel: PanelMatrix, record: StandardizationRecord) -> PanelMatrix:
    """Invert :func:`standardize`; the mask is preserved."""
    if record.means.shape[0] != panel.N:
        raise DimensionMismatch(
            f"record length {record.means.shape[0]} != panel width {panel.N}"
        )
    values = panel.values * record.stds + record.means
    return PanelMatrix(values, panel.mask)

