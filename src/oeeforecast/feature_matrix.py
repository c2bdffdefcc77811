"""Tabular carrier for window features used as exogenous regressors.

Rows align to window end positions in the source series (``row_index``);
a row may only depend on source values at positions <= its row_index, which
is what the pipeline's leakage audit checks. Non-finite feature values are
imputed to 0 at construction and remembered in ``imputed`` so the variance
filter can see dead columns rather than NaN poison.

The constructor copies the matrix and checks the names, the shape and the
row index. ``FeatureMatrix.wrap`` takes over a matrix that a feature
catalog has just built, whose layout the catalog guarantees: it skips the
copy and those checks, and imputes and records the non-finite cells in
place.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class FeatureMatrix:
    column_names: tuple[str, ...]
    matrix: np.ndarray  # shape (n_rows, n_cols), finite
    row_index: tuple[int, ...]
    imputed: frozenset = field(default_factory=frozenset)  # (row_index, column_name)

    def __post_init__(self):
        names = tuple(self.column_names)
        if len(set(names)) != len(names):
            raise ValueError("column names must be unique")
        m = np.array(self.matrix, dtype=float, copy=True)
        if m.ndim != 2 or m.shape[1] != len(names):
            raise ValueError(f"matrix shape {m.shape} does not match {len(names)} columns")
        ridx = tuple(int(i) for i in self.row_index)
        if len(ridx) != m.shape[0]:
            raise ValueError("row_index length must equal row count")
        if any(b <= a for a, b in zip(ridx, ridx[1:])):
            raise ValueError("row_index must be strictly increasing")
        imputed = frozenset(self.imputed) | _impute(m, ridx, names)
        m.setflags(write=False)
        object.__setattr__(self, "column_names", names)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "row_index", ridx)
        object.__setattr__(self, "imputed", imputed)

    @classmethod
    def wrap(
        cls, column_names: tuple[str, ...], matrix: np.ndarray, row_index: tuple[int, ...]
    ) -> "FeatureMatrix":
        """A matrix over ``matrix`` itself, for the rows a catalog has just
        built: unique names, a float64 matrix of one column per name and
        one row per strictly increasing row index, all unchecked. Its
        non-finite cells are imputed in place and recorded; ``matrix`` is
        marked read-only and must not be written again.
        """
        imputed = _impute(matrix, row_index, column_names)
        matrix.setflags(write=False)
        fm = object.__new__(cls)
        fm.__dict__.update(
            column_names=column_names, matrix=matrix, row_index=row_index, imputed=imputed
        )
        return fm

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_cols(self) -> int:
        return self.matrix.shape[1]

    def column(self, name: str) -> np.ndarray:
        return self.matrix[:, self.column_names.index(name)]

    def select_columns(self, names) -> "FeatureMatrix":
        names = tuple(names)
        idx = [self.column_names.index(n) for n in names]
        imputed = {(r, c) for r, c in self.imputed if c in names}
        return FeatureMatrix(names, self.matrix[:, idx], self.row_index, imputed)

    def select_rows(self, mask_or_indices) -> "FeatureMatrix":
        sel = np.asarray(mask_or_indices)
        sub = self.matrix[sel]
        ridx = tuple(np.asarray(self.row_index)[sel].tolist())
        kept = set(ridx)
        imputed = {(r, c) for r, c in self.imputed if r in kept}
        return FeatureMatrix(self.column_names, sub, ridx, imputed)

    def hstack(self, other: "FeatureMatrix") -> "FeatureMatrix":
        if self.row_index != other.row_index:
            raise ValueError("cannot hstack matrices with different row indices")
        return FeatureMatrix(
            self.column_names + other.column_names,
            np.hstack([self.matrix, other.matrix]),
            self.row_index,
            self.imputed | other.imputed,
        )

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("row_index",) + self.column_names)
            for i, ridx in enumerate(self.row_index):
                w.writerow([ridx] + [repr(float(v)) for v in self.matrix[i]])


def _impute(m: np.ndarray, row_index: tuple[int, ...], names: tuple[str, ...]) -> frozenset:
    """Set the non-finite cells of m to 0 and return their (row index,
    column name) pairs."""
    bad = ~np.isfinite(m)
    if not bad.any():
        return frozenset()
    rows, cols = np.nonzero(bad)
    m[bad] = 0.0
    return frozenset((row_index[r], names[c]) for r, c in zip(rows.tolist(), cols.tolist()))
