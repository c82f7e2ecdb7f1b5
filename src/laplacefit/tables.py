"""The paper's Monte Carlo study: each table's design, published values and stated tolerances.

Units are the paper's: RRMSE, size and power in percent, coverage as a
proportion.  Full scale runs ``FULL_REPLICATIONS`` replicates per cell, desk
scale a design's ``desk_replications`` against wider tolerances.  The
acceptance suite compares every quoted cell with the harness, allowing the
tolerance plus three reported Monte Carlo standard errors.

Pure Python: nothing here imports numpy or another ``laplacefit`` module.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass

#: a quoted cell: one value, or one per parameter of the fit target (RRMSE)
Value = float | tuple[float, ...]

#: replicates per cell at full scale, as in the paper
FULL_REPLICATIONS = 3500
#: replicates per cell at desk scale, unless a design states its own
DESK_REPLICATIONS = 1000
#: desk-scale widening of a full-scale tolerance that states no desk value
DESK_WIDEN = 1.9

#: table k runs its row i at base seed DEFAULT_TABLE_SEED + 1000 * k + i
DEFAULT_TABLE_SEED = 20260809


@dataclass(frozen=True)
class Tolerance:
    """A stated bound at full scale and at desk scale, where it is ``full * DESK_WIDEN`` unless given."""

    full: float | tuple[float, float]
    desk: float | tuple[float, float] | None = None

    def at(self, full: bool) -> float | tuple[float, float]:
        if full:
            return self.full
        return self.full * DESK_WIDEN if self.desk is None else self.desk


@dataclass(frozen=True)
class TableDesign:
    """One Monte Carlo table: its experiment, the paper's values and their tolerance.

    ``published`` maps each row, in run order, to one value per n of
    ``n_grid`` (None where this repository quotes none), or to None where it
    quotes none of the row's.  ``tolerance`` bounds every quoted cell, or,
    keyed by row, that row's cells.
    """

    fit_target: str
    metrics: tuple[str, ...]
    n_grid: tuple[int, ...]
    published: Mapping[str, tuple[Value | None, ...] | None]
    tolerance: Tolerance | Mapping[str, Tolerance]
    desk_replications: int = DESK_REPLICATIONS

    @property
    def rows(self) -> tuple[str, ...]:
        return tuple(self.published)

    def replications(self, full: bool) -> int:
        return FULL_REPLICATIONS if full else self.desk_replications

    def value(self, row: str, n: int) -> Value | None:
        return self.published[row][self.n_grid.index(n)]

    def cells(self) -> Iterator[tuple[str, int, Value]]:
        """(row, n, published value) of every quoted cell, row by row."""
        for row, values in self.published.items():
            for n, value in zip(self.n_grid, values or ()):
                if value is not None:
                    yield row, n, value


#: Monte Carlo benchmark experiment designs, keyed by table number
TABLE_DESIGNS: dict[int, TableDesign] = {
    1: TableDesign(  # stable-law RRMSE, (gamma, lambda)
        fit_target="ps", metrics=("rrmse",), n_grid=(100, 200, 300),
        published={
            "ps:0.3,2": ((11.84, 12.46), (8.34, 8.49), (6.77, 6.88)),
            "ps:0.4,5": ((9.19, 15.44), (6.50, 10.57), (5.30, 8.61)),
            "ps:0.5,15": ((7.31, 18.81), (5.19, 12.96), (4.22, 10.54)),
            "ps:0.6,20": ((5.88, 15.70), (4.15, 10.87), (3.38, 8.88)),
        },
        tolerance=Tolerance(1.5, 2.9),
    ),
    2: TableDesign(  # Tweedie RRMSE, (gamma, lambda, theta)
        fit_target="tweedie", metrics=("rrmse",), n_grid=(500, 1000, 1500),
        published={
            "tw0:1,1,0.1": ((28.66, 37.49, 23.13), (19.56, 19.73, 15.80), (16.02, 15.08, 13.12)),
            "tw0:1,1.25,0.2": ((22.61, 48.19, 26.53), (15.76, 27.10, 18.25), (12.73, 20.44, 14.89)),
            "tw:0.5,2,0.5": ((9.54, 18.39, 24.84), (6.73, 12.14, 17.62), (5.46, 9.72, 14.19)),
            "tw:0.6,2.5,0.6": ((7.04, 13.94, 21.34), (4.83, 8.91, 14.38), (3.89, 7.09, 11.69)),
        },
        tolerance=Tolerance(2.5, 5.0),
        desk_replications=500,
    ),
    3: TableDesign(  # stable-law test size
        fit_target="ps", metrics=("size",), n_grid=(100, 200, 300),
        published={
            "ps:0.3,2": (2.83, 3.94, 4.14),
            "ps:0.4,5": (3.49, 3.89, 4.34),
            "ps:0.5,15": (3.69, 4.74, 5.20),
            "ps:0.6,20": (3.97, 4.54, 4.89),
        },
        tolerance=Tolerance(1.2, 2.28),
    ),
    4: TableDesign(  # Tweedie test size
        fit_target="tweedie", metrics=("size",), n_grid=(300, 500, 1000, 1500),
        published={
            "tw0:0.75,0.5,0.1": (1.17, 2.11, 3.31, 3.43),
            "tw0:1,1,0.1": (1.17, 2.43, 3.14, 3.49),
            "tw0:1,1.25,0.2": (1.09, 2.03, 2.66, 3.20),
            "tw:0.5,2,0.5": (1.06, 1.83, 3.77, 3.80),
            "tw:0.6,2.5,0.6": (0.17, 1.49, 3.26, 3.40),
        },
        tolerance=Tolerance(1.2, 2.28),
    ),
    5: TableDesign(  # stable-law test power
        fit_target="ps", metrics=("power",), n_grid=(100, 200, 300),
        published={
            "ln:0,1.5": None, "pa:5,2": (97.77, None, None), "pa:10,2": None,
            "li:0.5,2,0.5": (None, None, 43.91), "li:0.5,2,0.75": None,
            "lnsqrt:0,1.5": None, "lnsqrt:0,3": None,
        },
        tolerance={"pa:5,2": Tolerance(1.5), "li:0.5,2,0.5": Tolerance(2.5)},
    ),
    7: TableDesign(  # Tweedie test power
        fit_target="tweedie", metrics=("power",), n_grid=(300, 500, 1000, 1500),
        published={
            "ln:0,1": None, "we:5,1": None, "pa:10,2": None,
            "ln0:1,0.75,0.1": None, "ln0:1,0.75,0.2": None,
            "ln0:5,1,0.1": (None, None, None, 99.11), "ln0:5,1,0.2": None,
            "we0:3,1,0.1": None, "we0:3,1,0.2": None, "we0:5,1,0.1": None, "we0:5,1,0.2": None,
            "pa0:5,2,0.1": None, "pa0:5,2,0.2": None, "pa0:10,2,0.1": None,
        },
        tolerance={"ln0:5,1,0.1": Tolerance(1.0)},
    ),
}

#: table 7's we0:5,1,0.1 at n = 500: a one-sided bound on its power, at either scale
WE0_POWER_MIN = 99.0

#: the largest size over tables 3 and 4: the conservativeness cap, plus about
#: two binomial standard deviations at desk scale
SIZE_CAP = Tolerance(5.5, 6.9)

#: the band every cell of the stable-law coverage grid falls in
COVERAGE_BAND = Tolerance((0.93, 0.97), (0.912, 0.988))

#: table 6, the deterministic one: each mean/zero-probability row's native
#: (gamma, lambda, theta), to seven significant digits
CONVERSION_TABLE = {
    "tw0:0.75,0.5,0.1": (-1.8689607, 60.297348, 5.737921),
    "tw0:1,1,0.1": (-0.7677042, 3.565768, 1.767704),
    "tw0:1,1.25,0.2": (-0.9883402, 2.546270, 1.590672),
}
