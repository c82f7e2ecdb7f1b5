"""Monte Carlo workload designs and the published values they are checked against.

Pure Python: the set-up probe imports this module before it starts timing
the ``laplacefit`` import, so nothing here may pull in numpy.

The published values are the paper's Tables 1-4 and named power cells, as
quoted in ``tests/test_acceptance.py``; the tolerances are that suite's
desk-scale bands, since one benchmark run pools about as many replicates per
cell as the desk-scale suite runs.
"""

from __future__ import annotations

#: (row, metrics, replications per round) per config; every config runs the
#: whole n grid. The tw0:1,1,0.1 rrmse row gets twice the replicates: its
#: lambda column at n = 500 is heavy-tailed, and a run that pools too few
#: replicates of it can miss the published value by more than its band.
MC_DESIGNS = {
    "mc_ps_small_n": {
        "fit_target": "ps",
        "n_grid": (100, 200, 300),
        "rows": tuple(
            (row, ("rrmse", "coverage", "size"), 200)
            for row in ("ps:0.3,2", "ps:0.4,5", "ps:0.5,15", "ps:0.6,20")
        ),
    },
    "mc_tweedie": {
        "fit_target": "tweedie",
        "n_grid": (500, 1500),
        "rows": (
            ("tw0:1,1,0.1", ("rrmse",), 400),
            ("tw:0.5,2,0.5", ("rrmse",), 200),
            ("tw0:1,1,0.1", ("size",), 200),
            ("ln0:5,1,0.1", ("power",), 200),
            ("we0:5,1,0.1", ("power",), 200),
        ),
    },
}

#: parameter names of each fit target, in estimate order
PARAMS = {"ps": ("gamma", "lambda"), "tweedie": ("gamma", "lambda", "theta")}


def round_base_seed(seed: int, round_index: int, row_index: int) -> int:
    """Base seed of one config in one round; distinct for every (round, row)."""
    return seed * 1_000_000 + round_index * 100 + row_index


# published values (percent), keyed by (generator, n)

TABLE1_RRMSE = {  # stable law, (gamma, lambda)
    ("ps:0.3,2", 100): (11.84, 12.46),
    ("ps:0.3,2", 200): (8.34, 8.49),
    ("ps:0.3,2", 300): (6.77, 6.88),
    ("ps:0.4,5", 100): (9.19, 15.44),
    ("ps:0.4,5", 200): (6.50, 10.57),
    ("ps:0.4,5", 300): (5.30, 8.61),
    ("ps:0.5,15", 100): (7.31, 18.81),
    ("ps:0.5,15", 200): (5.19, 12.96),
    ("ps:0.5,15", 300): (4.22, 10.54),
    ("ps:0.6,20", 100): (5.88, 15.70),
    ("ps:0.6,20", 200): (4.15, 10.87),
    ("ps:0.6,20", 300): (3.38, 8.88),
}

TABLE2_RRMSE = {  # Tweedie, (gamma, lambda, theta); the rows this benchmark runs
    ("tw0:1,1,0.1", 500): (28.66, 37.49, 23.13),
    ("tw0:1,1,0.1", 1500): (16.02, 15.08, 13.12),
    ("tw:0.5,2,0.5", 500): (9.54, 18.39, 24.84),
    ("tw:0.5,2,0.5", 1500): (5.46, 9.72, 14.19),
}

TABLE3_SIZE = {
    ("ps:0.3,2", 100): 2.83, ("ps:0.3,2", 200): 3.94, ("ps:0.3,2", 300): 4.14,
    ("ps:0.4,5", 100): 3.49, ("ps:0.4,5", 200): 3.89, ("ps:0.4,5", 300): 4.34,
    ("ps:0.5,15", 100): 3.69, ("ps:0.5,15", 200): 4.74, ("ps:0.5,15", 300): 5.20,
    ("ps:0.6,20", 100): 3.97, ("ps:0.6,20", 200): 4.54, ("ps:0.6,20", 300): 4.89,
}

TABLE4_SIZE = {("tw0:1,1,0.1", 500): 2.43, ("tw0:1,1,0.1", 1500): 3.49}

#: ln0:5,1,0.1 power at n = 1500, and the one-sided bound for we0:5,1,0.1 at n = 500
POWER_LN0_1500 = 99.11
POWER_WE0_500_MIN = 99.0

#: stated tolerances (percentage points, coverage as a proportion)
TOL_RRMSE_PS = 2.9
TOL_RRMSE_TW = 5.0
TOL_SIZE = 2.28
TOL_POWER = 1.9
TOL_COVERAGE = 0.038
NOMINAL_COVERAGE = 0.95
