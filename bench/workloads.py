"""The benchmark's workloads.

A workload is a fixed sequence of ``kmslab`` command-line invocations; one
pass runs the whole sequence once, in one process, one invocation at a
time.  The workload seed reaches the program only as the CLI's ``--seed``
(``cli_seed``).  README.md says why each workload exists.
"""

from typing import NamedTuple, Optional, Tuple


class Invocation(NamedTuple):
    label: str                    # unique within its workload
    args: Tuple[str, ...]         # subcommand and its options
    config: Optional[str] = None  # text of a --config file, if any
    grid: Optional[int] = None    # fixed CLI --seed, if not the run's


def cli_seed(inv, seed):
    """The CLI ``--seed`` of invocation ``inv`` in a run of seed ``seed``."""
    return seed if inv.grid is None else inv.grid


# rte-spectrum is checked for fit_exponent in [1.8, 2.2], an invariant
# published (acceptance criterion 8) for the jittered grids of seeds 0, 1
# and 2.  It fails on some other grids (seeds 11, 15 and 18 of 0 to 20):
# there the printed gap is a near-zero reservoir eigenvalue of the grid, not
# the splitting of the kernel pair (README.md, "Output checks").  The run
# time also follows the grid (25 to 35 s over seeds 0 to 20).  So `spectrum`
# runs the CLI's default grid on every run, and every run is compared with
# reference.json.
SPECTRUM_GRID = 0


# rte-evolve propagates dt = 0.5 up to t_max, by default the recurrence time
# of the seed's mode grid, so the step count would follow the seed (180 to
# 212 steps over seeds 0-4) and so would the run time.  98.5 is the default
# at seed 0, rounded to the time grid: 197 steps for every seed.
FIXED_T_MAX = "[liouville]\nt_max = 98.5\n"

# dim 1 300: below liouville._DENSE_DIM, so both solvers take the dense branch.
SMALL_LIOUVILLE = FIXED_T_MAX + "n_tot_max = 2\nevolve_n_tot_max = 2\n"

WORKLOADS = {
    "spectrum": (
        Invocation("rte-spectrum", ("rte-spectrum",), grid=SPECTRUM_GRID),
    ),
    "evolve": (
        Invocation("rte-evolve", ("rte-evolve",), FIXED_T_MAX),
    ),
    "lab": (
        Invocation("formfactor", ("formfactor",)),
        Invocation("kms-check", ("kms-check",)),
        Invocation("mixing", ("mixing",)),
        Invocation("response-rest", ("response",)),
        Invocation("response-inertial",
                   ("response", "--trajectory", "inertial")),
        Invocation("response-accelerated",
                   ("response", "--trajectory", "accelerated",
                    "--beta", "inf")),
        Invocation("disjoint", ("disjoint",)),
        Invocation("rte-spectrum-small", ("rte-spectrum",), SMALL_LIOUVILLE),
        Invocation("rte-evolve-small", ("rte-evolve",), SMALL_LIOUVILLE),
    ),
}
