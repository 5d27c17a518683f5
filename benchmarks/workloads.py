"""Workload definitions: which instances to generate, which solver settings
to run them with, and which traced layers each one must exercise.

Each workload is a fixed suite of generated instances; the benchmark seed
draws the solver seed of every run, so the same seed gives the same runs
and another seed gives fresh solver randomness on the same suite.

Every run makes one trial (`n_trial=1`, no `time_limit`) with a capped SPG
budget, so the work of a run is bounded and nearly fixed. A run whose trial
count or SPG length is left open can take 1 or 40 trials, 100 or 30000 SPG
iterations, and no 30-second sample of such runs gives a steady total.
"""

from dataclasses import dataclass

import numpy as np

# H-H interval widths (adjacent residues, other residues) in Angstrom
PAPER_WIDTHS = dict(hh_width_adjacent=1.0, hh_width_other=2.0)
TIGHT_WIDTHS = dict(hh_width_adjacent=0.5, hh_width_other=1.0)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: tuple                # ((residues, instance count), ...)
    suite_seed: int             # seeds the suite's reference backbones
    generator: dict             # keyword arguments of io.generate_instance
    params: dict                # SolverParams overrides of the defaults
    must_run: tuple             # traced names that must record calls


# Layers every solve goes through, whatever the workload.
_ALWAYS = (
    "io.parse_instance",
    "search.multistart_solve",
    "search.greedy_construction",
    "geometry.place_atoms_batch",
    "geometry.local_frame",
    "geometry.sample_torsions",
    "metrics.StressProblem.__init__",
    "metrics.lde_global",
    "metrics.mde_global",
)

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="paper-easy",
            why="the paper's default generator at 30 residues: runs solve on "
                "trial 1 and time goes to greedy construction and geometry",
            sizes=((30, 48),),
            suite_seed=1,
            generator=dict(include_torsion_annotations=True, **PAPER_WIDTHS),
            params=dict(n_trial=1, spg_max_iter=2000),
            must_run=_ALWAYS + ("search.improve",),
        ),
        Workload(
            name="hard-improve",
            why="no torsion annotations, so every atom is a flip candidate and "
                "the O(n^2) improvement sweep dominates; SPG is capped short",
            sizes=((6, 32),),
            suite_seed=2,
            generator=dict(include_torsion_annotations=False, **PAPER_WIDTHS),
            params=dict(n_trial=1, spg_max_iter=2000),
            must_run=_ALWAYS + ("search.improve",),
        ),
        Workload(
            name="hard-refine",
            why="tight H-H widths, no improvement, 60 torsions, then up to "
                "750 SPG iterations per run: time is SPG and the stress model",
            sizes=((30, 56),),
            suite_seed=3,
            generator=dict(include_torsion_annotations=True, **TIGHT_WIDTHS),
            # success tolerance and stall window out of reach: SPG stops at
            # the iteration cap unless it reaches a zero step first
            params=dict(n_impr=0, n_tors=60, n_trial=1, spg_max_iter=750,
                        spg_stress_success=1e-30, spg_stall_window=751),
            must_run=_ALWAYS + (
                "spg.spg_minimize",
                "spg.initial_spectral_step",
                "metrics.StressProblem.objective",
                "metrics.StressProblem.gradient",
                "metrics.StressProblem.project",
            ),
        ),
    )
}


@dataclass(frozen=True)
class RunSpec:
    """One solver run of a workload: an instance and its solver seed."""

    instance: str               # file name, unique within the workload
    residues: int
    reference_seed: int
    solver_seed: int


def run_list(workload: Workload, seed: int) -> list:
    """The workload's runs for a benchmark seed: a fixed instance suite,
    solver seeds drawn from `seed`."""
    runs = []
    for residues, count in workload.sizes:
        for k in range(count):
            reference_seed = int(np.random.SeedSequence(
                [workload.suite_seed, residues, k]).generate_state(1)[0])
            solver_seed = int(np.random.SeedSequence(
                [seed, workload.suite_seed, residues, k]).generate_state(1)[0])
            runs.append(RunSpec(f"r{residues:03d}-{k:03d}.inst", residues,
                                reference_seed, solver_seed))
    return runs
