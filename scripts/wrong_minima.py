"""List the source solves that stop in a worse minimum than a solve started at the truth.

For the default batch (500 worlds, root seed 0) and the 30-pose reference
batch (40 worlds, root seed 5), every source problem is solved twice with
`nonlinear.solve_gauss_newton_block`: from the study's own start (the
dead-reckoning poses and the triangulated landmark, as `solve_block` starts
it) and from the true poses and landmark. A solve whose final cost
1/2 |L^T r|^2 is above the truth-started one by more than REL_TOL relative
is listed with both costs. Prints one count per batch and the run time.
Run from the repository root:

    python3 scripts/wrong_minima.py
"""
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fgred import nonlinear  # noqa: E402
from fgred.experiment import ExperimentConfig, simulate_batch_world  # noqa: E402
from fgred.sim2d import N_LANDMARKS, SimConfig  # noqa: E402

REL_TOL = 1e-6
BATCHES = (
    ("default", ExperimentConfig()),
    ("30-pose", ExperimentConfig(sim=SimConfig(n_poses=30), n_sims=40, root_seed=5)),
)


def final_costs(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """Each source problem's final cost from the study's start and from the truth, world-major."""
    worlds = [simulate_batch_world(config, i) for i in range(config.n_sims)]
    plans = nonlinear._slam_plans(config.sim.n_poses)
    _, data, _ = nonlinear._block_data(worlds, plans)
    poses = nonlinear.dead_reckoning_init(worlds)
    landmarks = nonlinear.triangulate_landmark(worlds, poses)
    truth_poses = np.array([w.truth_array.ravel() for w in worlds])
    starts = (
        np.concatenate([poses.reshape(len(worlds), -1).repeat(N_LANDMARKS, axis=0), landmarks.reshape(-1, 2)], axis=1),
        np.concatenate([truth_poses.repeat(N_LANDMARKS, axis=0), np.array([w.landmarks for w in worlds]).reshape(-1, 2)], axis=1),
    )
    capacity = nonlinear._block_sizes(config.sim.n_poses)[0]
    costs = []
    for X in starts:
        nonlinear.solve_gauss_newton_block(plans[1], data, X, capacity)
        costs.append(plans[1].cost(X, data))
    return costs[0], costs[1]


def main() -> int:
    t0 = time.monotonic()
    for name, config in BATCHES:
        study, truth = final_costs(config)
        worse = np.flatnonzero(study > truth * (1.0 + REL_TOL))
        print(f"{name}: {len(worse)} of {len(study)} source solves end above the truth-started cost")
        for k in worse:
            sim, source = divmod(int(k), N_LANDMARKS)
            print(f"  sim {sim} source {source}: cost {study[k]:.4f}, from the truth {truth[k]:.4f}")
    print(f"run time {time.monotonic() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
