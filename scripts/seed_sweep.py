"""How much of the study's headline is the root seed?

Runs the default 500-simulation batch for root seeds 0-11 and prints a
Markdown table: per seed, Spearman rho of r_wass and of r_wb against
WC-ATE with the one-sided permutation p that `summary.json` reports, and
the records with an unconverged source solve; then the mean and the SD
(ddof 1) of each rho over the seeds. The sweep only describes the spread;
the gated batch stays at root seed 0. Run it from the repository root:

    PYTHONPATH=src python3 scripts/seed_sweep.py
"""
import statistics
import time

from fgred.experiment import ExperimentConfig, correlation_report, run_experiment

SEEDS = range(12)
JOBS = 2  # records.csv is the same for any worker count


def main() -> None:
    start = time.perf_counter()
    print("| root seed | rho(r_wass, WC-ATE) | p | rho(r_wb, WC-ATE) | p | unconverged |")
    print("|---|---|---|---|---|---|")
    rhos = {"wass": [], "wb": []}
    for seed in SEEDS:
        records = run_experiment(ExperimentConfig(root_seed=seed), jobs=JOBS)
        report = correlation_report(records)
        cells = []
        for kind in rhos:
            entry = report[f"spearman_r{kind}_wcate"]
            rhos[kind].append(entry["rho"])
            cells += [f"{entry['rho']:.3f}", f"{entry['p_value']:.4f}"]
        unconverged = sum(1 for r in records if r.is_usable() and not all(r.converged))
        print(f"| {seed} | " + " | ".join(cells) + f" | {unconverged} |")
    for name, stat in (("mean", statistics.mean), ("SD", statistics.stdev)):
        print(f"| {name} | {stat(rhos['wass']):.3f} | | {stat(rhos['wb']):.3f} | | |")
    print(f"\n{len(SEEDS)} batches in {time.perf_counter() - start:.1f} s at --jobs {JOBS}")


if __name__ == "__main__":
    main()
