"""Deadline- and budget-constrained meta-scheduling workbench for utility
grids: cost model, exact split-allowed solver, whole-job consolidation,
seeded genetic refinement, baselines, workload generator, and a periodic
scheduling simulator."""

__version__ = "0.1.0"
