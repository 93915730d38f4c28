"""Clock-synchronization estimation library and Monte-Carlo study harness.

Each name is imported from the submodule that defines it, which `import
tacd` alone does not load: clock (clock dynamics), scenario (ground-truth
generation), netcomm (Gaussian-sum / variational-Bayes filtering and
baselines), thermal (temperature self-correction), fusion (Pareto-optimal
weighting), bclb (Fisher-information bound recursions), and the run
harness (config, runner, report, cli).

Every stage runs on arrays. generate_scenario draws a batch of runs, one
RNG stream each, as one record of (R, h) arrays; its exchanges are an
ExchangeBatch, the one exchange type, whose fields have any leading shape:
() for one exchange, (h,) for one run, (R, h) for a batch.
The filters step all runs of a batch per period and bclb_trajectory runs
the bound recursion over the horizon, once per case (runner.case_bounds).
The fusion stage is four functions of plain arrays (thermal_variance,
pareto_beta, fuse_skew and fusion_variance), described in tacd.fusion.
The per-period scalar forms of these stages live only in tests/oracles.py,
as the reference the array forms are checked against.
"""
