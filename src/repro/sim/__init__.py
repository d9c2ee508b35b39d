"""Discrete-event simulation kernel (engine, sync primitives, stats, RNG).

Import the submodule you need (``repro.sim.engine``, ``repro.sim.rng``,
...): the package re-exports nothing, so a light user such as the
workload generators does not load the engine.
"""
