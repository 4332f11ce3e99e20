"""Workload inputs, generated from the workload seed as config texts.

Every workload's inputs are INI config texts in the format the `nit-sim`
command reads.  `build(workload, seed, parse_config)` parses them
with the package's own parser, so building the inputs is the same
work whether a fresh set-up probe, the benchmark process or a cold CLI
process does it.  The same seed always yields the same texts.

The default seed reproduces the reference parameter sets of the
acceptance suite (matched lambda = g = 0.5, weak drive epsilon = 0.01)
wherever a workload has a seeded choice, so the recorded output digests
apply to it.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 0
WORKLOADS = ("cli-cold", "quantum-sweep", "quantum-pool")

SWEEP_POINTS = 1501
# quantum workloads: the 11-point (5, 5) sweep of acceptance criteria 02/10
QUANTUM_POINTS = 11
QUANTUM_TRUNCATION = 5
LADDER = (4, 5, 6, 7)
LADDER_DEFAULT_DETUNING = 0.3
POOL_THREADS = 2

_RATES = {"kappa_a": 1, "kappa_b": 1e-3, "gamma": 1e-3, "gamma_phi": 1e-3}


def _system(lam: float, g: float, epsilon: float = 0.03, **extra) -> str:
    lines = ["[system]", f"lambda = {lam!r}", f"g = {g!r}", f"epsilon = {epsilon!r}"]
    rates = {**_RATES, **extra}
    lines += [f"{k} = {v!r}" for k, v in rates.items()]
    return "\n".join(lines) + "\n"


def _sweep_text(lam, g, n_points, backend="analytic", epsilon=0.03, formats="csv",
                n_ab=None) -> str:
    text = f"[run]\ncommand = sweep\nformats = {formats}\n\n"
    text += _system(lam, g, epsilon) + "\n[sweep]\ndelta_min = -1.5\ndelta_max = 1.5\n"
    text += f"n_points = {n_points}\nbackend = {backend}\n"
    if n_ab is not None:
        text += f"n_a = {n_ab}\nn_b = {n_ab}\n"
    return text


def cli_texts(seed: int) -> dict[str, str]:
    """The README's everyday configs: steady, sweep, evolve, dephasing-scan.

    Non-default seeds move the matched coupling, the steady-state detuning
    and the dephasing rates; the work per command stays the same.
    """
    if seed == DEFAULT_SEED:
        lam, delta_p, rates = 0.5, 0.25, (1e-3, 1e-1, 1.0)
    else:
        rng = random.Random(f"cli-cold:{seed}")
        lam = rng.uniform(0.45, 0.55)
        delta_p = rng.uniform(-1.0, 1.0)
        rates = tuple(10 ** rng.uniform(lo, lo + 1) for lo in (-3, -2, -1))
    return {
        "steady": "[run]\ncommand = steady\nformats = json\n\n"
        + _system(lam, lam, delta_p=delta_p),
        "sweep": _sweep_text(lam, lam, SWEEP_POINTS, formats="csv,json,svg"),
        "evolve": "[run]\ncommand = evolve\nformats = csv,json\n\n"
        + _system(lam, lam) + "\n[evolve]\nt_end = 50\n",
        "dephasing-scan": "[run]\ncommand = dephasing-scan\nformats = csv\n\n"
        + _system(lam, lam)
        + "\n[dephasing]\ngamma_phi_values = "
        + ", ".join(repr(r) for r in rates) + "\n",
    }


def unbalanced_text() -> str:
    """The lambda >> g reference sweep whose windows criterion 08 freezes."""
    return _sweep_text(1.0, 0.15, SWEEP_POINTS)


def quantum_text() -> str:
    return _sweep_text(0.5, 0.5, QUANTUM_POINTS, backend="quantum", epsilon=0.01,
                       n_ab=QUANTUM_TRUNCATION)


def ladder_detuning(seed: int) -> float:
    """A point of the criterion-02 grid, where the suite asserts that the
    master equation matches the closed form.  (Off the grid, next to the
    transparency dips, the weak-drive closed form is not that close.)"""
    if seed == DEFAULT_SEED:
        return LADDER_DEFAULT_DETUNING
    k = random.Random(f"quantum-sweep:{seed}").randrange(QUANTUM_POINTS)
    return round(-1.5 + 0.3 * k, 12)


def texts(workload: str, seed: int) -> dict[str, str]:
    """All config texts of a workload, keyed by role."""
    if workload == "cli-cold":
        return cli_texts(seed)
    if workload == "quantum-sweep":
        # the ladder point: a single-point 'steady' config at the seeded detuning
        ladder = "[run]\ncommand = steady\n\n" + _system(
            0.5, 0.5, epsilon=0.01, delta_p=ladder_detuning(seed))
        return {"sweep": quantum_text(), "ladder": ladder}
    if workload == "quantum-pool":
        return {"sweep": quantum_text()}
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def build(workload: str, seed: int, parse) -> dict:
    """Parse every config text of the workload with ``parse``."""
    return {role: parse(text) for role, text in texts(workload, seed).items()}
