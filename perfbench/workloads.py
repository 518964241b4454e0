"""The benchmark's workloads: one input, one preset and one executor each.

The workload seed seeds both the input (the random Pauli set) and
``Picasso``; the H6 Hamiltonian is a fixed input, so there the seed
only moves Picasso's random lists.  ``tiny`` shrinks every input to a
few hundred strings for the smoke test while keeping every code path.

The Aggressive workload colors H6_2D_sto3g (1,730 strings) rather than
the larger H8_2D_sto3g (5,564): both run ~30 iterations dominated by
list coloring and CSR assembly (H6: 54% and 19% of a call, 60% of
tested pairs become conflict edges), but an H8 run takes twice as long
(~6 s calls, ~2.3 s to generate the input) with no steadier figures,
and the whole protocol of 22 runs per workload has to fit its time
budget on a 2-core host.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    #: Input family: ``"pauli"`` (random strings) or ``"molecule"``.
    source: str
    #: ``"normal"`` or ``"aggressive"`` (the paper's two presets).
    preset: str
    #: ``"serial"``, ``"pool"`` or ``"cluster"``.
    executor: str
    why: str

    @property
    def cross_checked(self) -> bool:
        """Workloads whose colorings must agree across executors."""
        return self.source == "pauli"


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "pauli10k-serial", "pauli", "normal", "serial",
            "10k random 50-qubit strings, Normal preset, serial: the headline; "
            "the palette-intersect sweep dominates",
        ),
        Workload(
            "pauli10k-pool", "pauli", "normal", "pool",
            "same input on a 2-worker pool with shm gather: strip deal, payload "
            "install, shm gather, serial dispatcher tail",
        ),
        Workload(
            "pauli10k-cluster", "pauli", "normal", "cluster",
            "same input on a 2-agent loopback LocalCluster: the only workload "
            "whose sweep hits cross the socket transport",
        ),
        Workload(
            "h6-aggressive", "molecule", "aggressive", "serial",
            "H6_2D_sto3g Hamiltonian, Aggressive preset, serial: ~28 iterations; "
            "list coloring and CSR assembly dominate, the sweep barely shows",
        ),
    )
}

#: Full-size and smoke-test inputs.
PAULI_SHAPE = {"full": (10_000, 50), "tiny": (300, 12)}
MOLECULE = {"full": "H6_2D_sto3g", "tiny": "H4_1D_sto3g"}
#: Pool workers and cluster agents (the benchmark host has 2 cores).
N_PROCS = 2


def input_name(workload: Workload, size: str) -> str:
    """Name of the input a workload colors, shared across executors."""
    if workload.source == "pauli":
        n, nq = PAULI_SHAPE[size]
        return f"pauli{n}x{nq}"
    return MOLECULE[size]


def build_input(workload: Workload, seed: int, size: str):
    """Generate the workload's :class:`~repro.pauli.PauliSet`."""
    if workload.source == "pauli":
        from repro.pauli import random_pauli_set

        n, nq = PAULI_SHAPE[size]
        return random_pauli_set(n, nq, seed=seed)
    from repro.chemistry.hamiltonian import hn_pauli_set
    from repro.datasets import MOLECULE_SUITE

    (spec,) = [s for s in MOLECULE_SUITE if s.name == MOLECULE[size]]
    return hn_pauli_set(spec.n_atoms, spec.dimensionality, spec.basis)


def make_params(workload: Workload, hosts: str | None = None):
    """``PicassoParams`` for the workload (telemetry forced off)."""
    from repro.core.params import aggressive_params, normal_params

    preset = normal_params if workload.preset == "normal" else aggressive_params
    executor = workload.executor
    if executor == "pool":
        return preset(
            executor="pool", n_workers=N_PROCS, shm_gather=True, telemetry=False
        )
    if executor == "cluster":
        return preset(executor="cluster", hosts=hosts, telemetry=False)
    return preset(executor="serial", telemetry=False)
