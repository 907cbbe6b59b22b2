"""Compiled flat-circuit kernels: the netlist as structure-of-arrays.

``repro.compiled`` lowers a mapped :class:`~repro.circuit.netlist.Circuit`
once into integer-indexed numpy arrays and evaluates the hot loops —
analytic (P, D) propagation, net loads, arrival times, and their
dirty-cone incremental forms — on index ranges instead of Python
object traversals, with **bit-identical** results to the readable
per-gate models they lower (the oracles ``tests/test_compiled.py``
compares against).  These kernels are the only production route:
``propagate_stats``, ``analyze_timing``, the incremental caches and
the search all run on them; see ``README.md`` in this directory for
the lowering, the SoA layout, and the contract.

The sampled kernel (:mod:`repro.compiled.sampled`: uint64-blocked lane
streams) and the power kernel (:mod:`repro.compiled.power`:
class-batched gate power) are imported by module.
"""

from .circuit import CompiledCircuit, get_compiled

__all__ = [
    "CompiledCircuit",
    "get_compiled",
]
