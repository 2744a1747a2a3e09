"""ceerlab: stage-enumerated equivalence relations and the constructions
that act on them — a graded-algebra kernel with exact growth audits, free
products with decidable normal forms over staged presentations, and a
deterministic finite-injury engine with replayable logs."""

__version__ = "0.1.0"
