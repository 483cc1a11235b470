"""State-aware fuzzing of a simulated dual-layer flight stack.

The pipeline: parse a fuzz spec and mission (fuzzspec), enumerate the
spec's combinations for that mission into seeded test cases (testgen),
execute them deterministically against the simulated vehicle (sutmodel,
executor), judge each run with a decision-tree oracle (oracle), cluster the
failures (analysis), re-fuzz representative contexts into truth tables and
minimize those into cut sets rendered as fault trees (cutset), and store
the campaign (storage). cli runs it as commands; import each stage from its
module. Importing the package loads none of them.
"""
