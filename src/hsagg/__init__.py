"""Hierarchical secure aggregation with groupwise keys.

Library layout:
  gf        prime-field arithmetic
  linalg    GF(q) products and sums of int64 arrays, rank, seeded random draws
  combi     user/group enumeration and saturating binomials
  rates     optimal rate region and blocklength selection
  scheme    the encoding matrix of a scheme: constructions and its slices
  protocol  R two-hop aggregation rounds as one GF(q) product of int64 arrays
  audit     rank predicates, exhaustive entropy oracles, rate audits
  cli       command-line front end and JSON formats
"""

__version__ = "0.1.0"
