"""Self-stabilizing 2-edge / 2-vertex connectivity: simulator and verifier.

The package simulates a per-processor protocol over shared read/write-atomic
registers that, from any initial state, converges to a depth-first search
labeling from which every bridge, articulation point, and bridge-connected
component of the network can be read off.  Centralized brute-force oracles
certify every result.

The package binds no names of its own: callers import from its modules
(``from stabconn.simulator import run``).
"""
