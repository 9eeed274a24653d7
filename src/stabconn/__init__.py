"""Self-stabilizing 2-edge / 2-vertex connectivity: simulator and verifier.

The package simulates a per-processor protocol over shared read/write-atomic
registers that, from any initial state, converges to a depth-first search
labeling from which every bridge, articulation point, and bridge-connected
component of the network can be read off.  Centralized brute-force oracles
certify every result.
"""

from .analysis import (
    CertificationReport,
    DetectionResult,
    NotStabilizedError,
    certify,
    extract,
)
from .graph import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    GenerationError,
    Graph,
    GraphError,
    GraphParseError,
    NodeRangeError,
    PortAssignmentError,
    SelfLoopError,
    figure1,
    generate_clustered,
    generate_random_connected,
    parse_graph,
    render_graph,
    shuffle_ports,
)
from .oracle import (
    GroundTruth,
    brute_articulation_points,
    brute_bcc_partition,
    brute_bridges,
    first_dfs,
    ground_truth,
    is_connected,
)
from .protocol import (
    BOTTOM,
    DegreeLimitError,
    Path,
    ProcessorState,
    Register,
    ROOT_PATH,
    classify_link,
    execute_step,
    format_path,
    node_program,
    nonroot_program,
    root_program,
)
from .simulator import (
    Configuration,
    FaultSpec,
    FaultEvent,
    FaultTargetError,
    POST_STABILIZATION,
    RoundRobin,
    RunReport,
    Trace,
    UniformRandom,
    WeightedRandom,
    default_max_rounds,
    init_arbitrary,
    inject_fault,
    make_scheduler,
    run,
    step,
)

__version__ = "0.1.0"
