"""Global conventions shared by every module: numeric thresholds, the
state cap and the limit it sets on claimed objects, and how output files
are written. Imports no numpy.

Convention: Markov chains are column-stochastic. P[y, x] is the
probability of moving from state x to state y, stationary vectors
satisfy P @ pi == pi, and the matrix 1-norm is the maximum absolute
column sum.
"""

import math
import os

# Threshold for (worst-column) total-variation mixing, exactly 1/(2e).
MIX_THRESHOLD = 1.0 / (2.0 * math.e)

# The one size limit, QWMIX_STATE_CAP, counts what an object stores, and
# every builder checks it before it allocates. A dense object, one that
# forms an N x N array, counts its N states against the cap: a dense
# float64 chain at the default takes 128 MiB. A claimed object stores O(N)
# arrays (a graph its steps, a chain its column 0, a lattice walk its N r^2
# momentum-block entries) and counts against claimed_cap(), 2**20 at the
# default: a step on a claimed chain of 2**20 states was measured to hold
# about 16 N-length float64 arrays, the 128 MiB of a dense chain at the cap.
DEFAULT_STATE_CAP = 4096

# Eigenvalues closer than this are treated as one degenerate cluster.
DEFAULT_CLUSTER_TOL = 1e-8

# Tail mass left out when the geometric rule's support is truncated.
DEFAULT_TAIL_TOL = 1e-10

def state_cap() -> int:
    """Dense-state cap; QWMIX_STATE_CAP overrides the default."""
    raw = os.environ.get("QWMIX_STATE_CAP")
    if raw is None or raw.strip() == "":
        return DEFAULT_STATE_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"QWMIX_STATE_CAP must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError(f"QWMIX_STATE_CAP must be positive, got {cap}")
    return cap


def claimed_cap() -> int:
    """The limit on what a claimed object stores, max(cap, cap**2 // 16):
    16 arrays of that length take the bytes of a dense chain at the cap."""
    cap = state_cap()
    return max(cap, cap * cap // 16)


def default_horizon(n: int) -> int:
    """Default mixing-time search horizon, ceil(10*N*(1+ln N))."""
    return int(math.ceil(10.0 * n * (1.0 + math.log(n)))) if n > 1 else 10


def atomic_write_text(path: str, text: str) -> None:
    """Write UTF-8 text to path through a temporary file that is unique per
    writer and sits in the same directory. Mode "x" creates it exclusively,
    as mkstemp does, but with the umask's mode rather than mkstemp's 0o600,
    which would need the umask, and that is read only by setting it."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
