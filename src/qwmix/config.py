"""Global conventions shared by every module: numeric thresholds, the
state cap and how output files are written. Imports no numpy.

Convention: Markov chains are column-stochastic. P[y, x] is the
probability of moving from state x to state y, stationary vectors
satisfy P @ pi == pi, and the matrix 1-norm is the maximum absolute
column sum.
"""

import math
import os

# Threshold for (worst-column) total-variation mixing, exactly 1/(2e).
MIX_THRESHOLD = 1.0 / (2.0 * math.e)

# The one size limit: every graph, chain and walk builder counts its
# states (or walk dimension) against it before it allocates. A dense
# float64 chain at the default takes 128 MiB.
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
