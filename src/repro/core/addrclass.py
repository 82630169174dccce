"""Address-selection classification (§5.3).

Per scan session:

- **structured** — targets show a detectable pattern: a strong share of
  addr6-typed structures (low-byte, embedded-*, pattern, anycast) or an
  ordered traversal of the target space;
- **random** — sessions of >= 100 packets whose target bits pass the NIST
  frequency test at alpha = 0.01;
- **unknown** — neither.

:func:`classify_segments` classifies every session of a session set in
one pass over its destination columns.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.core.nist import ALPHA, monobit_pvalue
from repro.errors import ClassificationError
from repro.net.addrtypes import AddressType, TYPE_ORDER, classify_iids

#: Paper filter: statistical testing needs sessions of >= 100 packets.
MIN_PACKETS_FOR_NIST = 100

#: Share of structured addr6 types that marks a structured session.
STRUCTURED_SHARE = 0.5

#: Types counted as "structured" address choices.
_STRUCTURED_TYPES = frozenset((
    AddressType.LOW_BYTE, AddressType.SUBNET_ANYCAST,
    AddressType.EMBEDDED_IPV4, AddressType.EMBEDDED_PORT,
    AddressType.PATTERN_BYTES, AddressType.IEEE_DERIVED,
    AddressType.ISATAP,
))

#: ``_IS_STRUCTURED[code]`` for a :func:`classify_iids` type code.
_IS_STRUCTURED = np.array([t in _STRUCTURED_TYPES for t in TYPE_ORDER])


class AddressClass(enum.Enum):
    STRUCTURED = "structured"
    RANDOM = "random"
    UNKNOWN = "unknown"


#: Code order of :func:`classify_segments`: ``CLASS_ORDER[code]`` maps a
#: result back to its :class:`AddressClass`.
CLASS_ORDER = tuple(AddressClass)
CLASS_CODE = {cls: code for code, cls in enumerate(CLASS_ORDER)}


def classify_segments(dst_hi: np.ndarray, dst_lo: np.ndarray,
                      starts: np.ndarray) -> np.ndarray:
    """Classify consecutive sessions of one target column pair.

    ``dst_hi``/``dst_lo`` are the upper and lower 64 bits of every
    target, session after session, each session in arrival order;
    session ``i`` is rows ``starts[i]`` up to the next start (the last
    one runs to the end). Returns one :data:`CLASS_ORDER` code per
    session. Each distinct IID is typed once; every per-session count
    below is a segmented sum over the session boundaries.
    """
    dst_hi = np.asarray(dst_hi, dtype=np.uint64)
    dst_lo = np.asarray(dst_lo, dtype=np.uint64)
    starts = np.asarray(starts, dtype=np.int64)
    n = len(dst_lo)
    if (not len(starts) or starts[0] != 0 or starts[-1] >= n
            or np.any(starts[1:] <= starts[:-1])):
        raise ClassificationError("every session needs at least one target")
    sizes = np.diff(starts, append=n)

    def per_session(values: np.ndarray) -> np.ndarray:
        return np.add.reduceat(values, starts, dtype=np.int64)

    iids, inverse = np.unique(dst_lo, return_inverse=True)
    structured = per_session(_IS_STRUCTURED[classify_iids(iids)][inverse])
    # ordered traversal (the Fig. 13 stripe pattern): >= 4 targets over
    # >= 3 distinct subnets (one or two subnets are trivially "monotone"),
    # >= 85% of subnet steps non-decreasing; a session's first row has no
    # step, and rows sorted by (session, subnet) keep each session's range
    step_up = np.empty(n, dtype=bool)
    step_up[1:] = dst_hi[1:] >= dst_hi[:-1]
    step_up[starts] = False
    subnets = dst_hi[np.lexsort((dst_hi, np.repeat(np.arange(len(starts)),
                                                   sizes)))]
    new_subnet = np.empty(n, dtype=bool)
    new_subnet[1:] = subnets[1:] != subnets[:-1]
    new_subnet[starts] = True
    long_enough = sizes >= 4
    monotone = np.divide(per_session(step_up), sizes - 1,
                         out=np.zeros(len(sizes)), where=long_enough)
    ordered = long_enough & (per_session(new_subnet) >= 3) \
        & (monotone >= 0.85)
    random = (sizes >= MIN_PACKETS_FOR_NIST) & (monobit_pvalue(
        per_session(np.bitwise_count(dst_lo)), 64 * sizes) >= ALPHA)

    codes = np.full(len(starts), CLASS_CODE[AddressClass.UNKNOWN],
                    dtype=np.uint8)
    codes[random] = CLASS_CODE[AddressClass.RANDOM]
    codes[(structured / sizes >= STRUCTURED_SHARE) | ordered] = \
        CLASS_CODE[AddressClass.STRUCTURED]
    return codes

