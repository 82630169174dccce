"""The paper's measurement/analysis methodology.

Everything in this subpackage operates on captured packets only — never on
the generative ground truth — exactly as the authors' pipeline operated on
pcaps:

- :mod:`repro.core.sessions` — scan sessions (1h timeout) and sources.
- :mod:`repro.core.columnar` — NumPy-backed packet table + vectorized
  sessionization, aggregation and phase slicing.
- :mod:`repro.core.aggregation` — /128, /64, /48 source aggregation.
- :mod:`repro.core.temporal` — one-off/periodic/intermittent (§5.1).
- :mod:`repro.core.netclass` — network-selection classes via DBSCAN (§5.2).
- :mod:`repro.core.addrclass` — structured/random/unknown targets (§5.3).
- :mod:`repro.core.nist` — the NIST SP 800-22 subset (Appendix B).
- :mod:`repro.core.dbscan` — density-based clustering.
- :mod:`repro.core.payloads` — payload clustering and tool matching (§5.4).
- :mod:`repro.core.heavy` — heavy-hitter detection (§4.2).
- :mod:`repro.core.overlap` — cross-telescope source overlap (§6/§7.2).
- :mod:`repro.core.protocols` — protocol and port statistics (§4.2).
- :mod:`repro.core.reactivity` — BGP reaction metrics (§7.1).
"""

from repro.core.aggregation import AggregationLevel, source_key
from repro.core.columnar import PacketTable, sessionize_table
from repro.core.sessions import SessionSet

__all__ = [
    "SessionSet",
    "sessionize_table",
    "PacketTable",
    "AggregationLevel",
    "source_key",
]
