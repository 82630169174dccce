"""Verified, atomic state files for crash-safe runs.

A checkpointed run persists its setup — the ``(config, plan,
num_shards)`` a resumed coordinator re-derives the run from — as one
state file next to the shard manifest (DESIGN §11).

File format::

    MAGIC (8 bytes) | sha256(payload) (32 bytes) | payload (pickle)

Writes are atomic: the payload goes to a ``.tmp`` sibling, is fsynced,
and only then renamed over the final name, so a crash mid-write can never
leave a truncated file under the final name. Readers verify the magic
and the content checksum and raise :class:`repro.errors.CheckpointError`
(a :class:`~repro.errors.StoreError`) on any mismatch.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path

from repro import obs
from repro.errors import CheckpointError

MAGIC = b"RPCKPT01"
FORMAT_VERSION = 1


def write_state(path: str | Path, state: dict) -> Path:
    """Atomically persist ``state`` in checkpoint format at ``path``.

    Magic + sha256 + pickle, written to a ``.tmp`` sibling, fsynced,
    then renamed into place.
    """
    final = Path(path)
    final.parent.mkdir(parents=True, exist_ok=True)
    payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(payload).digest()
    tmp = final.with_suffix(".tmp")
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(digest)
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, final)
    obs.observe("checkpoint.bytes", len(payload))
    return final


def read_checkpoint(path: str | Path) -> dict:
    """Load and verify one state file written by :func:`write_state`.

    Raises :class:`CheckpointError` carrying the path and the failed
    check when the file is missing, truncated, tampered with, or not a
    checkpoint at all.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"no checkpoint at {path}",
                              path=path, check="exists")
    blob = path.read_bytes()
    if len(blob) < len(MAGIC) + 32:
        raise CheckpointError(
            f"checkpoint {path} is truncated ({len(blob)} bytes)",
            path=path, check="length")
    if blob[:len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path} is not a repro checkpoint "
                              f"(bad magic)", path=path, check="magic")
    digest = blob[len(MAGIC):len(MAGIC) + 32]
    payload = blob[len(MAGIC) + 32:]
    if hashlib.sha256(payload).digest() != digest:
        raise CheckpointError(
            f"checkpoint {path} failed its content checksum",
            path=path, check="sha256")
    try:
        state = pickle.loads(payload)
    except Exception as exc:  # unpickling raises a zoo of types
        raise CheckpointError(
            f"checkpoint {path} does not unpickle: {exc}",
            path=path, check="pickle") from exc
    if not isinstance(state, dict) \
            or state.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has unsupported format "
            f"{state.get('format_version') if isinstance(state, dict) else '?'!r}",
            path=path, check="format_version")
    obs.add("checkpoint.reads_total")
    return state
