"""Verified, atomic state files for crash-safe runs.

A checkpointed run persists its setup — the ``(config, plan,
num_shards)`` a resumed coordinator re-derives the run from — as one
state file next to the shard manifest (DESIGN §11).

File format::

    MAGIC (8 bytes) | sha256(payload) (32 bytes) | payload (pickle)

Writes are atomic: the payload goes to a ``.tmp`` sibling, is fsynced,
and only then renamed over the final name, so a crash mid-write can never
leave a truncated file under the final name. Readers verify the magic,
the content checksum and the payload's ``format_version`` and raise
:class:`repro.errors.CheckpointError` (a :class:`~repro.errors.StoreError`)
on any mismatch. A change to what the payload pickles (the config's
fields, say) bumps :data:`FORMAT_VERSION`; an older snapshot is refused
by that check, not half-loaded.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
from pathlib import Path

from repro import obs
from repro.errors import CheckpointError

MAGIC = b"RPCKPT01"
#: 2: the config's one shard-retry field is the int ``shard_attempts``.
FORMAT_VERSION = 2


class _Gone:
    """Stand-in for a class a snapshot names but this code no longer
    defines; it takes any construction arguments and state."""

    def __init__(self, *args, **kwargs) -> None:
        pass

    def __setstate__(self, state) -> None:
        pass


class _Unpickler(pickle.Unpickler):
    """Loads a snapshot even when it names classes that have since gone
    (as :class:`_Gone`), so an older snapshot still reaches the
    ``format_version`` check instead of failing mid-load."""

    def __init__(self, payload: bytes) -> None:
        super().__init__(io.BytesIO(payload))
        self.gone: list[str] = []

    def find_class(self, module: str, name: str):
        try:
            return super().find_class(module, name)
        except (AttributeError, ImportError):
            self.gone.append(f"{module}.{name}")
            return _Gone


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
    unpickler = _Unpickler(payload)
    try:
        state = unpickler.load()
    except Exception as exc:  # unpickling raises a zoo of types
        raise CheckpointError(
            f"checkpoint {path} does not unpickle: {exc}",
            path=path, check="pickle") from exc
    if not isinstance(state, dict) \
            or state.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has unsupported format "
            f"{state.get('format_version') if isinstance(state, dict) else '?'!r}"
            f" (this code reads {FORMAT_VERSION}): rebuild the run",
            path=path, check="format_version")
    if unpickler.gone:
        raise CheckpointError(
            f"checkpoint {path} names classes this code does not define: "
            f"{', '.join(unpickler.gone)}", path=path, check="pickle")
    obs.add("checkpoint.reads_total")
    return state
