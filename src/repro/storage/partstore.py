"""A datamgr-style part store: manifest + per-part files + stats rows.

Datasets (and checkpoint state) persist as *parts*: one file per
partition in the one on-disk format (:mod:`repro.storage.format`) — the
header, then a single frame holding the record list — plus a stats row
in a JSON manifest — cardinality, key range, byte size, and a content hash.  The
content hash is an order-sensitive fold of
:func:`repro.common.hashing.stable_hash` over the records (pinned by a
regression test), which buys two things:

* **dedup** — a part whose content hash and cardinality match an
  existing part reuses its file; consecutive checkpoints of a delta
  iteration only write the partitions that actually changed, making
  checkpoints incremental,
* **integrity** — loading a part re-folds the hash and fails loudly on
  mismatch, and a truncated part fails on its frame, so a torn write
  can't resurrect as silent wrong answers.

The stats rows are the substrate ROADMAP item 3's planner pruning
needs (per-part cardinality and key ranges).
"""

from __future__ import annotations

import json
import os

from repro.common.hashing import stable_hash
from repro.storage.format import (
    MANIFEST_VERSION,
    StorageFormatError,
    read_frames,
    write_frame,
    write_header,
)

_MASK64 = 0xFFFFFFFFFFFFFFFF


def content_hash(records) -> int:
    """Order-sensitive 64-bit fold of ``stable_hash`` over ``records``.

    The same tuple-folding recurrence ``stable_hash`` itself uses,
    widened to 64 bits and seeded with the record count, so that part
    hashes are a stable function of (count, each record, order) across
    processes and sessions.  Pinned by a regression test — changing
    this silently would break part dedup across builds.
    """
    acc = 0x345678 ^ len(records)
    for record in records:
        acc = ((acc * 1000003) ^ stable_hash(record)) & _MASK64
    return acc


def _key_range(keys):
    """(min, max) when keys exist and are mutually comparable."""
    if not keys:
        return None
    try:
        return [min(keys), max(keys)]
    except TypeError:
        return None


class PartStore:
    """Immutable parts + a JSON manifest of stats rows and datasets."""

    MANIFEST = "manifest.json"

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.parts_written = 0
        self.parts_reused = 0
        self._manifest_path = os.path.join(root, self.MANIFEST)
        if os.path.exists(self._manifest_path):
            with open(self._manifest_path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
            found = manifest.get("format_version")
            if found != MANIFEST_VERSION:
                raise StorageFormatError(
                    f"{self._manifest_path}: manifest format_version "
                    f"{found!r} does not match this build's version "
                    f"{MANIFEST_VERSION}; the store was written by an "
                    "incompatible build"
                )
            self.manifest = manifest
        else:
            self.manifest = {
                "format_version": MANIFEST_VERSION,
                "parts": {},
                "datasets": {},
            }

    # ------------------------------------------------------------------
    # parts

    def put_part(self, records, keys=None) -> str:
        """Store one partition's records; returns its part id.

        Identical content (hash + cardinality) reuses the existing
        file — the caller can't tell, except through ``parts_reused``.
        """
        records = list(records)
        digest = content_hash(records)
        part_id = f"part-{digest:016x}-{len(records)}"
        if part_id in self.manifest["parts"]:
            self.parts_reused += 1
            return part_id
        path = os.path.join(self.root, f"{part_id}.bin")
        with open(path, "wb") as fh:
            write_header(fh)
            write_frame(fh, records)
        self.manifest["parts"][part_id] = {
            "cardinality": len(records),
            "content_hash": digest,
            "key_range": _key_range(keys),
            "bytes": os.path.getsize(path),
        }
        self.parts_written += 1
        self._save_manifest()
        return part_id

    def load_part(self, part_id: str) -> list:
        """Load a part, re-validating header, hash, and cardinality."""
        stats = self.manifest["parts"].get(part_id)
        if stats is None:
            raise KeyError(f"unknown part {part_id!r}")
        path = os.path.join(self.root, f"{part_id}.bin")
        frames = list(read_frames(path))
        if len(frames) != 1:
            raise StorageFormatError(
                f"{path}: a part holds one frame, found {len(frames)}"
            )
        (records,) = frames
        if (
            len(records) != stats["cardinality"]
            or content_hash(records) != stats["content_hash"]
        ):
            raise StorageFormatError(
                f"{path}: content does not match its manifest stats row "
                "(torn write or corruption)"
            )
        return records

    def part_stats(self, part_id: str) -> dict:
        return self.manifest["parts"][part_id]

    # ------------------------------------------------------------------
    # datasets (named lists of parts, one per partition)

    def register(self, name: str, partitions, keys_per_partition=None
                 ) -> list[str]:
        """Persist ``partitions`` (lists of records) as dataset ``name``."""
        part_ids = []
        for i, records in enumerate(partitions):
            keys = None
            if keys_per_partition is not None:
                keys = keys_per_partition[i]
            part_ids.append(self.put_part(records, keys=keys))
        self.manifest["datasets"][name] = {"parts": part_ids}
        self._save_manifest()
        return part_ids

    def dataset_names(self):
        return sorted(self.manifest["datasets"])

    def dataset_part_ids(self, name: str) -> list[str]:
        try:
            return list(self.manifest["datasets"][name]["parts"])
        except KeyError:
            raise KeyError(
                f"unknown dataset {name!r}; registered: "
                f"{', '.join(self.dataset_names()) or '(none)'}"
            ) from None

    def load_dataset(self, name: str) -> list[list]:
        return [self.load_part(pid) for pid in self.dataset_part_ids(name)]

    def dataset_stats(self, name: str) -> list[dict]:
        """The stats rows (pruning substrate) for a dataset's parts."""
        return [
            dict(self.manifest["parts"][pid])
            for pid in self.dataset_part_ids(name)
        ]

    def prune_parts(self, part_ids, key_range) -> list[str]:
        """Parts that may hold keys inside ``key_range=(lo, hi)``.

        Manifest-only: no part file is opened.  A part survives pruning
        unless its stats row *proves* it irrelevant — its recorded key
        range lies entirely outside the predicate, or it is empty.
        Parts without a recorded key range (unkeyed registration, or
        keys that were not mutually comparable) are conservatively
        kept.  Either predicate bound may be ``None``, meaning
        unbounded on that side; ``(None, None)`` only prunes empty
        parts.
        """
        lo, hi = key_range
        kept = []
        for pid in part_ids:
            stats = self.manifest["parts"][pid]
            if stats["cardinality"] == 0:
                continue  # provably contributes nothing
            recorded = stats.get("key_range")
            if recorded is None:
                kept.append(pid)  # no stats row evidence: must keep
                continue
            part_lo, part_hi = recorded
            if lo is not None and part_hi < lo:
                continue
            if hi is not None and part_lo > hi:
                continue
            kept.append(pid)
        return kept

    # ------------------------------------------------------------------

    def _save_manifest(self) -> None:
        # atomic-enough on POSIX: write sidecar, rename over
        tmp = self._manifest_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.manifest, fh, indent=1, sort_keys=True)
        os.replace(tmp, self._manifest_path)
