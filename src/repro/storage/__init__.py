"""Out-of-core execution substrate: spills, disk state, and parts.

``repro.storage`` is what lets operator state exceed memory without
changing a single result bit:

* :mod:`~repro.storage.format` — the one on-disk format every file
  below uses: a version-stamped header, then length-prefixed pickle
  frames, with one writer and one reader,
* :mod:`~repro.storage.session` — per-session spill directories with
  guaranteed cleanup (environment close, ``atexit`` sweep, and
  worker views nested under the owner so crashed workers can't leak),
* :mod:`~repro.storage.spill` — the :class:`SpillManager` budget
  accountant and spill files of run frames,
* :mod:`~repro.storage.hashtable` — partition-and-spill hash
  algorithms (recursive repartitioning) behind the keyed drivers,
* :mod:`~repro.storage.external_sort` — run generation + k-way merge
  behind the sort-based drivers,
* :mod:`~repro.storage.diskdict` — the append-only-log dict backing
  the disk-resident solution set (one frame per stored record),
* :mod:`~repro.storage.partstore` — the manifest/parts/stats dataset
  store (one frame per part) that also makes checkpoints incremental.

Activated per session by ``RuntimeConfig.memory_budget_bytes`` (or the
``REPRO_MEMORY_BUDGET`` environment variable); without a budget none
of this is on any hot path.
"""

from repro.storage.diskdict import DiskDict, DiskPartitionView
from repro.storage.format import StorageFormatError
from repro.storage.partstore import PartStore, content_hash
from repro.storage.session import StorageSession, sweep_owned_sessions
from repro.storage.spill import SpillFile, SpillManager

__all__ = [
    "DiskDict",
    "DiskPartitionView",
    "PartStore",
    "SpillFile",
    "SpillManager",
    "StorageFormatError",
    "StorageSession",
    "content_hash",
    "sweep_owned_sessions",
]
