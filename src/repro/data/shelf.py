"""Shard store: file-backed storage of pruned traces with handle caching.

The paper stores its 15M-trace / 1.7 TB dataset with Python ``shelve`` over
gdbm, 100k traces per file, and reports two I/O-layer optimisations that this
module reproduces in miniature:

* grouping many traces per file (750 files of 20k -> 150 files of 100k) so
  that sequential reads hit contiguous file regions, and
* caching file open/close handles so that repeated metadata operations (and
  concurrent access from different ranks to the same file) are cheap.

Each shard file is the concatenation of its records' pickles; an index maps a
global trace id to ``(shard, offset, length)``, so a read decodes one record,
not one shard.  Reads are positionless (:func:`os.pread`) on a small LRU of
open descriptors: a forked rank process inherits the descriptors, and a
shared file offset would race.
"""

from __future__ import annotations

import io
import os
import pickle
from collections import OrderedDict
from typing import Any, List, Tuple

__all__ = ["ShardStore"]


class ShardStore:
    """Append-oriented store of pickled records split across shard files.

    ``cache_size`` bounds the shard descriptors kept open for reading.
    """

    INDEX_FILE = "index.pkl"

    def __init__(self, directory: str, records_per_shard: int = 100, cache_size: int = 8) -> None:
        self._cache: "OrderedDict[int, int]" = OrderedDict()  # shard id -> open descriptor
        if records_per_shard <= 0:
            raise ValueError("records_per_shard must be positive")
        self.directory = directory
        self.records_per_shard = records_per_shard
        self.cache_size = cache_size
        os.makedirs(directory, exist_ok=True)
        self._index: List[Tuple[int, int, int]] = []  # global id -> (shard id, offset, length)
        self._pending: List[Any] = []               # the unflushed shard's records
        self._num_shards = 0
        self.cache_hits = 0
        self.cache_misses = 0
        index_path = os.path.join(directory, self.INDEX_FILE)
        if os.path.exists(index_path):
            self._load_index()

    # ----------------------------------------------------------------- writing
    def append(self, record: Any) -> int:
        """Append one record; returns its global id."""
        global_id = len(self._index)
        # Until its shard is flushed a record is addressed by its position in
        # the pending list; flushing pickles the shard in one burst.
        self._index.append((self._num_shards, len(self._pending), 0))
        self._pending.append(record)
        if len(self._pending) >= self.records_per_shard:
            self._flush_shard()
        return global_id

    def _shard_path(self, shard_id: int) -> str:
        return os.path.join(self.directory, f"shard_{shard_id:05d}.pkl")

    def _flush_shard(self) -> None:
        if not self._pending:
            return
        first = len(self._index) - len(self._pending)
        shard = io.BytesIO()
        pickler = pickle.Pickler(shard, protocol=pickle.HIGHEST_PROTOCOL)
        for global_id, record in enumerate(self._pending, start=first):
            offset = shard.tell()
            pickler.dump(record)
            pickler.clear_memo()  # every record is a pickle of its own
            self._index[global_id] = (self._num_shards, offset, shard.tell() - offset)
        with open(self._shard_path(self._num_shards), "wb") as handle:
            handle.write(shard.getbuffer())
        self._num_shards += 1
        self._pending = []

    def flush(self) -> None:
        """Flush pending records and persist the index.

        The index is the store's single point of failure: shard files are
        append-only and self-contained, but a torn ``index.pkl`` orphans all
        of them.  It is therefore written to a temporary sibling and moved
        into place with :func:`os.replace`, which is atomic on POSIX and
        Windows — a crash mid-write leaves the previous index intact.
        """
        self._flush_shard()
        index_path = os.path.join(self.directory, self.INDEX_FILE)
        temp_path = index_path + ".tmp"
        try:
            with open(temp_path, "wb") as handle:
                pickle.dump(
                    {
                        "index": self._index,
                        "num_shards": self._num_shards,
                        "records_per_shard": self.records_per_shard,
                    },
                    handle,
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
                handle.flush()
                os.fsync(handle.fileno())
        except BaseException:
            # Never leave a torn temp file behind to be mistaken for an index.
            if os.path.exists(temp_path):
                os.unlink(temp_path)
            raise
        os.replace(temp_path, index_path)

    def _load_index(self) -> None:
        with open(os.path.join(self.directory, self.INDEX_FILE), "rb") as handle:
            payload = pickle.load(handle)
        self._index = payload["index"]
        if self._index and len(self._index[0]) != 3:
            raise ValueError(
                f"{self.directory}: whole-shard pickles of an older ShardStore; regenerate the dataset"
            )
        self._num_shards = payload["num_shards"]
        self.records_per_shard = payload["records_per_shard"]

    # ----------------------------------------------------------------- reading
    def __len__(self) -> int:
        return len(self._index)

    @property
    def num_shards(self) -> int:
        return self._num_shards + (1 if self._pending else 0)

    def _descriptor(self, shard_id: int) -> int:
        descriptor = self._cache.get(shard_id)
        if descriptor is not None:
            self.cache_hits += 1
            self._cache.move_to_end(shard_id)
            return descriptor
        self.cache_misses += 1
        descriptor = self._cache[shard_id] = os.open(self._shard_path(shard_id), os.O_RDONLY)
        while len(self._cache) > max(1, self.cache_size):
            os.close(self._cache.popitem(last=False)[1])
        return descriptor

    def __getitem__(self, global_id: int) -> Any:
        shard_id, offset, length = self._index[global_id]
        if shard_id == self._num_shards:  # the unflushed tail: offset is a list position
            return self._pending[offset]
        return pickle.loads(os.pread(self._descriptor(shard_id), length, offset))

    def clear_cache(self) -> None:
        """Close every cached descriptor and reset the hit/miss counters."""
        while self._cache:
            os.close(self._cache.popitem()[1])
        self.cache_hits = 0
        self.cache_misses = 0

    def __del__(self) -> None:
        self.clear_cache()
