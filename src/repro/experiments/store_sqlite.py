"""The artifact store's engine under its SQLite name.

:class:`SqliteStoreBackend` *is* :class:`repro.experiments.store.ArtifactStore`
— one class under two names, not a subclass — the WAL-mode SQLite store
documented in :mod:`repro.experiments.store`.
"""

from repro.experiments.store import SQLITE_FILENAME, ArtifactStore as SqliteStoreBackend

__all__ = ["SqliteStoreBackend", "SQLITE_FILENAME"]
