"""Sketch-based switch directories: approximate pointer-set backends.

See :mod:`repro.directory.registry` for the contract.  Importing this
package registers every backend (the registry-coverage lint rule holds
the imports below to the modules that call ``register_directory``).
"""

from .registry import (
    DIRECTORIES,
    DirectoryBackend,
    DirectoryError,
    DirectoryFactory,
    DirectorySet,
    decode_directory_set,
    directory_markdown,
    make_directory_set,
    register_directory,
)
from . import exact  # noqa: F401  (registers the exact backend)
from . import bloom  # noqa: F401  (registers the bloom backend)
from . import lsh  # noqa: F401  (registers the lsh backend)
from .bloom import BloomDirectorySet
from .lsh import SIG_ROWS, LshDirectorySet

__all__ = [
    "DIRECTORIES",
    "BloomDirectorySet",
    "DirectoryBackend",
    "DirectoryError",
    "DirectoryFactory",
    "DirectorySet",
    "LshDirectorySet",
    "SIG_ROWS",
    "decode_directory_set",
    "directory_markdown",
    "make_directory_set",
    "register_directory",
]
