"""Exact irreducible characters of S_n via the Murnaghan-Nakayama recursion.

Values are plain integers.  A table is held as its cache file stores it:
one row per partition, keyed by the partition, with rows and classes in
the enumeration's reverse-lexicographic order, as everywhere else.

Tables are cached on disk as JSON, one file per n, under the directory
named by the KRONLAB_CACHE environment variable (default
``./.kronlab-cache``).  A ``cache_settings`` scope, the one way to
configure the cache, overrides the directory and can turn the cache off
for every call inside it; the CLI opens one per command for
``--cache-dir`` and ``--no-cache``.  A file is checked by its labels and
the orthogonality relations whenever its bytes are new to the process,
and recomputed and overwritten if corrupt; a file whose bytes equal
those last checked or written for that path is answered from memory (one
read, one comparison).  Files are written, at the resolved path, to a
temporary name and renamed into place, so a reader never sees a partial file.
"""

from __future__ import annotations

import itertools
import json
import os
from contextlib import contextmanager, suppress
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, isqrt

import numpy as np

from .errors import BoundExceededError, ConsistencyError, InputError
from .partitions import Partition, check_partition, enumerate_partitions, hook_dimension
from .permutations import class_size, centralizer_order

DEFAULT_CACHE_DIR = ".kronlab-cache"
CACHE_ENV_VAR = "KRONLAB_CACHE"
# on a 2-core host S_16's table is computed in 0.9-1.3 s and re-checked
# from the cache in 0.1 s
TABLE_DEGREE_LIMIT = 16
# check_orthogonality's int64 products: each term of either relation is at
# most n! once |chi(rho)| <= isqrt(z_rho), so every partial sum is below p(n) n!
assert len(enumerate_partitions(TABLE_DEGREE_LIMIT)) * factorial(TABLE_DEGREE_LIMIT) < 2**63


def _border_strip_removals(lam: Partition, length: int) -> list[tuple[Partition, int]]:
    """All ways to remove a border strip of the given length from lam.

    Works on the beta-set (first-column hook lengths): removing a strip
    of length k moves one beta number down by k; the strip height is the
    number of beta numbers jumped over.
    """
    ell = len(lam)
    beta = [lam[i] + (ell - 1 - i) for i in range(ell)]
    beta_set = set(beta)
    out = []
    for i, b in enumerate(beta):
        target = b - length
        if target < 0 or target in beta_set:
            continue
        height = sum(1 for c in beta if target < c < b)
        new_beta = sorted((beta_set - {b}) | {target}, reverse=True)
        new_lam = tuple(nb - (ell - 1 - j) for j, nb in enumerate(new_beta))
        new_lam = tuple(p for p in new_lam if p > 0)
        out.append((new_lam, height))
    return out


def content_power_sums(lam: Partition) -> tuple[int, int, int]:
    """p_1, p_2 and p_3 of the cell contents j - i of lam."""
    contents = [j - i for i, row in enumerate(lam) for j in range(row)]
    return tuple(sum(c**power for c in contents) for power in (1, 2, 3))


@lru_cache(maxsize=None)
def mn_character(lam: Partition, rho: Partition) -> int:
    """Character of the irreducible of type lam at the class of type rho.

    The recursion strips a border strip of size rho[0] (the largest part
    first) and recurses on the remainder with sign (-1)^height.
    """
    lam = check_partition(lam) if lam else ()
    rho = check_partition(rho) if rho else ()
    if sum(lam) != sum(rho):
        raise InputError(f"|lam| = {sum(lam)} but |rho| = {sum(rho)}")
    if not lam:
        return 1
    total = 0
    for new_lam, height in _border_strip_removals(lam, rho[0]):
        total += (-1) ** height * mn_character(new_lam, rho[1:])
    return total


@dataclass(frozen=True)
class CharacterTable:
    """chi_lam at every class, in class order, keyed by lam in enumeration
    order: the layout of the cache file."""

    n: int
    classes: tuple[Partition, ...]
    class_sizes: tuple[int, ...]
    rows: dict[Partition, tuple[int, ...]]

    @property
    def partitions(self) -> tuple[Partition, ...]:
        return tuple(self.rows)

    def row(self, lam: Partition) -> tuple[int, ...]:
        return self.rows[tuple(lam)]

    def chi(self, lam: Partition, rho: Partition) -> int:
        return self.row(lam)[self.classes.index(tuple(rho))]

    def dimension(self, lam: Partition) -> int:
        return self.row(lam)[-1]  # the identity is the last class

    def check_orthogonality(self) -> None:
        """Exact row and column orthogonality as int64 matrix products;
        raises on any failure.  Every valid table has class sizes n!/z_rho
        and |chi(rho)| <= isqrt(z_rho), since the squares in a column sum
        to z_rho; anything else is refused first, so no product overflows."""
        n_fact = factorial(self.n)
        z = [centralizer_order(rho) for rho in self.classes]
        if any(size * v != n_fact for size, v in zip(self.class_sizes, z)):
            raise ConsistencyError("class sizes are not n!/z_rho")
        try:
            x = np.array(list(self.rows.values()), dtype=np.int64)
            sizes, z = np.array(self.class_sizes, dtype=np.int64), np.array(z, dtype=np.int64)
        except OverflowError:
            raise ConsistencyError("an entry is too large for a character table") from None
        bound = np.array([isqrt(int(v)) for v in z], dtype=np.int64)
        if np.any((x > bound) | (x < -bound)):
            raise ConsistencyError("an entry exceeds the square root of its centralizer order")
        if not np.array_equal((x * sizes) @ x.T, n_fact * np.eye(len(x), dtype=np.int64)):
            raise ConsistencyError("row orthogonality fails")
        if not np.array_equal(x.T @ x, np.diag(z)):
            raise ConsistencyError("column orthogonality fails")

    def check_labels(self) -> None:
        """Raises unless the labels agree with closed forms that avoid the
        Murnaghan-Nakayama rule (a relabelled or row-permuted table still
        passes orthogonality): rows and classes in enumeration order, sizes
        n!/z_rho, hook dimensions at the identity, and the Jucys-Murphy
        eigenvalues of the class sums of 2-, 3- and 4-cycles, with p_j(lam)
        the sum of the j-th powers of the cell contents:
        |C_2| chi(2-cycle) = d p_1, |C_3| chi(3-cycle) = d (p_2 - n(n-1)/2)
        and |C_4| chi(4-cycle) = d (p_3 - (2n-3) p_1).  Together with d these
        separate the rows for every n <= TABLE_DEGREE_LIMIT."""
        n = self.n
        parts = tuple(enumerate_partitions(n))
        sizes = tuple(class_size(rho) for rho in parts)
        if (self.partitions, self.classes, self.class_sizes) != (parts, parts, sizes):
            raise ConsistencyError(f"rows, classes or class sizes are not those of S_{n}")
        cycles = [(length,) + (1,) * (n - length) for length in (2, 3, 4) if length <= n]
        columns = [(rho[0], parts.index(rho), class_size(rho)) for rho in cycles]
        for lam, row in self.rows.items():
            d = hook_dimension(lam)
            if self.dimension(lam) != d:
                raise ConsistencyError(f"identity column disagrees with hooks at {lam}")
            p1, p2, p3 = content_power_sums(lam)
            eigenvalues = (p1, p2 - n * (n - 1) // 2, p3 - (2 * n - 3) * p1)
            for (length, j, size), eigenvalue in zip(columns, eigenvalues):
                if size * row[j] != d * eigenvalue:
                    raise ConsistencyError(f"{length}-cycle column disagrees at {lam}")

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "classes": [
                {"type": list(rho), "size": size}
                for rho, size in zip(self.classes, self.class_sizes)
            ],
            "rows": [
                {"partition": list(lam), "values": list(row)}
                for lam, row in self.rows.items()
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "CharacterTable":
        """The table in a to_json document; ConsistencyError on a number that
        is not a JSON integer, a row without one value per class, or a
        partition that labels two rows (numbers are checked before keying)."""
        classes = tuple(tuple(c["type"]) for c in data["classes"])
        sizes = tuple(c["size"] for c in data["classes"])
        partitions = tuple(tuple(r["partition"]) for r in data["rows"])
        rows = [r["values"] for r in data["rows"]]
        numbers = itertools.chain([data["n"]], sizes, *classes, *partitions, *rows)
        if any(type(x) is not int for x in numbers) or any(len(r) != len(classes) for r in rows):
            raise ConsistencyError("a number is not an integer, or a row has the wrong length")
        keyed = dict(zip(partitions, map(tuple, rows)))
        if len(keyed) < len(rows):
            raise ConsistencyError("a partition labels two rows")
        return CharacterTable(data["n"], classes, sizes, keyed)


@lru_cache(maxsize=None)
def _compute_table(n: int) -> CharacterTable:
    parts = tuple(enumerate_partitions(n))
    sizes = tuple(class_size(rho) for rho in parts)
    rows = {lam: tuple(mn_character(lam, rho) for rho in parts) for lam in parts}
    table = CharacterTable(n, parts, sizes, rows)
    # the identity and 2-, 3- and 4-cycle columns must come out of the
    # recursion, not the closed forms; their agreement checks both
    table.check_labels()
    return table


# (cache directory or None for KRONLAB_CACHE, use_cache) of the current scope
_settings: ContextVar[tuple[str | os.PathLike | None, bool]] = ContextVar(
    "kronlab_cache_settings", default=(None, True)
)

# _cache_path's string -> (bytes last validated or written there, table);
# a key naming another file after a chdir costs at most one re-check
_validated: dict[str, tuple[bytes, CharacterTable]] = {}


@contextmanager
def cache_settings(cache_dir: str | os.PathLike | None = None, use_cache: bool = True):
    """Within the block, character_table reads and writes its files under
    cache_dir (None keeps KRONLAB_CACHE), or computes every table afresh
    when use_cache is false."""
    token = _settings.set((cache_dir, use_cache))
    try:
        yield
    finally:
        _settings.reset(token)


def _cache_path(n: int) -> str:
    root = _settings.get()[0] or os.environ.get(CACHE_ENV_VAR, DEFAULT_CACHE_DIR)
    return os.path.join(root, f"chartable-n{n}.json")


def _load_checked(data: bytes, n: int) -> CharacterTable | None:
    """The table in a cache file's bytes, or None if it fails to parse,
    holds another degree, or fails its label or orthogonality checks."""
    try:
        table = CharacterTable.from_json(json.loads(data))
        if table.n != n:
            raise ConsistencyError("cache file holds the wrong degree")
        table.check_labels()
        table.check_orthogonality()
    except (ValueError, KeyError, TypeError, OverflowError, ConsistencyError):
        return None
    return table


def _write_atomic(path: str, data: bytes) -> bool:
    """Write data to the resolved path (a symlink's target) through a
    temporary file beside it and os.replace, so it is either untouched or
    complete.  Returns False, leaving no temporary file, if any step fails.
    No fsync: a file torn by a crash fails validation and is recomputed."""
    head, name = os.path.split(os.path.realpath(path))
    tmp = os.path.join(head, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        os.makedirs(head, exist_ok=True)
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, os.path.join(head, name))
    except OSError:
        with suppress(OSError):
            os.unlink(tmp)
        return False
    return True


def character_table(n: int) -> CharacterTable:
    """Complete character table of S_n, for n <= TABLE_DEGREE_LIMIT.

    Unless the enclosing cache_settings scope turns the cache off, tries
    the JSON disk cache first; a file that fails to parse or fails its
    checks is recomputed and overwritten through its resolved path.  A
    warm call costs one read of the file and one bytes comparison: only
    bytes new to this process at that path are checked again.
    """
    if n < 1:
        raise InputError("character table needs n >= 1")
    if n > TABLE_DEGREE_LIMIT:
        raise BoundExceededError(f"character table of S_{n}: n exceeds {TABLE_DEGREE_LIMIT}")
    if not _settings.get()[1]:
        return _compute_table(n)
    path = _cache_path(n)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        data = b""  # missing or unreadable: fails to parse, recomputed below
    held = _validated.get(path)
    if held is not None and held[0] == data:
        return held[1]
    table = _load_checked(data, n)
    if table is not None:
        _validated[path] = (data, table)
        return table
    table = _compute_table(n)
    data = json.dumps(table.to_json()).encode()
    if _write_atomic(path, data):  # the cache is best-effort
        _validated[path] = (data, table)
    return table
