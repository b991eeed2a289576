"""Content-addressed persistent cure cache.

Curing a workload is the bottleneck of every repeated workflow in the
reproduction — metrics sweeps, fault campaigns, lint validation,
explain diffs all re-run the parse → constraints → solve → instrument
pipeline on programs that have not changed.  This package makes the
re-run free: a cured CIL tree (and the pristine parse it came from) is
stored on disk under a key derived from the *content* of the problem —
the preprocessed source text, the canonicalized
:class:`~repro.core.options.CureOptions`, and a cache-schema version —
so any edit to the program, the options, or the pipeline itself
invalidates exactly the entries it affects and nothing else.

:mod:`.keys` derives the content hashes; :mod:`.store` owns the
on-disk layout, the atomic writers, the corrupt-entry recovery and the
hit/miss counters behind ``repro cache stats``.
"""

from repro.cache.keys import (CACHE_SCHEMA, canonical_options,
                              code_fingerprint, cure_key, parse_key)
from repro.cache.store import (CacheStats, CureCache, cache_enabled,
                               default_root, get_cache)

__all__ = [
    "CACHE_SCHEMA", "canonical_options", "code_fingerprint",
    "cure_key", "parse_key",
    "CacheStats", "CureCache", "cache_enabled", "default_root",
    "get_cache",
]
