"""The two one-entry memos, seen from the tests: empty them, count their traffic.

throughput._smooth_memo serves the smooth kernel throughput._smooth_forms;
optimizer.layer_choice serves the depth search optimizer._search_depth. Both
hit only on the very same key objects, so a test that counts misses starts
from empty memos: a constant such as 131072 in a test's code is one object,
and an earlier test may have left it as the key.

The per-depth table that each SchemeParams carries (optimizer._depth_factors
fills it) is no memo of an answer, and empty() leaves it as it is: an entry
holds factors of the rate pair and the depth alone, so it moves none of the
counts here. A test that needs empty tables builds fresh params.
"""
import contextlib

import pytest

from hiercoop import explorer, optimizer, throughput


def empty():
    """Drop both entries: the next read of each memo is a miss."""
    throughput._smooth_last = (object(), None, None)
    optimizer._search_last = (object(), None, None, None)


class Traffic:
    """Counts since counted() began."""

    def __init__(self):
        self.smooth_misses = 0
        self.smooth_reads = 0
        self.searches = 0

    @property
    def smooth(self):
        """(misses, hits) of the smooth kernel's memo."""
        return self.smooth_misses, self.smooth_reads - self.smooth_misses


@contextlib.contextmanager
def counted():
    """Empty both memos, then count the smooth kernel's reads and misses and
    the depth searches run, by patching each cold body and every binding of
    the smooth memo."""
    traffic = Traffic()
    body, memo, search = throughput._smooth_forms, throughput._smooth_memo, optimizer._search_depth

    def cold(n, params):
        traffic.smooth_misses += 1
        return body(n, params)

    def read(n, params):
        traffic.smooth_reads += 1
        return memo(n, params)

    def searched(n, params, h_max):
        traffic.searches += 1
        return search(n, params, h_max)

    empty()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(throughput, "_smooth_forms", cold)
        patch.setattr(throughput, "_smooth_memo", read)
        patch.setattr(explorer, "_smooth_memo", read)
        patch.setattr(optimizer, "_search_depth", searched)
        yield traffic
