from collections import Counter

import locspot


def test_all_names_resolve_once():
    assert [n for n, c in Counter(locspot.__all__).items() if c > 1] == []
    missing = [n for n in locspot.__all__ if not hasattr(locspot, n)]
    assert missing == []
