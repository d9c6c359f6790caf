"""Known-good: only the builder and constructors touch snapshot fields."""


class StoreSnapshot:
    def __init__(self, ordinals, version):
        self._ordinals = dict(ordinals)
        self._version = version


class _SnapshotBuilder:
    def __init__(self, snapshot):
        self._ordinals = dict(snapshot._ordinals)
        self._postings = {}

    def add(self, pattern_id, ordinal):
        # mutation inside the builder is the sanctioned path
        self._ordinals[pattern_id] = ordinal
        self._postings.setdefault("x", []).append(pattern_id)

    def freeze(self):
        return StoreSnapshot(self._ordinals, 1)


def read_only(snapshot):
    # reads never trip the rule
    total = len(snapshot._ordinals)
    return total, snapshot._version
