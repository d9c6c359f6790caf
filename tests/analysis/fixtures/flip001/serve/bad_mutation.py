"""Known-bad: direct writes to snapshot fields outside the builder."""


def patch_in_place(snapshot, pattern_id, ordinal):
    snapshot._ordinals[pattern_id] = ordinal  # FLIP001


def bump_version(snapshot):
    snapshot._version = snapshot._version + 1  # FLIP001


class Handler:
    def rewrite(self, snapshot):
        snapshot._postings["item", "milk"] = []  # FLIP001
