"""Known-bad: mutating calls against snapshot fields outside the builder."""

import bisect


def extend_postings(snapshot, ordinal):
    snapshot._postings["item", "milk"].append(ordinal)  # FLIP001


def insort_ids(snapshot, pattern_id):
    bisect.insort(snapshot._ids, pattern_id)  # FLIP001


def sneaky(snapshot):
    setattr(snapshot, "_version", 99)  # FLIP001


def unfreeze(snapshot):
    snapshot._postings["node", "cat01"].setflags(write=True)  # FLIP001
