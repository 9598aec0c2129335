"""Process liveness from Linux ``/proc``, for the no-orphan tests."""

import os


def alive(pid) -> bool:
    """True while ``pid`` runs (a zombie no longer counts)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def live_children(pid) -> list:
    """Live children of ``pid``; each thread lists the children it
    forked.  Empty when ``/proc`` cannot tell."""
    kids = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                kids += fh.read().split()
    except OSError:
        return []
    return [k for k in kids if alive(k)]
