"""A wall-clock alarm around one call, for tests that bound a solve's time."""

import signal
import time


class CaseTimeout(Exception):
    """A case ran past its alarm."""


def _alarm(signum, frame):
    raise CaseTimeout()


def timed(solve, inst, seconds):
    """(solve(inst), seconds taken), under an alarm of the given seconds."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    start = time.perf_counter()
    try:
        return solve(inst), time.perf_counter() - start
    except CaseTimeout:
        # a fresh exception, without the frames the alarm interrupted
        raise CaseTimeout(f"past {seconds:g} s") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
