"""The CLI's one process entry, for ``python -m neglab`` and the ``neglab`` script."""

import gc
import io
import os
import sys

from .cli import main


def run() -> None:
    """Run ``main`` on ``sys.argv`` and exit the process with its code.

    A large batch's groups are computed in up to one process per CPU this
    process may run on (``os.sched_getaffinity``; ``taskset -c 0`` gives
    one), forked where ``os.fork`` exists, with the output of one process.
    An in-process ``main()`` runs in one process unless told otherwise.
    """
    out = sys.stdout  # None when the process starts with file descriptor 1 closed
    if out is not None and isinstance(out.buffer, io.RawIOBase):
        # under -u or PYTHONUNBUFFERED the text layer writes to the file itself
        # and drops what a short write leaves over, as when a reader leaves
        # mid-document; a buffered file writes the rest, so that the write fails
        sys.stdout = open(out.fileno(), "w", encoding=out.encoding, errors=out.errors,
                          newline="\n", closefd=False)
    forks = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    code = main(workers=len(os.sched_getaffinity(0)) if forks else 1)
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError:
            # main has already reported the failed write (exit 4); what is left
            # in the buffer goes to devnull, so the interpreter's last flush
            # cannot print "Exception ignored"
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    # what is left is torn down once at exit; frozen objects are not rescanned
    # by the collections of the interpreter's shutdown
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
