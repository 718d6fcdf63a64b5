"""Check every pinned CLI output listed in ``pinned.json``.

Each entry runs ``python -m singlet_fusion *argv`` with this interpreter, in a
fresh temporary directory, with the inherited environment.  Required fields:
``argv`` and ``exit``.  Optional: ``sha256`` of stdout, a ``stderr``
substring, ``rss_mb`` (the child's peak RSS must stay below it) and ``legs``,
the Python versions that run the entry (every version when absent).

    python tests/pinned.py

takes no argument, prints each entry's time and peak RSS (with its
``rss_mb`` bound, if any), one line per failed field, and exits 1 if any
failed.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REGISTRY = Path(__file__).with_name("pinned.json")
FIELDS = {"argv", "exit", "sha256", "stderr", "rss_mb", "legs"}
LEG = "%d.%d" % sys.version_info[:2]


def entries():
    return json.loads(REGISTRY.read_text(encoding="utf-8"))


def measure(entry):
    """The failed fields of ``entry``, one line each, and the child's peak RSS
    in MB; ``(failed or None, None)`` if this leg skips it."""
    failed = [f"unknown field {name!r}" for name in sorted(set(entry) - FIELDS)]
    if LEG not in entry.get("legs", [LEG]):
        return failed or None, None
    argv = [sys.executable, "-m", "singlet_fusion", *entry["argv"]]
    with tempfile.TemporaryDirectory() as cwd, tempfile.TemporaryFile() as out, \
            tempfile.TemporaryFile() as err:
        child = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
        # this child's own peak RSS: RUSAGE_CHILDREN is the maximum over every child
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        # hashed in chunks: reading stdout whole would raise this runner's
        # peak, which Linux charges to the next child it starts
        out.seek(0)
        sha = hashlib.sha256()
        for chunk in iter(lambda: out.read(1 << 16), b""):
            sha.update(chunk)
        digest = sha.hexdigest()
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    if child.returncode != entry["exit"]:
        failed.append(f"exit {child.returncode}, expected {entry['exit']}: {stderr.strip()[-200:]}")
    if entry.get("sha256", digest) != digest:
        failed.append(f"stdout sha256 {digest}, expected {entry['sha256']}")
    if entry.get("stderr", "") not in stderr:
        failed.append(f"stderr lacks {entry['stderr']!r}: {stderr.strip()[-200:]!r}")
    peak_mb = usage.ru_maxrss / 1024
    if peak_mb >= entry.get("rss_mb", float("inf")):
        failed.append(f"peak RSS {peak_mb:.1f} MB, bound {entry['rss_mb']} MB")
    return failed, peak_mb


def check(entry):
    """The failed fields of ``entry``, one line each; ``None`` if this leg skips it."""
    return measure(entry)[0]


def main():
    if sys.argv[1:]:
        sys.exit("pinned.py takes no argument")
    failures = ran = 0
    for entry in entries():
        start = time.perf_counter()
        failed, peak_mb = measure(entry)
        if failed is not None:
            ran += 1
            rss = "      -" if peak_mb is None else f"{peak_mb:7.1f}"
            bound = f"< {entry['rss_mb']:<4}" if "rss_mb" in entry else " " * 6
            print(f"{time.perf_counter() - start:6.2f} s {rss} MB {bound} {' '.join(entry['argv'])}",
                  flush=True)
        for line in failed or ():
            print(f"  FAIL {line}", flush=True)
        failures += len(failed or ())
    print(f"{ran} entries run on Python {LEG}, {failures} failed checks")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
