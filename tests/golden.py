"""The CLI's golden table: every run in golden.jsonl, checked through cli.main.

Each line of ``golden.jsonl`` is one run of ``lcfield``, a JSON object with
the fields

``id``             a name for the run, unique in the table;
``argv``           the arguments after ``lcfield``;
``stdin``          text on standard input (optional; empty when absent);
``corpus``         text written to ``corpus.txt`` before the run (optional);
                   a byte that is not UTF-8 is stored as the lone surrogate
                   Python's ``surrogateescape`` error handler maps it to;
``exit``           the exit code;
``stdout_sha256``  the sha256 of standard output, UTF-8 encoded;
``stderr``         standard error in full, or
``stderr_tail``    only its last line, for an argparse usage error, whose
                   usage line differs between Python versions, or
``stderr_unpinned`` in place of either, why standard error is not checked:
                   a run whose message differs between Python versions;
``seconds``        a bound on the run's wall time (optional).

Each run happens in a fresh temporary directory that holds ``corpus.txt``
and a link to the checkout's ``corpora``, so a relative path such as
``corpora/identities.txt`` reads a shipped corpus and ``--csv out.csv``
writes nowhere else.

Run ``python tests/golden.py`` with ``lcfield`` importable; it needs only the
standard library.  It prints each entry whose run differs, followed by the
entry as it now reads, and exits 1.  An intended output change is re-pinned
by putting those printed lines in place of the old ones.
"""

import hashlib
import io
import json
import os
import sys
import tempfile
import time
import traceback
from pathlib import Path

from lcfield.cli import main as lcfield_main

TABLE = Path(__file__).with_name("golden.jsonl")
CORPORA = Path(__file__).resolve().parent.parent / "corpora"


def load() -> list[dict]:
    return [json.loads(line) for line in TABLE.read_text(encoding="utf-8").splitlines()]


def run(entry: dict) -> tuple[dict, float]:
    """The entry as a run of its argv now reads, and the run's wall time."""
    out, err = io.StringIO(), io.StringIO()
    saved, cwd = (sys.stdin, sys.stdout, sys.stderr), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.symlink(CORPORA, Path(tmp, "corpora"))
        if "corpus" in entry:
            Path(tmp, "corpus.txt").write_bytes(entry["corpus"].encode("utf-8", "surrogateescape"))
        os.chdir(tmp)
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(entry.get("stdin", "")), out, err
        start = time.perf_counter()
        try:
            code = lcfield_main(entry["argv"])
        except SystemExit as exc:  # an argparse usage error
            code = exc.code
        except Exception:  # what the interpreter would print and exit with
            traceback.print_exc()
            code = 1
        finally:
            elapsed = time.perf_counter() - start
            sys.stdin, sys.stdout, sys.stderr = saved
            os.chdir(cwd)
    actual = dict(entry, exit=code, stdout_sha256=hashlib.sha256(out.getvalue().encode()).hexdigest())
    if "stderr_tail" in entry:
        actual["stderr_tail"] = (err.getvalue().splitlines(keepends=True) or [""])[-1]
    elif "stderr_unpinned" not in entry:
        actual["stderr"] = err.getvalue()
    return actual, elapsed


def check(entry: dict) -> str | None:
    """None when a run matches the entry; else what differs, then the entry
    as it now reads."""
    actual, elapsed = run(entry)
    differ = [key for key in actual if actual[key] != entry.get(key)]
    if elapsed > entry.get("seconds", float("inf")):
        differ.append(f"took {elapsed:.2f} s, bound {entry['seconds']} s")
    if not differ:
        return None
    return f"{entry['id']} differs: {', '.join(differ)}\n{json.dumps(actual)}"


def main() -> int:
    entries = load()
    failures = [message for message in map(check, entries) if message is not None]
    for message in failures:
        print(message)
    print(f"{len(entries) - len(failures)} of {len(entries)} golden entries match")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
