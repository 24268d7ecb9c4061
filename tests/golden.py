"""Golden report digests: tier-1 proves "same reports" by hashing rows.

The digest is the benchmark's (``perfbench/worker.py:run_pass``): sha256
over each row's ``to_json()`` without ``seconds``, dumped with sorted keys,
one line per row.  ``golden_reports.json`` maps a key (the suite and its
keyword arguments, or a criterion) to the digest of the rows the code gives
today.  A change that means to alter a report edits that one line.
"""

import hashlib
import json
from pathlib import Path

GOLDEN = json.loads((Path(__file__).parent / "golden_reports.json").read_text())


def report_digest(rows) -> str:
    digest = hashlib.sha256()
    for row in rows:
        record = row.to_json()
        del record["seconds"]
        digest.update(json.dumps(record, sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


def suite_key(suite, **kwargs) -> str:
    return " ".join([suite] + [f"{k}={v}" for k, v in sorted(kwargs.items())])


def assert_golden(key, rows):
    got = report_digest(rows)
    assert got == GOLDEN[key], (
        f"reports of {key!r} changed: digest {got}, golden {GOLDEN[key]}")
