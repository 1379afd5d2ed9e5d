"""Read and rewrite result entries the way a foreign writer would.

A result entry is the store's header line (``{"digest", "key",
"version"}``), then the measurement's canonical JSON line, then the
``{"attestation", "point", "wall_time", ...}`` line.  :func:`write_entry`
re-encodes both payload lines and re-stamps the header digest, keeping
the key and version: the entry passes the store's integrity check, so
only the checks behind it (structure, attestation) can catch an edit.
"""

import hashlib
import json

from repro.util.store import canonical_json


def read_entry(path):
    """``(header, measurement, meta)`` of the entry at ``path``."""
    with open(path, "rb") as fh:
        head, line, meta = fh.read().split(b"\n")
    return json.loads(head), json.loads(line), json.loads(meta)


def write_entry(path, measurement, meta):
    """Replace the entry's payload; the header digest is re-stamped."""
    header, _, _ = read_entry(path)
    payload = canonical_json(measurement) + b"\n" + canonical_json(meta)
    header["digest"] = hashlib.sha256(payload).hexdigest()
    with open(path, "wb") as fh:
        fh.write(canonical_json(header) + b"\n" + payload)
