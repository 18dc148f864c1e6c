"""The serve-mixed workload: a seeded job stream and its closed-loop client.

Two users share one ``repro serve --workers 2`` process.  Each user
sends its own list of submissions one at a time (a closed loop: the next
``POST /jobs`` goes out only after the previous job's certified result
is in hand), so at most two connections are open at once.

A round's stream, from ``random.Random(seed)``:

* every user gets one *cold* spec of each of the six job kinds, drawn
  from small per-kind pools (:data:`POOLS`) without sharing a spec with
  the other user, so no two cold submissions coalesce;
* every user then repeats six of its own earlier specs, each inserted
  after the submission that computed it, so every repeat must be a
  cache hit: half of all submissions (12 of 24) repeat an earlier spec;
* each user's order is shuffled.

The pools are fixed, so the CLI reference digests of the served ``zoo``
and ``chaos`` reports (``refs.json``, rebuilt by ``refs.py``) cover
every seed.
"""

from __future__ import annotations

import hashlib
import json
import random
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

KINDS = ("experiment", "chaos", "sanitize", "zoo", "heal", "verify")

#: Per-kind pools of job params; each job computes for tens of ms.
#: Experiments are the quick presets that finish fastest.
POOLS: Dict[str, List[Dict[str, Any]]] = {
    "experiment": [{"id": key} for key in ("E1", "E3", "E4", "E8")],
    "chaos": [{"base_seed": 1 + 10 * k} for k in range(8)],
    "sanitize": [{"base_seed": 1 + 10 * k} for k in range(8)],
    "zoo": [{"base_seed": 7000 + 10 * k} for k in range(8)],
    "heal": [{"base_seed": 8000 + 10 * k} for k in range(8)],
    "verify": [{"base_seed": 1 + k} for k in range(8)],
}

USERS = 2
REPEATS_PER_USER = 6
LONG_POLL_S = 10


def spec_key(kind: str, params: Dict[str, Any]) -> str:
    return kind + ":" + json.dumps(params, sort_keys=True)


def make_stream(seed: int) -> List[List[Tuple[str, Dict[str, Any], bool]]]:
    """Per-user lists of (kind, params, expect_hit)."""
    rng = random.Random(seed)
    picks = {kind: rng.sample(range(len(POOLS[kind])), USERS) for kind in KINDS}
    users = []
    for user in range(USERS):
        items: List[Tuple[str, Dict[str, Any], bool]] = [
            (kind, POOLS[kind][picks[kind][user]], False) for kind in KINDS
        ]
        rng.shuffle(items)
        for _ in range(REPEATS_PER_USER):
            first = rng.randrange(len(KINDS))
            original = [item for item in items if not item[2]][first]
            after = items.index(original)
            position = rng.randint(after + 1, len(items))
            items.insert(position, (original[0], original[1], True))
        users.append(items)
    return users


def canonical(value: Any) -> bytes:
    """The canonical JSON bytes the server's result digest is taken over."""
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Client:
    """Connection-per-request HTTP/1.1 client that counts the bytes it
    moves.  Responses are read by Content-Length: forked job workers
    inherit the server's open sockets, so EOF can come late."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.bytes = 0
        self._lock = threading.Lock()

    def request(
        self, method: str, path: str, body: Optional[Any] = None
    ) -> Tuple[int, Dict[str, Any]]:
        payload = b"" if body is None else json.dumps(body).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
        ).encode("latin-1")
        with socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        ) as sock:
            sock.sendall(head + payload)
            reader = sock.makefile("rb")
            try:
                status_line = reader.readline()
                status = int(status_line.split(None, 2)[1])
                moved = len(status_line)
                length = 0
                while True:
                    line = reader.readline()
                    moved += len(line)
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    if name.strip().lower() == "content-length":
                        length = int(value.strip())
                data = reader.read(length)
            finally:
                reader.close()
        with self._lock:
            self.bytes += len(head) + len(payload) + moved + len(data)
        return status, json.loads(data.decode("utf-8")) if data else {}

    def healthy(self) -> bool:
        try:
            status, body = self.request("GET", "/healthz")
        except OSError:
            return False
        return status == 200 and body.get("status") == "ok"


def run_user(
    client: Client, items: List[Tuple[str, Dict[str, Any], bool]]
) -> List[Dict[str, Any]]:
    """Submit ``items`` in a closed loop; one record per submission."""
    records = []
    for kind, params, expect_hit in items:
        record: Dict[str, Any] = {
            "kind": kind,
            "key": spec_key(kind, params),
            "expect_hit": expect_hit,
        }
        t0 = time.monotonic()
        status, body = client.request(
            "POST", "/jobs", {"kind": kind, "params": params}
        )
        record["status"] = status
        job = body.get("job")
        if status == 202 and job is not None:
            since = 0
            while True:
                status, progress = client.request(
                    "GET",
                    f"/jobs/{job['id']}/progress?wait={LONG_POLL_S}"
                    f"&since={since}",
                )
                if status != 200:
                    record["status"] = status
                    break
                if progress.get("state") in ("done", "failed",
                                             "interrupted", "cancelled"):
                    record["seen_done"] = time.monotonic()
                    break
                since = int(progress.get("cells_completed", since) or since)
            if record["status"] == 202:
                status, body = client.request("GET", f"/jobs/{job['id']}")
                job = body.get("job") if status == 200 else None
                if status != 200:
                    record["status"] = status
        record["latency_s"] = time.monotonic() - t0
        if job is not None:
            record["job"] = job["id"]
            record["state"] = job.get("state")
            record["cached"] = bool(job.get("cached"))
            record["attempts"] = int(job.get("attempts", 0))
            record["digest"] = job.get("digest")
            record["result"] = job.get("result")
        records.append(record)
    return records


def run_stream(
    client: Client, users: List[List[Tuple[str, Dict[str, Any], bool]]]
) -> Tuple[List[Dict[str, Any]], float]:
    """Run every user concurrently; returns (records, serving seconds)."""
    results: List[Optional[List[Dict[str, Any]]]] = [None] * len(users)
    errors: List[BaseException] = []

    def drive(index: int) -> None:
        try:
            results[index] = run_user(client, users[index])
        except Exception as error:  # reported as a failed round
            errors.append(error)

    threads = [
        threading.Thread(target=drive, args=(index,))
        for index in range(len(users))
    ]
    t0 = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.monotonic() - t0
    if errors:
        raise errors[0]
    return [record for part in results for record in (part or [])], elapsed


def check_round(
    records: List[Dict[str, Any]], refs: Dict[str, Dict[str, str]]
) -> Tuple[int, List[str]]:
    """(failed operations, correctness problems) for one round.

    A submission fails when it is answered 4xx/5xx, its job does not end
    ``done`` or needed more than one attempt.  Correctness: every
    result's bytes match the digest the server certified, every repeat
    is a cache hit returning its cold run's bytes, every cold run is
    computed afresh and passes, and served ``zoo``/``chaos`` reports
    equal the CLI's report for the same config (``refs.json``).
    """
    failed = 0
    problems: List[str] = []
    cold: Dict[str, bytes] = {}
    failed_keys = set()
    for record in records:
        if (
            record.get("status") not in (200, 202)
            or record.get("state") != "done"
            or record.get("attempts", 0) > 1
        ):
            failed += 1
            failed_keys.add(record["key"])
            continue
        key = record["key"]
        data = canonical(record["result"])
        if sha256(data) != record.get("digest"):
            problems.append(f"{key}: result bytes do not match its sha256")
        if record["expect_hit"]:
            if record["status"] != 200 or not record["cached"]:
                problems.append(f"{key}: repeat not served from the cache")
            elif key in cold and cold[key] != data:
                problems.append(f"{key}: cache hit differs from cold bytes")
            continue
        if record["status"] != 202 or record["cached"]:
            problems.append(f"{key}: cold submission was not computed")
        cold[key] = data
        if not record["result"].get("passed"):
            problems.append(f"{key}: served report did not pass")
        kind = record["kind"]
        if kind in refs:
            expected = refs[kind].get(key)
            got = sha256(canonical(record["result"]["report"]))
            if expected is None:
                problems.append(f"{key}: no CLI reference (run refs.py)")
            elif got != expected:
                problems.append(f"{key}: served report differs from CLI's")
    for record in records:
        key = record["key"]
        if record["expect_hit"] and key not in cold and key not in failed_keys:
            problems.append(f"{key}: repeat of an unseen spec")
    return failed, problems
