#!/usr/bin/env python3
"""Hostile-input check against a live ft-server node and ft-router.

    python3 scripts/hostile_input.py NODE_HOST:PORT ROUTER_HOST:PORT

Start one `ft-server` and one `ft-router` in front of it (both with
their default sizing), then run this. It checks that:

- a bad request line, a 20 KB header block, `Content-Length: abc`,
  `Content-Length: 99999999999`, 1 MB of `[` posted to
  `/campaigns/quotes`, and three specs posted to `/campaigns` each get
  a 4xx from the node and from the router. The specs are a deadline
  spec whose first interval expects 10^300 worker arrivals, a deadline
  spec for 4*10^9 tasks, and the paper's budget spec with a budget of
  10^15 cents; a solve of the last two would not fit in memory;
- the snapshot of a solved campaign, with every interval's arrivals
  rewritten to 10^300, gets a 4xx from the node's `/campaigns/restore`
  (the router refuses every restore);
- with 16 connections trickling one byte per second, the router still
  answers `GET /healthz` within 2 s;
- both still answer `GET /healthz` with 200 at the end.

Exits non-zero with a message on the first failed check.
"""

import json
import socket
import sys
import threading
import time

NESTED = b"[" * (1 << 20)

# A well-formed deadline spec apart from its first interval's arrival
# mass, which no solve could compute truncation points for.
HUGE_ARRIVALS = (
    b'{"kind":"deadline","problem":{"n_tasks":20,'
    b'"interval_arrivals":[1e300,50,50],'
    b'"actions":{"actions":[{"reward":1,"accept":0.1},{"reward":2,"accept":0.2}]},'
    b'"penalty":{"Linear":{"per_task":500}}}}'
)



def spec(kind, problem):
    return json.dumps({"kind": kind, "problem": problem}).encode()


# Under 1 KB on the wire, but its solve would allocate terabytes.
BILLION_TASKS = spec(
    "deadline",
    {
        "n_tasks": 4_000_000_000,
        "interval_arrivals": [50, 50, 50],
        "actions": {"actions": [{"reward": c, "accept": 0.03 + 0.035 * c} for c in range(16)]},
        "penalty": {"Linear": {"per_task": 500}},
    },
)

# The paper's budget campaign (N = 200 tasks, prices 1-40 cents) with a
# 10^15-cent budget: a 201 x (10^15 + 1)-cell table.
HUGE_BUDGET = spec(
    "budget",
    {
        "n_tasks": 200,
        "budget": 1e15,
        "actions": {"actions": [{"reward": c, "accept": 0.0008 * 1.07**c} for c in range(1, 41)]},
        "mean_rate": 5100,
    },
)

# A small deadline campaign whose snapshot the restore check poisons.
SMALL_DEADLINE = spec(
    "deadline",
    {
        "n_tasks": 20,
        "interval_arrivals": [50, 50, 50],
        "actions": {"actions": [{"reward": 1, "accept": 0.1}, {"reward": 2, "accept": 0.2}]},
        "penalty": {"Linear": {"per_task": 500}},
    },
)


def post(path, body):
    """A complete `POST` of a JSON body on a closing connection."""
    return (
        b"POST %s HTTP/1.1\r\nContent-Type: application/json\r\n"
        b"Content-Length: %d\r\nConnection: close\r\n\r\n" % (path, len(body))
        + body
    )


HOSTILE = [
    ("bad request line", b"nope\r\n\r\n"),
    (
        "20 KB header block",
        b"GET /healthz HTTP/1.1\r\nX-Filler: "
        + b"a" * 20 * 1024
        + b"\r\nConnection: close\r\n\r\n",
    ),
    (
        "Content-Length: abc",
        b"POST /campaigns/quotes HTTP/1.1\r\nContent-Length: abc\r\n"
        b"Connection: close\r\n\r\n",
    ),
    (
        "Content-Length: 99999999999",
        b"POST /campaigns/quotes HTTP/1.1\r\nContent-Length: 99999999999\r\n"
        b"Connection: close\r\n\r\n",
    ),
    ("1 MB of [ to /campaigns/quotes", post(b"/campaigns/quotes", NESTED)),
    ("10^300 arrivals to /campaigns", post(b"/campaigns", HUGE_ARRIVALS)),
    ("4*10^9 tasks to /campaigns", post(b"/campaigns", BILLION_TASKS)),
    ("10^15-cent budget to /campaigns", post(b"/campaigns", HUGE_BUDGET)),
]

HEALTHZ = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
TRICKLERS = 16


def endpoint(addr):
    host, port = addr.rsplit(":", 1)
    return host, int(port)


def status_of(addr, payload, timeout):
    """Send `payload` on a fresh connection; return the response status."""
    with socket.create_connection(endpoint(addr), timeout=timeout) as sock:
        try:
            sock.sendall(payload)
        except OSError:
            pass  # the server may answer and close before reading it all
        head = b""
        while b"\r\n" not in head:
            chunk = sock.recv(4096)
            if not chunk:
                break
            head += chunk
    line = head.split(b"\r\n", 1)[0].decode("latin-1")
    parts = line.split()
    if len(parts) < 2 or not parts[0].startswith("HTTP/") or not parts[1].isdigit():
        raise RuntimeError(f"no HTTP status line: {line!r}")
    return int(parts[1])


def exchange(addr, payload, timeout=10):
    """Send `payload` on a closing connection; return (status, body)."""
    with socket.create_connection(endpoint(addr), timeout=timeout) as sock:
        sock.sendall(payload)
        response = b""
        while chunk := sock.recv(65536):
            response += chunk
    head, _, body = response.partition(b"\r\n\r\n")
    return int(head.split()[1]), body


def poisoned_snapshot(node):
    """Create and solve a small campaign on `node`, and return its
    snapshot with every interval's arrivals rewritten to 10^300."""
    status, body = exchange(node, post(b"/campaigns", SMALL_DEADLINE))
    if status != 201:
        raise RuntimeError(f"create got {status}: {body!r}")
    cid = json.loads(body)["id"]
    status, body = exchange(node, post(b"/campaigns/%d/solve" % cid, b""))
    if status != 200:
        raise RuntimeError(f"solve got {status}: {body!r}")
    snapshot_get = b"GET /campaigns/%d/snapshot HTTP/1.1\r\nConnection: close\r\n\r\n" % cid
    status, body = exchange(node, snapshot_get)
    if status != 200:
        raise RuntimeError(f"snapshot got {status}: {body!r}")
    snapshot = json.loads(body)
    for campaign in snapshot["campaigns"]:
        problem = campaign["spec"]["Deadline"]["problem"]
        problem["interval_arrivals"] = [1e300] * len(problem["interval_arrivals"])
    return json.dumps(snapshot).encode()


def trickle(addr, stop):
    """Dribble a never-ending request head, one byte per second."""
    try:
        with socket.create_connection(endpoint(addr), timeout=5) as sock:
            prefix = b"GET /healthz HTTP/1.1\r\nX-Slow: "
            sent = 0
            while not stop.is_set():
                byte = prefix[sent : sent + 1] or b"a"
                sock.sendall(byte)
                sent += 1
                stop.wait(1.0)
    except OSError:
        pass  # reaped or refused: either way it held no worker


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    targets = {"node": sys.argv[1], "router": sys.argv[2]}
    failures = []

    for name, payload in HOSTILE:
        for tier, addr in targets.items():
            try:
                status = status_of(addr, payload, timeout=10)
            except (OSError, RuntimeError) as e:
                failures.append(f"{tier}: {name}: {e}")
                continue
            verdict = "ok" if 400 <= status < 500 else "FAIL"
            print(f"{tier:6} {name:32} -> {status} {verdict}")
            if verdict != "ok":
                failures.append(f"{tier}: {name}: got {status}, want a 4xx")

    name = "poisoned snapshot to /campaigns/restore"
    try:
        restore = post(b"/campaigns/restore", poisoned_snapshot(targets["node"]))
        status = status_of(targets["node"], restore, timeout=10)
    except (OSError, RuntimeError, ValueError, KeyError) as e:
        failures.append(f"node: {name}: {e}")
    else:
        verdict = "ok" if 400 <= status < 500 else "FAIL"
        print(f"{'node':6} {name:32} -> {status} {verdict}")
        if verdict != "ok":
            failures.append(f"node: {name}: got {status}, want a 4xx")

    stop = threading.Event()
    tricklers = [
        threading.Thread(target=trickle, args=(targets["router"], stop))
        for _ in range(TRICKLERS)
    ]
    for t in tricklers:
        t.start()
    time.sleep(3)  # every trickler connected and a few bytes in
    started = time.monotonic()
    try:
        status = status_of(targets["router"], HEALTHZ, timeout=2)
        elapsed_ms = (time.monotonic() - started) * 1000
        print(f"router /healthz behind {TRICKLERS} tricklers -> {status} in {elapsed_ms:.0f} ms")
        if status != 200:
            failures.append(f"router: /healthz behind tricklers got {status}")
    except (OSError, RuntimeError) as e:
        failures.append(f"router: /healthz behind {TRICKLERS} tricklers: {e}")
    stop.set()
    for t in tricklers:
        t.join()

    for tier, addr in targets.items():
        try:
            status = status_of(addr, HEALTHZ, timeout=5)
        except (OSError, RuntimeError) as e:
            failures.append(f"{tier}: final /healthz: {e}")
            continue
        print(f"{tier:6} final /healthz -> {status}")
        if status != 200:
            failures.append(f"{tier}: final /healthz got {status}")

    if failures:
        for failure in failures:
            print(f"FAIL {failure}", file=sys.stderr)
        sys.exit(1)
    print("hostile input OK")


if __name__ == "__main__":
    main()
