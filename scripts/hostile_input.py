#!/usr/bin/env python3
"""Hostile-input check against a live ft-server node and ft-router.

    python3 scripts/hostile_input.py NODE_HOST:PORT ROUTER_HOST:PORT

Start one `ft-server` and one `ft-router` in front of it (both with
their default sizing), then run this. It checks that:

- a bad request line, a 20 KB header block, `Content-Length: abc`,
  `Content-Length: 99999999999`, and 1 MB of `[` posted to
  `/campaigns/quotes` each get a 4xx from the node and from the router;
- with 16 connections trickling one byte per second, the router still
  answers `GET /healthz` within 2 s;
- both still answer `GET /healthz` with 200 at the end.

Exits non-zero with a message on the first failed check.
"""

import socket
import sys
import threading
import time

NESTED = b"[" * (1 << 20)

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
    (
        "1 MB of [ to /campaigns/quotes",
        b"POST /campaigns/quotes HTTP/1.1\r\nContent-Type: application/json\r\n"
        b"Content-Length: %d\r\nConnection: close\r\n\r\n" % len(NESTED)
        + NESTED,
    ),
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
