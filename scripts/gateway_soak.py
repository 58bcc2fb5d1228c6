#!/usr/bin/env python3
"""Gateway e2e soak: launch `cgnp serve --listen`, hammer it with
concurrent mixed-traffic clients, drain, and assert a clean exit.

What it proves, end to end over real TCP:

* every well-formed request a client sends gets exactly one response
  with its id echoed back — across >= --clients concurrent connections
  sending interleaved good, bad, and oversized lines;
* malformed lines are answered with typed `bad_request` errors and do
  not disturb neighbouring requests on the same connection;
* a mutation client interleaving live updates (`add_edge` /
  `update_support` control frames) with queries gets every frame
  acknowledged, sees its graph epochs advance monotonically, and never
  disturbs the query-only clients running beside it;
* a graceful drain (the "drain" control line on stdin) answers
  everything admitted, flushes, and the process exits 0;
* the end-of-run report on stderr carries the robustness counters
  (`accepted`, `shed`, `timed_out`, `panics_caught`,
  `drained_in_flight`) and the event loop's `polls` / `wakes` next to
  the serving latency summary.

A machine-readable summary is written to --summary for CI artifact
upload.

Usage:
    gateway_soak.py --binary target/release/cgnp \
        --checkpoint /tmp/smoke-model.json [--clients 4] \
        [--requests 50] [--summary gateway-soak-summary.json]
"""

import argparse
import json
import re
import socket
import subprocess
import sys
import threading
import time


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--binary", required=True, help="path to the cgnp binary")
    p.add_argument("--checkpoint", required=True, help="trained model checkpoint")
    p.add_argument("--clients", type=int, default=4)
    p.add_argument("--requests", type=int, default=50, help="per client")
    p.add_argument("--updates", type=int, default=30, help="mutation-client frames")
    p.add_argument("--summary", default=None, help="write a JSON summary here")
    p.add_argument("--timeout", type=float, default=120.0, help="overall deadline (s)")
    return p.parse_args()


def launch_server(args):
    """Starts the gateway on an ephemeral port; returns (proc, addr)."""
    proc = subprocess.Popen(
        [
            args.binary,
            "serve",
            "--checkpoint",
            args.checkpoint,
            "--dataset",
            "citeseer",
            "--scale",
            "smoke",
            "--batch",
            "4",
            "--listen",
            "127.0.0.1:0",
            "--request-timeout-ms",
            "30000",
            "--drain",
            "20000",
        ],
        stdin=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    # The bound address is printed to stderr ("gateway listening on ...").
    deadline = time.monotonic() + 60
    stderr_lines = []
    addr = None
    while time.monotonic() < deadline:
        line = proc.stderr.readline()
        if not line:
            break
        stderr_lines.append(line)
        m = re.search(r"gateway listening on (\S+)", line)
        if m:
            addr = m.group(1)
            break
    if addr is None:
        proc.kill()
        sys.exit("server never printed its listen address:\n" + "".join(stderr_lines))
    host, port = addr.rsplit(":", 1)
    return proc, (host, int(port))


def run_client(client_id, addr, n_requests, n_nodes, result):
    """One mixed-traffic client: well-formed requests interleaved with
    malformed and oversized lines, responses checked by echoed id."""
    try:
        with socket.create_connection(addr, timeout=30) as sock:
            sock.settimeout(60)
            rfile = sock.makefile("r", encoding="utf-8")
            sent_ids = []
            bad_sent = 0
            for i in range(n_requests):
                rid = client_id * 100_000 + i
                node = (client_id * 7 + i * 13) % n_nodes
                lines = []
                if i % 7 == 3:
                    lines.append("this is not json\n")
                    bad_sent += 1
                if i % 11 == 5:
                    lines.append("x" * (80 * 1024) + "\n")  # oversized frame
                    bad_sent += 1
                req = {"id": rid, "nodes": [node]}
                if i % 3 == 0:
                    req["top_k"] = 5
                if i % 5 == 0:
                    req["shots"] = 2
                lines.append(json.dumps(req) + "\n")
                sent_ids.append(rid)
                sock.sendall("".join(lines).encode())
                # Pipeline a little, then read back to keep buffers sane.
                if i % 4 == 3:
                    drain_responses(rfile, result, sent_ids, bad_sent, client_id)
                    sent_ids, bad_sent = [], 0
            drain_responses(rfile, result, sent_ids, bad_sent, client_id)
    except Exception as e:  # noqa: BLE001 - report, don't crash the soak
        result["errors"].append(f"client {client_id}: {type(e).__name__}: {e}")


def run_mutator(addr, n_updates, n_nodes, result):
    """One mutation client: live-update control frames interleaved with
    queries on the same connection. Every frame must be acknowledged,
    and the epochs stamped on its responses must never go backwards —
    an update is applied before anything admitted after it is scored."""
    try:
        with socket.create_connection(addr, timeout=30) as sock:
            sock.settimeout(60)
            rfile = sock.makefile("r", encoding="utf-8")
            last_epoch = -1
            for i in range(n_updates):
                uid = 900_000 + 2 * i
                qid = uid + 1
                if i % 3 == 2:
                    q = (i * 5) % n_nodes
                    frame = {
                        "id": uid,
                        "op": "update_support",
                        "add": {
                            "query": q,
                            "pos": [(q + 1) % n_nodes],
                            "neg": [(q + 2) % n_nodes],
                        },
                    }
                else:
                    u = (i * 17) % n_nodes
                    frame = {
                        "id": uid,
                        "op": "add_edge",
                        "u": u,
                        "v": (u + 1 + (i * 29) % (n_nodes - 1)) % n_nodes,
                    }
                query = {"id": qid, "nodes": [(i * 3) % n_nodes]}
                sock.sendall(
                    (json.dumps(frame) + "\n" + json.dumps(query) + "\n").encode()
                )
                for _ in range(2):
                    line = rfile.readline()
                    if not line:
                        result["errors"].append(
                            f"mutator: connection closed at update {i}"
                        )
                        return
                    r = json.loads(line)
                    if not r["ok"]:
                        result["errors"].append(f"mutator: frame rejected: {r}")
                        continue
                    epoch = r.get("epoch")
                    if epoch is None:
                        result["errors"].append(f"mutator: response without epoch: {r}")
                    elif epoch < last_epoch:
                        result["errors"].append(
                            f"mutator: epoch went backwards {last_epoch} -> {epoch}"
                        )
                    else:
                        last_epoch = epoch
                    result["mut_ok" if r["id"] == uid else "ok"] += 1
    except Exception as e:  # noqa: BLE001 - report, don't crash the soak
        result["errors"].append(f"mutator: {type(e).__name__}: {e}")


def drain_responses(rfile, result, sent_ids, bad_sent, client_id):
    """Reads one response per outstanding line and checks the contract."""
    expected = len(sent_ids) + bad_sent
    got_ids = set()
    for _ in range(expected):
        line = rfile.readline()
        if not line:
            result["errors"].append(
                f"client {client_id}: connection closed with "
                f"{expected - len(got_ids)} responses outstanding"
            )
            return
        r = json.loads(line)
        if r["ok"]:
            result["ok"] += 1
            if not r["members"]:
                result["errors"].append(f"client {client_id}: empty members: {r}")
            got_ids.add(r["id"])
        else:
            result["bad"] += 1
            if r.get("code") not in {"bad_request", "timeout", "overloaded"}:
                result["errors"].append(f"client {client_id}: untyped error: {r}")
            if r["id"] != 0:
                got_ids.add(r["id"])
    missing = set(sent_ids) - got_ids
    if missing:
        result["errors"].append(
            f"client {client_id}: no response for ids {sorted(missing)[:5]}..."
        )


def main():
    args = parse_args()
    proc, addr = launch_server(args)
    # Smoke-scale citeseer has a small node count; probe it with one
    # out-of-range request so client traffic stays in bounds.
    with socket.create_connection(addr, timeout=30) as sock:
        sock.sendall(b'{"id": 1, "nodes": [999999999]}\n')
        reply = json.loads(sock.makefile("r").readline())
        assert reply["ok"] is False and reply["code"] == "bad_request", reply
        m = re.search(r"(\d+) nodes", reply["error"])
        n_nodes = int(m.group(1)) if m else 64

    result = {"ok": 0, "bad": 0, "mut_ok": 0, "errors": []}
    threads = [
        threading.Thread(
            target=run_client, args=(c + 1, addr, args.requests, n_nodes, result)
        )
        for c in range(args.clients)
    ]
    if args.updates > 0:
        threads.append(
            threading.Thread(
                target=run_mutator, args=(addr, args.updates, n_nodes, result)
            )
        )
    t0 = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=args.timeout)
    elapsed = time.monotonic() - t0

    # Graceful drain via the stdin control channel; the server must exit 0.
    proc.stdin.write("drain\n")
    proc.stdin.flush()
    try:
        _, stderr_tail = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        sys.exit("server did not exit within 60s of drain")

    report = None
    for line in stderr_tail.splitlines():
        m = re.search(r"gateway report: (\{.*\})", line)
        if m:
            report = json.loads(m.group(1))
    failures = list(result["errors"])
    if proc.returncode != 0:
        failures.append(f"server exit code {proc.returncode}, want 0")
    if report is None:
        failures.append("no end-of-run gateway report on stderr")
    else:
        g = report["gateway"]
        for counter in ("accepted", "shed", "timed_out", "panics_caught",
                        "drained_in_flight", "polls", "wakes"):
            if counter not in g:
                failures.append(f"gateway report missing counter {counter!r}")
        want_ok = args.clients * args.requests + args.updates
        if result["ok"] != want_ok:
            failures.append(
                f"dropped well-formed responses: got {result['ok']} ok of {want_ok}"
            )
        if result["mut_ok"] != args.updates:
            failures.append(
                f"dropped update acks: got {result['mut_ok']} of {args.updates}"
            )
        if g.get("panics_caught", 0) != 0:
            failures.append(f"unexpected panics during soak: {g}")
        session = report.get("session") or {}
        if args.updates > 0 and not session.get("updates"):
            failures.append(f"session report shows no applied updates: {session}")

    summary = {
        "clients": args.clients,
        "requests_per_client": args.requests,
        "ok_responses": result["ok"],
        "update_acks": result["mut_ok"],
        "error_responses": result["bad"],
        "elapsed_seconds": round(elapsed, 3),
        "server_exit_code": proc.returncode,
        # How often the event loop's blocking wait returned, and how many
        # of those returns another thread's wake paid a byte for: the
        # trend to watch for a loop that has started to spin.
        "polls": (report or {}).get("gateway", {}).get("polls"),
        "wakes": (report or {}).get("gateway", {}).get("wakes"),
        "gateway_report": report,
        "failures": failures,
    }
    if args.summary:
        with open(args.summary, "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=2)
    print(json.dumps(summary, indent=2))
    if failures:
        sys.exit("gateway soak FAILED:\n  " + "\n  ".join(failures))
    print(
        f"gateway soak OK: {result['ok']} well-formed responses across "
        f"{args.clients} clients in {elapsed:.1f}s, clean drain, exit 0"
    )


if __name__ == "__main__":
    main()
