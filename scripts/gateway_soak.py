#!/usr/bin/env python3
"""Gateway e2e soak: launch `cgnp serve --listen`, hammer it with
concurrent mixed-traffic clients, drain, and assert a clean exit.

What it proves, end to end over real TCP:

* every well-formed request a client sends gets exactly one response
  with its id echoed back — across >= --clients concurrent connections
  sending interleaved good, bad, and oversized lines — and arrives
  **in the order the connection sent its lines**, error lines included;
* malformed lines are answered with typed `bad_request` errors and do
  not disturb neighbouring requests on the same connection;
* a mutation client interleaving live updates (`add_edge` /
  `add_node` / `update_support` control frames) with queries gets every
  frame acknowledged — an `add_edge` and a query pipelined behind the
  `add_node` that creates their node included — sees its graph epochs
  advance monotonically, and never disturbs the clients beside it;
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
    malformed and oversized lines, responses checked by echoed id (0 for
    a line no id can be recovered from), in send order."""
    try:
        with socket.create_connection(addr, timeout=30) as sock:
            sock.settimeout(60)
            rfile = sock.makefile("r", encoding="utf-8")
            sent_ids = []
            for i in range(n_requests):
                rid = client_id * 100_000 + i
                node = (client_id * 7 + i * 13) % n_nodes
                lines = []
                if i % 7 == 3:
                    lines.append("this is not json\n")
                    sent_ids.append(0)
                if i % 11 == 5:
                    lines.append("x" * (80 * 1024) + "\n")  # oversized frame
                    sent_ids.append(0)
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
                    drain_responses(rfile, result, sent_ids, client_id)
                    sent_ids = []
            drain_responses(rfile, result, sent_ids, client_id)
    except Exception as e:  # noqa: BLE001 - report, don't crash the soak
        result["errors"].append(f"client {client_id}: {type(e).__name__}: {e}")


def run_mutator(addr, n_updates, n_nodes, result):
    """One mutation client: live-update control frames interleaved with
    queries on the same connection. Every frame must be acknowledged,
    in send order, and the epochs stamped on its responses must never go
    backwards — an update is applied before anything admitted after it
    is scored. Every fifth round pipelines `add_node`, `add_edge` onto
    the id it will get (nobody else adds nodes: `n_nodes` plus those
    added so far) and a query on it, in one write."""
    try:
        with socket.create_connection(addr, timeout=30) as sock:
            sock.settimeout(60)
            rfile = sock.makefile("r", encoding="utf-8")
            last_epoch = -1
            added = 0
            for i in range(n_updates):
                uid = 900_000 + 3 * i
                qid = uid + 2
                query = {"id": qid, "nodes": [(i * 3) % n_nodes]}
                if i % 5 == 4:
                    new = n_nodes + added
                    added += 1
                    frames = [
                        {"id": uid, "op": "add_node", "attrs": []},
                        {"id": uid + 1, "op": "add_edge", "u": i % n_nodes, "v": new},
                    ]
                    query = {"id": qid, "nodes": [new], "top_k": 3}
                elif i % 3 == 2:
                    q = (i * 5) % n_nodes
                    frames = [{
                        "id": uid,
                        "op": "update_support",
                        "add": {
                            "query": q,
                            "pos": [(q + 1) % n_nodes],
                            "neg": [(q + 2) % n_nodes],
                        },
                    }]
                else:
                    u = (i * 17) % n_nodes
                    frames = [{
                        "id": uid,
                        "op": "add_edge",
                        "u": u,
                        "v": (u + 1 + (i * 29) % (n_nodes - 1)) % n_nodes,
                    }]
                result["mut_sent"] += len(frames)
                frames.append(query)
                sock.sendall("".join(json.dumps(f) + "\n" for f in frames).encode())
                for sent in frames:
                    line = rfile.readline()
                    if not line:
                        result["errors"].append(
                            f"mutator: connection closed at update {i}"
                        )
                        return
                    r = json.loads(line)
                    if r["id"] != sent["id"]:
                        result["errors"].append(
                            f"mutator: sent {sent['id']}, next response is {r}"
                        )
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
                    result["ok" if r["id"] == qid else "mut_ok"] += 1
    except Exception as e:  # noqa: BLE001 - report, don't crash the soak
        result["errors"].append(f"mutator: {type(e).__name__}: {e}")


def drain_responses(rfile, result, sent_ids, client_id):
    """Reads one response per outstanding line — `sent_ids` in send
    order, 0 for a malformed line — and checks the contract."""
    for k, sent in enumerate(sent_ids):
        line = rfile.readline()
        if not line:
            result["errors"].append(
                f"client {client_id}: connection closed with "
                f"{len(sent_ids) - k} responses outstanding"
            )
            return
        r = json.loads(line)
        if r["id"] != sent:
            result["errors"].append(
                f"client {client_id}: sent {sent}, next response is {r}"
            )
        if r["ok"]:
            result["ok"] += 1
            if not r["members"]:
                result["errors"].append(f"client {client_id}: empty members: {r}")
        else:
            result["bad"] += 1
            if r.get("code") not in {"bad_request", "timeout", "overloaded"}:
                result["errors"].append(f"client {client_id}: untyped error: {r}")


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

    result = {"ok": 0, "bad": 0, "mut_ok": 0, "mut_sent": 0, "errors": []}
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
        if result["mut_ok"] != result["mut_sent"]:
            failures.append(
                f"dropped update acks: got {result['mut_ok']} of {result['mut_sent']}"
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
