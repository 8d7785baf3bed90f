"""The serve_mixed workload: an open-loop generator for isamore_serve.

One process drives one daemon over one stdin/stdout pipe pair: a writer
thread sends each request at its scheduled due time, and a reader thread
timestamps every response line as it arrives.  Latency runs from the due
time, so a stall in the daemon also charges the requests queued behind
it; how late the writer itself ran is reported as gen.late_ms_max.  The
open loop takes the first part of the run; closed-loop passes of
thread-pinned requests fill the rest and give the gated analysis times.
"""

import json
import math
import os
import statistics
import subprocess
import threading
import time

import harness

DAEMON_ARGS = ("--lanes", "2", "--threads", "4", "--quiet")
SETUP_REPS = 5
# The open loop's share of --seconds; the pinned passes get the rest.
OPEN_LOOP_SHARE = 0.5
# Set-up, the last pinned pass and the drain of the queue must end this
# long after the measured --seconds; a daemon that stops answering then
# fails the run's checks instead of hanging it.
RUN_MARGIN_S = 90.0
EXIT_TIMEOUT_S = 10.0
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class Daemon:
    """A running isamore_serve with a reader thread on its stdout."""

    def __init__(self, binary, stderr_file, deadline):
        self.deadline = deadline  # time.monotonic() value
        self.proc = subprocess.Popen([binary, *DAEMON_ARGS],
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     stderr=stderr_file)
        self.cond = threading.Condition()
        self.received = []  # (monotonic arrival time, parsed response)
        self.arrived = {}  # JSON of an id -> arrival of its first response
        self.eof = False
        self.reader = threading.Thread(target=self._read)
        self.reader.start()

    def _read(self):
        for raw in self.proc.stdout:
            arrived = time.monotonic()
            try:
                response = json.loads(raw)
            except ValueError:
                response = {"unparsed": raw.decode(errors="replace")}
            with self.cond:
                self.received.append((arrived, response))
                self.arrived.setdefault(json.dumps(response.get("id")),
                                        arrived)
                self.cond.notify_all()
        with self.cond:
            self.eof = True
            self.cond.notify_all()

    def send(self, request):
        try:
            self.proc.stdin.write((json.dumps(request) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass  # the daemon died; its missing responses fail the checks

    def wait_for(self, ids):
        """Block until a response echoing every id in `ids` arrived (or
        EOF, or the run deadline); returns whether all did."""
        wanted = {json.dumps(i) for i in ids}
        with self.cond:
            while not wanted <= self.arrived.keys() and not self.eof:
                remaining = self.deadline - time.monotonic()
                if remaining <= 0:
                    break
                self.cond.wait(remaining)
            return wanted <= self.arrived.keys()

    def arrival(self, request_id):
        """When the first response echoing `request_id` arrived."""
        with self.cond:
            return self.arrived[json.dumps(request_id)]

    def responses(self):
        with self.cond:
            return list(self.received)

    def cpu_ticks(self):
        """Clock ticks of CPU time the daemon's threads have used so far
        (utime + stime; the kernel leaves time stolen by the hypervisor
        out)."""
        with open(f"/proc/{self.proc.pid}/stat") as stat:
            # Fields after the parenthesised command name; utime and
            # stime are the 14th and 15th fields of the whole line.
            fields = stat.read().rsplit(")", 1)[1].split()
        return int(fields[11]) + int(fields[12])

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def close(self):
        """Close stdin, wait for a clean exit; returns the exit code
        (killing the daemon if it does not exit in time)."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            code = self.proc.wait(timeout=EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.reader.join()
        self.proc.stdout.close()
        return code


def start_primed(binary, stderr_file, kernels, deadline):
    """Spawn a daemon, wait for its first ping reply and fill its response
    cache with one analysis per kernel; returns it with the set-up time."""
    start = time.monotonic()
    daemon = Daemon(binary, stderr_file, deadline)
    daemon.send({"op": "ping", "id": "ping"})
    daemon.wait_for(["ping"])
    ids = [f"prime:{k}" for k in kernels]
    for k, i in zip(kernels, ids):
        daemon.send({"id": i, "workload": k})
    daemon.wait_for(ids)
    return daemon, time.monotonic() - start


def open_loop(daemon, schedule):
    """Send `schedule` at its due times; returns the schedule's start time
    and each request's actual send time."""
    sent = [0.0] * len(schedule)
    start = time.monotonic() + 0.05

    def writer():
        for r in schedule:
            delay = start + r.due_s - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            request = {"id": r.index, "workload": r.kernel}
            if not r.cached:
                request["cache"] = False
            daemon.send(request)
            sent[r.index] = time.monotonic()

    thread = threading.Thread(target=writer)
    thread.start()
    thread.join()
    daemon.wait_for([r.index for r in schedule])
    return start, sent


def pinned_passes(daemon, orders, budget_s):
    """Closed-loop passes, one per kernel order, each first with the pool
    pinned to 1 thread and then to 4 ("threads" requests bypass the
    cache).  The first pass always runs; a later one starts only while it
    is expected to end within `budget_s`.  Each request is timed on the
    client, from just before it is sent to the arrival of its response,
    so the daemon's parsing, dispatch and response writing count too.
    The daemon's CPU time is read around each pass as well.  Returns
    {request id: kernel} of every request sent, and {threads: summed
    seconds of each completed pass} of wall time and of daemon CPU time."""
    sent = {}
    sums = {1: [], 4: []}
    cpu_sums = {1: [], 4: []}
    start = time.monotonic()
    for p, order in enumerate(orders):
        if p > 0 and (time.monotonic() - start) * (p + 1) / p > budget_s:
            break
        for threads in (1, 4):
            total = 0.0
            ticks_before = daemon.cpu_ticks()
            for k in order:
                i = f"p{p}t{threads}:{k}"
                sent[i] = k
                before = time.monotonic()
                daemon.send({"id": i, "workload": k, "threads": threads})
                if not daemon.wait_for([i]):
                    return sent, sums, cpu_sums
                total += daemon.arrival(i) - before
            sums[threads].append(total)
            cpu_sums[threads].append(
                (daemon.cpu_ticks() - ticks_before) / CLOCK_TICKS)
    return sent, sums, cpu_sums


def check_responses(expected, responses):
    """Match responses to requests.  `expected` maps each request id to its
    kernel (None for a ping).  Returns (failed ids, first result document
    per kernel, problems): a request fails unless exactly one response
    echoes its id with status ok and a result equal to every other result
    for the same kernel in this daemon's life (see harness.same_result)."""
    by_id = {}
    problems = []
    for _, r in responses:
        key = r.get("id")
        if key not in expected:
            problems.append(f"response with unexpected id: {str(r)[:200]}")
            continue
        by_id.setdefault(key, []).append(r)
    reference = {}
    failed = set()
    for key, kernel in expected.items():
        got = by_id.get(key, [])
        if len(got) != 1:
            failed.add(key)
            problems.append(f"request {key!r}: {len(got)} responses")
            continue
        r = got[0]
        if r.get("status") != "ok" or (kernel and "result" not in r):
            failed.add(key)
            problems.append(f"request {key!r}: status {r.get('status')} "
                            f"{r.get('error', '')}")
            continue
        if not kernel:
            continue
        first = reference.setdefault(kernel, r["result"])
        if not harness.same_result(first, r["result"]):
            failed.add(key)
            problems.append(f"request {key!r}: {kernel} result differs "
                            "from this run's other results")
    return failed, reference, problems


def run(binary, stderr_path, seed, seconds):
    """The serve_mixed workload.  Returns a dict with the end-to-end and
    server metrics, the reference result document per kernel, the
    attempted/failed counts and any problems found."""
    kernels = list(harness.SMALL_KERNELS)
    open_s = seconds * OPEN_LOOP_SHARE
    schedule = harness.serve_schedule(seed, open_s)
    orders = harness.kernel_orders(seed, kernels, harness.MAX_PASSES)
    setup = []
    deadline = time.monotonic() + seconds + RUN_MARGIN_S
    with open(stderr_path, "ab") as stderr_file:
        for rep in range(SETUP_REPS):
            daemon, setup_s = start_primed(binary, stderr_file, kernels,
                                           deadline)
            setup.append(setup_s)
            if rep + 1 < SETUP_REPS:
                daemon.close()
        try:
            start, sent = open_loop(daemon, schedule)
            pinned_ids, pinned, pinned_cpu = pinned_passes(
                daemon, orders, seconds - open_s)
            rss_mb = daemon.peak_rss_mb()
        finally:
            exit_code = daemon.close()

    responses = daemon.responses()
    expected = {"ping": None}
    expected.update({f"prime:{k}": k for k in kernels})
    expected.update({r.index: r.kernel for r in schedule})
    expected.update(pinned_ids)
    failed, reference, problems = check_responses(expected, responses)
    if exit_code != 0:
        problems.append(f"daemon exited with code {exit_code}")

    arrival = {r.get("id"): (t, r) for t, r in responses}
    uncached, cached, queue_wait, service, late = [], [], [], [], []
    good = hits = shed = 0
    for req in schedule:
        late.append((sent[req.index] - (start + req.due_s)) * 1e3)
        if req.index not in arrival:
            continue
        t, r = arrival[req.index]
        latency_ms = (t - (start + req.due_s)) * 1e3
        (cached if req.cached else uncached).append(latency_ms)
        queue_wait.append(latency_ms - r.get("elapsedMs", 0.0))
        if not req.cached:
            service.append(r.get("elapsedMs", 0.0))
        hits += bool(r.get("cached"))
        shed += r.get("status") == "overloaded"
        good += (req.index not in failed and
                 latency_ms <= harness.GOODPUT_LIMIT_MS)
    return {
        "setup_s": statistics.median(setup),
        "pass_s": {t: v or [math.nan] for t, v in pinned.items()},
        "pass_cpu_s": {t: v or [math.nan] for t, v in pinned_cpu.items()},
        "pinned_passes": len(pinned[4]),
        "peak_rss_mb": rss_mb,
        "uncached_ms": uncached,
        "cached_ms": cached,
        "open_loop_s": open_s,
        "goodput_rps": good / open_s,
        "server.service_ms": service,
        "server.queue_wait_ms": queue_wait,
        "server.cache_hit_ratio": hits / max(1, len(schedule)),
        "server.shed": shed,
        "gen.late_ms_max": max(late, default=0.0),
        "reference": reference,
        "attempted": len(expected),
        "failed": len(failed) + (exit_code != 0),
        "problems": problems,
    }
