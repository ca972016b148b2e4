#!/usr/bin/env python3
"""Coordinator chaos smoke: crash + stall workers, demand byte-identical reports.

Drives `ffaudit serve` with coordinator-spawned worker processes under
injected faults and checks the fault-tolerance acceptance bar end to end:

1. single-process reference: `ffaudit run` (canonical report + artifacts);
2. for each worker count in {1, 2, 4}: `ffaudit serve --spawn-workers N`
   where worker 0 is SIGKILLed mid-shard (`kill-after-units=3`, leaving a
   torn record tail for the replacement to salvage) and worker 1 — when
   there is one — stalls far past its lease (`delay-lease-ms=4000`, forcing
   an expiry and a re-issue);
3. every serve run must exit 0 within KILL_SERVE_MAX_S, report
   byte-identical to step 1, artifacts byte-identical to step 1, and its
   summary line must prove the faults actually fired (a worker was lost and
   a replacement spawned).  These runs set a 60 s session grace window, so
   a SIGKILLed worker's lease that gets parked instead of re-issued shows
   up as a serve that blows the time bound;
4. poison-unit quarantine (also a kill scenario, with the same grace window
   and time bound): two workers under hostile-trial faults — one
   spins forever after its first checkpoint (heartbeats keep flowing, only
   the wall-clock watchdog catches it, exit 113) and one allocates without
   bound (caught by RLIMIT_AS, exit 114) — with `--max-failures 1`, so each
   death permanently fails its shard.  serve must quarantine the blamed
   units, finish the audit, exit 9, name the quarantined units, and still
   produce a report byte-identical to step 1 (the blamed units are benign:
   the faults lived in the workers, not the trials).

With --net the scenario changes to network chaos: the coordinator listens
on TCP (127.0.0.1, kernel-assigned port) and interposes the deterministic
frame-fault proxy (`--net-fault`) between itself and its spawned workers —
periodic frame drops, per-frame delay, duplication, one corrupted frame
and one timed partition with heal — at the same worker counts, with the
same byte-identical acceptance bar; severed connections must come back as
session *resumes*, not lease expirations.

Usage:  python3 scripts/coord_chaos.py --ffaudit build/ffaudit [--net]
Exits non-zero on the first violated expectation.
"""

import argparse
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

JOB_FLAGS = [
    "--workload", "gemm",
    "--passes", "table2",
    "--trials", "10",
    "--size-max", "6",
    "--max-transitions", "2000",
]

WORKER_COUNTS = [1, 2, 4]

# The kill scenarios run with a 60 s session grace window: a dead worker's
# lease must go back to the queue when its process is reaped, so any serve
# slower than this waited out a grace window it should never have opened.
KILL_SESSION_GRACE_MS = 60000
KILL_SERVE_MAX_S = 30


def fail(message: str) -> None:
    print(f"coord_chaos: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run(cmd, expect_rc=0, timeout=600, max_seconds=None) -> str:
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    elapsed = time.monotonic() - start
    print(f"$ {' '.join(str(c) for c in cmd)}  ({elapsed:.1f} s)")
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != expect_rc:
        fail(f"expected exit {expect_rc}, got {proc.returncode}")
    if max_seconds is not None and elapsed > max_seconds:
        fail(f"took {elapsed:.1f} s, over the {max_seconds} s bound")
    return proc.stdout + proc.stderr


def dir_bytes(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())} if path.exists() else {}


def summary_counts(output: str) -> dict:
    """Parses the `served N shard(s): ...` summary into named counters."""
    m = re.search(
        r"served (\d+) shard\(s\): (\d+) lease\(s\), (\d+) expiration\(s\), "
        r"(\d+) requeue\(s\), (\d+) duplicate completion\(s\) "
        r"\((\d+) byte-verified\), (\d+) worker\(s\) seen, (\d+) lost, (\d+) spawned, "
        r"(\d+) quarantined unit\(s\), (\d+) split shard\(s\), "
        r"(\d+) session\(s\) parked, (\d+) resumed, (\d+) grace-expired",
        output)
    if not m:
        fail("serve printed no summary line")
    keys = ("shards", "leases", "expirations", "requeues", "duplicates",
            "verified", "seen", "lost", "spawned", "quarantined", "split",
            "parked", "resumed", "grace_expired")
    return dict(zip(keys, (int(g) for g in m.groups())))


def net_counts(output: str) -> dict:
    """Parses the `net faults: ...` proxy summary into named counters."""
    m = re.search(
        r"net faults: (\d+) frame\(s\) forwarded, (\d+) dropped, (\d+) duplicated, "
        r"(\d+) corrupted, (\d+) partition\(s\)",
        output)
    if not m:
        fail("serve printed no net-faults summary line")
    keys = ("forwarded", "dropped", "duplicated", "corrupted", "partitions")
    return dict(zip(keys, (int(g) for g in m.groups())))


def net_chaos(ffaudit: str, root: Path, ref_report: Path, ref_artifacts: dict) -> None:
    """--net mode: a TCP coordinator behind the deterministic frame proxy.

    Every network fault class at once — periodic frame loss, per-frame
    delay, duplication, one corrupted frame (the receiver's CRC must turn
    it into a clean disconnect) and one timed partition with heal — at
    worker counts {1, 2, 4}.  Each run must exit 0, prove via the summary
    that the faults fired and that broken connections were resumed (not
    expired), and produce a report and artifacts byte-identical to the
    single-process reference.
    """
    for n in WORKER_COUNTS:
        report = root / f"report-net{n}.json"
        art = root / f"art-net{n}"
        cmd = [ffaudit, "serve", *JOB_FLAGS,
               "--shards", "4",
               "--checkpoint-interval", "2",
               "--records-dir", root / f"records-net{n}",
               "--artifact-dir", art,
               "--out", report,
               "--spawn-workers", str(n),
               "--listen", "127.0.0.1:0",
               "--net-fault", ("drop-frame-every-n=7,delay-frame-ms=5,"
                               "duplicate-frame=9,corrupt-frame-byte=15,"
                               "partition-after-units=3,heal-ms=1500"),
               # Leases stay alive through the partition via the grace
               # window; dropped replies re-request fast.
               "--lease-ms", "3000",
               "--heartbeat-ms", "300",
               "--session-grace-ms", "8000",
               "--worker-reply-timeout-ms", "2000",
               "--linger-ms", "8000"]
        out = run(cmd, timeout=900)

        counts = summary_counts(out)
        net = net_counts(out)
        if counts["shards"] != 4:
            fail(f"net n={n}: merged {counts['shards']} shards, wanted 4")
        if net["dropped"] < 1 or net["duplicated"] < 1:
            fail(f"net n={n}: proxy dropped {net['dropped']}, duplicated "
                 f"{net['duplicated']} — the frame faults never fired")
        if net["corrupted"] != 1:
            fail(f"net n={n}: {net['corrupted']} corrupted frame(s), wanted exactly 1")
        if net["partitions"] != 1:
            fail(f"net n={n}: {net['partitions']} partition(s), wanted exactly 1")
        if counts["resumed"] < 1:
            fail(f"net n={n}: no session resumed — severed connections were "
                 "not spliced back onto their leases")

        if report.read_bytes() != ref_report.read_bytes():
            fail(f"net n={n}: report differs from the single-process report")
        if dir_bytes(art) != ref_artifacts:
            fail(f"net n={n}: reproducer artifacts differ from the single-process ones")
        print(f"coord_chaos: net n={n} byte-identical "
              f"({net['dropped']} dropped, {net['duplicated']} duplicated, "
              f"{net['corrupted']} corrupted, {net['partitions']} partition(s), "
              f"{counts['parked']} parked, {counts['resumed']} resumed)")

    print("coord_chaos: PASS (drop + delay + duplicate + corrupt + partition/heal "
          "over TCP at every worker count; reports byte-identical)")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--ffaudit", required=True, help="path to the ffaudit binary")
    parser.add_argument("--net", action="store_true",
                        help="network chaos instead: TCP transport through the "
                             "deterministic frame-fault proxy")
    args = parser.parse_args()
    ffaudit = args.ffaudit

    with tempfile.TemporaryDirectory(prefix="coord_chaos_") as tmp:
        root = Path(tmp)
        ref_report, ref_art = root / "report-single.json", root / "art-single"

        # 1. Single-process reference.
        run([ffaudit, "run", *JOB_FLAGS, "--out", ref_report, "--artifact-dir", ref_art])
        ref_artifacts = dir_bytes(ref_art)
        if not ref_artifacts:
            fail("reference run produced no reproducer artifacts — chaos job lost its teeth")

        if args.net:
            net_chaos(ffaudit, root, ref_report, ref_artifacts)
            return

        # 2. Coordinated runs under faults, at several worker counts.
        for n in WORKER_COUNTS:
            report = root / f"report-n{n}.json"
            art = root / f"art-n{n}"
            cmd = [ffaudit, "serve", *JOB_FLAGS,
                   "--shards", "4",
                   "--checkpoint-interval", "2",
                   "--records-dir", root / f"records-n{n}",
                   "--artifact-dir", art,
                   "--out", report,
                   "--spawn-workers", str(n),
                   # Tight leases so the stall visibly expires one.
                   "--lease-ms", "1500",
                   "--heartbeat-ms", "300",
                   "--linger-ms", "8000",
                   "--session-grace-ms", str(KILL_SESSION_GRACE_MS),
                   # Worker 0 dies by SIGKILL mid-shard, after its first
                   # durable checkpoint (interval 2, killed after 3 units).
                   "--worker-fault", "0=kill-after-units=3"]
            if n > 1:
                # Worker 1 stalls far past its lease before running.
                cmd += ["--worker-fault", "1=delay-lease-ms=4000"]
            out = run(cmd, max_seconds=KILL_SERVE_MAX_S)

            counts = summary_counts(out)
            if counts["shards"] != 4:
                fail(f"n={n}: merged {counts['shards']} shards, wanted 4")
            if counts["lost"] < 1:
                fail(f"n={n}: no worker was lost — the kill fault never fired")
            if counts["spawned"] <= n:
                fail(f"n={n}: {counts['spawned']} spawns for {n} workers — "
                     "the killed worker was never replaced")
            if n > 1 and counts["expirations"] < 1:
                fail(f"n={n}: no lease expired — the stall fault never fired")
            if n > 1 and counts["verified"] < 1:
                fail(f"n={n}: no duplicate byte-verified — the stalled zombie's "
                     "completion never reached the determinism check")
            if counts["quarantined"] != 0:
                fail(f"n={n}: {counts['quarantined']} unit(s) quarantined in a "
                     "scenario whose faults are all recoverable")

            # 3. The acceptance bar: bytes, not summaries.
            if report.read_bytes() != ref_report.read_bytes():
                fail(f"n={n}: coordinated report differs from the single-process report")
            if dir_bytes(art) != ref_artifacts:
                fail(f"n={n}: reproducer artifacts differ from the single-process ones")
            print(f"coord_chaos: n={n} byte-identical "
                  f"({counts['lost']} worker(s) lost, {counts['spawned']} spawned, "
                  f"{counts['expirations']} expiration(s), {counts['duplicates']} "
                  f"duplicate(s) byte-verified)")

        # 4. Poison-unit quarantine: a spinner (watchdog, exit 113) and a
        #    memory hog (RLIMIT_AS, exit 114), each permanently failing its
        #    shard at --max-failures 1.  The audit must still finish — with
        #    the blamed units quarantined, exit code 9, and a report that is
        #    byte-identical to the single-process one (the faults live in
        #    the workers, so every blamed unit is benign under re-run).
        report = root / "report-poison.json"
        art = root / "art-poison"
        out = run([ffaudit, "serve", *JOB_FLAGS,
                   "--shards", "4",
                   "--checkpoint-interval", "2",
                   "--records-dir", root / "records-poison",
                   "--artifact-dir", art,
                   "--out", report,
                   "--spawn-workers", "2",
                   "--lease-ms", "4000",
                   "--heartbeat-ms", "300",
                   "--linger-ms", "8000",
                   "--session-grace-ms", str(KILL_SESSION_GRACE_MS),
                   "--max-failures", "1",
                   "--worker-watchdog-ms", "600",
                   "--worker-rlimit-as", str(1 << 30),
                   "--worker-fault", "0=spin-after-units=1",
                   "--worker-fault", "1=hog-memory-after-units=1"],
                  expect_rc=9, max_seconds=KILL_SERVE_MAX_S)
        counts = summary_counts(out)
        if counts["quarantined"] < 1:
            fail("poison: nothing was quarantined — the poison faults never fired")
        if counts["split"] < 1:
            fail("poison: no shard remainder was split and re-issued")
        if counts["lost"] < 2:
            fail(f"poison: only {counts['lost']} worker(s) lost — expected both "
                 "the spinner (watchdog) and the hog (rlimit) to die")
        if "quarantined units:" not in out:
            fail("poison: summary does not name the quarantined units")
        if report.read_bytes() != ref_report.read_bytes():
            fail("poison: quarantined report differs from the single-process report")
        if dir_bytes(art) != ref_artifacts:
            fail("poison: reproducer artifacts differ from the single-process ones")
        print(f"coord_chaos: poison byte-identical ({counts['quarantined']} unit(s) "
              f"quarantined, {counts['split']} split shard(s), exit 9)")

    print("coord_chaos: PASS (crash + stall at every worker count; poison units "
          "quarantined; reports byte-identical)")


if __name__ == "__main__":
    main()
