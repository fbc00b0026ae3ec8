#!/usr/bin/env python3
"""Run one workload of the DARCO benchmark and print its result line.

    python3 perfbench/run.py --workload hot|cold|sweep --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The script builds the load generator
(perfbench/gen.ml) with dune, starts it in a fresh process group, samples
the resident memory of its whole process tree (fork workers and the
campaign daemon included) while it runs, and prints the generator's
result line with `peak_rss_mb` added when --trace is 0.  Everything it
writes stays under perfbench/_out; every process it starts is gone when
it exits.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
GEN = os.path.join(ROOT, "_build", "default", "perfbench", "gen.exe")
WORKLOADS = ("hot", "cold", "sweep")
# the run must end within 180 s; leave room for the set-up and the service
# phase that follow the measuring loop
DEADLINE_S = 170.0


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def read(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return None


def ppid(pid):
    stat = read("/proc/%d/stat" % pid)
    if stat is None:
        return None
    # the command name may hold spaces; fields resume after the last ')'
    return int(stat.rsplit(")", 1)[1].split()[1])


def tree(root, parent):
    """Live pids of root and all its descendants.  [parent] caches each
    pid's parent across calls, so a scan reads /proc/PID/stat only for
    processes it has not seen before."""
    live = {int(n) for n in os.listdir("/proc") if n.isdigit()}
    for pid in list(parent):
        if pid not in live:
            del parent[pid]
    for pid in live - parent.keys():
        p = ppid(pid)
        if p is not None:
            parent[pid] = p
    pids, grew = {root}, True
    while grew:
        grew = False
        for pid, p in parent.items():
            if p in pids and pid not in pids:
                pids.add(pid)
                grew = True
    return pids


def resident_kb(pid):
    """PSS where readable (shared copy-on-write pages count once across
    the tree), VmRSS otherwise - the yardstick of Darco_util.Rss."""
    for path, key in (("smaps_rollup", "Pss:"), ("status", "VmRSS:")):
        text = read("/proc/%d/%s" % (pid, path))
        if text:
            for line in text.splitlines():
                if line.startswith(key):
                    return int(line.split()[1])
    return 0


class TreeSampler(threading.Thread):
    def __init__(self, pid):
        super().__init__(daemon=True)
        self.pid, self.peak_kb = pid, 0
        self.stop = threading.Event()

    def run(self):
        parent = {}
        while not self.stop.is_set():
            try:
                kb = sum(resident_kb(p) for p in tree(self.pid, parent))
                self.peak_kb = max(self.peak_kb, kb)
            except (OSError, ValueError, IndexError):
                pass
            self.stop.wait(0.02)


def group_alive(pgid):
    for name in os.listdir("/proc"):
        if name.isdigit():
            stat = read("/proc/%s/stat" % name)
            if stat and int(stat.rsplit(")", 1)[1].split()[3]) == pgid:
                return True
    return False


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        if not group_alive(pgid):
            return
        time.sleep(0.01)


def build():
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at %s: run from the root of a DARCO checkout" % ROOT)
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/gen.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not os.path.exists(GEN):
        fail("building the load generator failed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    build()
    os.makedirs(OUT, exist_ok=True)
    tmp = os.path.join(OUT, "tmp-%d" % os.getpid())
    os.makedirs(tmp)
    env = dict(os.environ, TMPDIR=tmp)
    cmd = [GEN, args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    sampler = TreeSampler(proc.pid)
    sampler.start()
    try:
        out, _ = proc.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.wait()
        fail("generator exceeded %.0f s" % DEADLINE_S)
    finally:
        sampler.stop.set()
        sampler.join()
        kill_group(proc.pid)
        shutil.rmtree(tmp, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode != 0:
        fail("generator exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("generator printed no result line")
    if args.trace == 0:
        result["metrics"]["peak_rss_mb"] = {
            "value": sampler.peak_kb / 1024.0, "unit": "MB"}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
