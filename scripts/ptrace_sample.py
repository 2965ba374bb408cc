#!/usr/bin/env python3
"""Sample where a command's threads spend their CPU, without perf.

Runs COMMAND and, every INTERVAL seconds, stops each of its threads that
is running (state R in /proc) with ptrace, records its instruction
pointer and lets it go on. Sleeping threads are skipped, so the shares
are of busy CPU. When the command exits, the samples are symbolised with
addr2line, inline frames included, and three tables are printed:

- leaf functions: the innermost (possibly inlined) function of a sample;
- inclusive functions: every function in the inline chain of a sample,
  each counted once;
- source lines: the innermost frame's file and line.

Without debug info (a distribution's libc), addr2line names the nearest
preceding dynamic symbol, however far away it ends. A sample outside that
symbol's extent (`nm -D -S`) is reported as `<file+0xADDR>` instead.

Only x86-64 Linux is supported. Binaries need line tables for names and
lines (this workspace's release and bench profiles keep them).

Usage: scripts/ptrace_sample.py [--interval S] [--top N] -- COMMAND...
Example:
  scripts/ptrace_sample.py -- powerbench/target/release/powerbench \\
      --workload cluster_hier_halo_4096 --seconds 10
"""

import argparse
import collections
import ctypes
import os
import platform
import struct
import subprocess
import sys
import time

PTRACE_CONT = 7
PTRACE_GETREGS = 12
PTRACE_SEIZE = 0x4206
PTRACE_INTERRUPT = 0x4207
PTRACE_EVENT_STOP = 128
WALL = 0x40000000
# Index of rip in x86-64 `struct user_regs_struct` (27 u64 fields).
RIP = 16

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
libc.ptrace.restype = ctypes.c_long


def ptrace(req, tid, data=None):
    return libc.ptrace(req, tid, None, data) == 0


class Tracer:
    """Seizes the command's threads and samples the running ones."""

    def __init__(self, pid):
        self.pid = pid
        self.seized = set()
        self.exit_status = None
        self.maps = []
        self.rips = collections.Counter()  # (path, file offset) -> samples

    def handle(self, tid, status):
        """Handles one wait status; returns True for our interrupt stop."""
        if os.WIFEXITED(status) or os.WIFSIGNALED(status):
            self.seized.discard(tid)
            if tid == self.pid:
                self.exit_status = status
            return False
        if not os.WIFSTOPPED(status):
            return False
        if status >> 16 == PTRACE_EVENT_STOP:
            return True
        # A signal for the command: deliver it and carry on.
        ptrace(PTRACE_CONT, tid, os.WSTOPSIG(status))
        return False

    def drain(self):
        while True:
            try:
                tid, status = os.waitpid(-1, os.WNOHANG | WALL)
            except ChildProcessError:
                return
            if tid == 0:
                return
            if self.handle(tid, status):
                ptrace(PTRACE_CONT, tid, 0)

    def running(self):
        try:
            tids = os.listdir(f"/proc/{self.pid}/task")
        except FileNotFoundError:
            return []
        out = []
        for t in tids:
            try:
                with open(f"/proc/{self.pid}/task/{t}/stat") as f:
                    stat = f.read()
            except OSError:
                continue
            if stat[stat.rindex(")") + 2] == "R":
                out.append(int(t))
        return out

    def sample(self):
        for tid in self.running():
            if tid not in self.seized:
                if not ptrace(PTRACE_SEIZE, tid, 0):
                    continue
                self.seized.add(tid)
            if not ptrace(PTRACE_INTERRUPT, tid, 0):
                continue
            while True:
                try:
                    _, status = os.waitpid(tid, WALL)
                except ChildProcessError:
                    break
                if self.handle(tid, status):
                    regs = (ctypes.c_ulonglong * 27)()
                    if ptrace(PTRACE_GETREGS, tid, ctypes.addressof(regs)):
                        self.record(regs[RIP])
                    ptrace(PTRACE_CONT, tid, 0)
                    break
                if not os.WIFSTOPPED(status):
                    break

    def record(self, rip):
        hit = self.lookup(rip)
        if hit is None:
            self.read_maps()
            hit = self.lookup(rip)
        self.rips[hit or ("?", rip)] += 1

    def lookup(self, rip):
        for start, end, offset, path in self.maps:
            if start <= rip < end:
                return (path, rip - start + offset)
        return None

    def read_maps(self):
        self.maps = []
        try:
            with open(f"/proc/{self.pid}/maps") as f:
                for line in f:
                    parts = line.split()
                    if len(parts) < 6 or "x" not in parts[1]:
                        continue
                    start, end = (int(x, 16) for x in parts[0].split("-"))
                    self.maps.append((start, end, int(parts[2], 16), parts[5]))
        except OSError:
            pass


def load_segments(path):
    """PT_LOAD segments of an ELF64 file as (offset, filesz, vaddr)."""
    try:
        with open(path, "rb") as f:
            head = f.read(64)
            if head[:4] != b"\x7fELF" or head[4] != 2:
                return []
            phoff, = struct.unpack_from("<Q", head, 0x20)
            phentsize, phnum = struct.unpack_from("<HH", head, 0x36)
            f.seek(phoff)
            table = f.read(phentsize * phnum)
    except OSError:
        return []
    segs = []
    for i in range(phnum):
        p_type, _, off, vaddr, _, filesz = struct.unpack_from("<IIQQQQ", table, i * phentsize)
        if p_type == 1:
            segs.append((off, filesz, vaddr))
    return segs


def dynamic_extents(path):
    """Maps each sized dynamic symbol of an ELF file to its [(start, end)] address ranges."""
    out = subprocess.run(
        ["nm", "-D", "-S", "-C", "--defined-only", path],
        capture_output=True,
        text=True,
    ).stdout.splitlines()
    extents = collections.defaultdict(list)
    for line in out:
        parts = line.split(maxsplit=3)
        if len(parts) < 4:
            continue  # no size: absolute version nodes and the like
        start, size = int(parts[0], 16), int(parts[1], 16)
        extents[parts[3].split("@")[0]].append((start, start + size))
    return extents


def symbolise(path, offsets):
    """Maps each file offset to its inline chain [(function, line)], innermost first."""
    segs = load_segments(path)
    vaddr = {}
    for off in offsets:
        for s_off, s_size, s_vaddr in segs:
            if s_off <= off < s_off + s_size:
                vaddr[off] = off - s_off + s_vaddr
    chains = {off: [(os.path.basename(path), "??")] for off in offsets}
    if not vaddr:
        return chains
    by_addr = {}
    for off, va in vaddr.items():
        by_addr.setdefault(va, []).append(off)
    addrs = sorted(by_addr)
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", path],
        input="\n".join(f"{a:#x}" for a in addrs),
        capture_output=True,
        text=True,
    ).stdout.splitlines()
    cur, frames, i = None, [], 0
    results = {}
    while i < len(out):
        line = out[i]
        if line.startswith("0x"):
            if cur is not None:
                results[cur] = frames
            cur, frames = int(line, 16), []
            i += 1
            continue
        func = line
        loc = out[i + 1] if i + 1 < len(out) else "??:0"
        frames.append((func, loc.split(" (discriminator")[0]))
        i += 2
    if cur is not None:
        results[cur] = frames
    extents = None
    for va, offs in by_addr.items():
        frames = results.get(va) or []
        if not frames or frames[0][0] == "??":
            continue
        if len(frames) == 1 and frames[0][1].startswith("??"):
            # No line info: the name came from the symbol table. Keep it
            # only if the address lies inside one of that symbol's copies.
            if extents is None:
                extents = dynamic_extents(path)
            ranges = extents.get(frames[0][0])
            if ranges is not None and not any(a <= va < b for a, b in ranges):
                frames = [(f"<{os.path.basename(path)}+{va:#x}>", frames[0][1])]
        for off in offs:
            chains[off] = frames
    return chains


def table(title, counts, total, top):
    print(f"-- {title}")
    for name, n in counts.most_common(top):
        print(f"  {100.0 * n / total:5.1f}%  {name[:140]}")
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--interval", type=float, default=0.002, help="seconds between samples")
    ap.add_argument("--top", type=int, default=25, help="rows per table")
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cmd = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not cmd:
        ap.error("no command given")
    if platform.machine() != "x86_64":
        sys.exit("ptrace_sample.py: only x86-64 is supported")

    pid = os.posix_spawnp(cmd[0], cmd, os.environ)
    tracer = Tracer(pid)
    try:
        while tracer.exit_status is None:
            tracer.sample()
            tracer.drain()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        os.kill(pid, 9)
        raise

    total = sum(tracer.rips.values())
    print(f"== {total} samples of running threads, every {args.interval * 1e3:g} ms")
    if total == 0:
        return
    by_path = collections.defaultdict(list)
    for path, off in tracer.rips:
        by_path[path].append(off)
    chains = {}
    for path, offs in by_path.items():
        for off, chain in symbolise(path, offs).items():
            chains[(path, off)] = chain
    leaf, inclusive, lines = collections.Counter(), collections.Counter(), collections.Counter()
    for key, n in tracer.rips.items():
        chain = chains.get(key) or [("??", "??:0")]
        leaf[chain[0][0]] += n
        lines[chain[0][1]] += n
        for func in {f for f, _ in chain}:
            inclusive[func] += n
    table("leaf functions (innermost inline frame)", leaf, total, args.top)
    table("inclusive functions (anywhere in the inline chain)", inclusive, total, args.top)
    table("source lines (innermost frame)", lines, total, args.top)
    status = tracer.exit_status
    code = os.WEXITSTATUS(status) if os.WIFEXITED(status) else 128 + os.WTERMSIG(status)
    sys.exit(code)


if __name__ == "__main__":
    main()
