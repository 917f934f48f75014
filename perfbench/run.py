#!/usr/bin/env python3
"""Process-level benchmark of the shipped `boundedreg` CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds `boundedreg` (and, for a traced run, the in-process layer runner
in perfbench/layers) with dune into .bench_build, then measures one
workload. Load is a closed loop: one client, one child process at a time,
`--jobs 1`, the next child spawned only after the previous one exited.

--trace 0 times the CLI as a child process for S seconds and reports the
end-to-end metrics (trimmed means of the timed children, scaled to a
nominal machine speed by a yardstick timed around each child; see
perfbench/README.md). --trace 1 runs the
traced in-process runner (perfbench/layers/layers.ml) plus the traced-CLI
row, and reports the per-layer metrics. Either way every output is
checked, human-readable lines go first, and the last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

Workloads (see perfbench/README.md for why each was chosen):
  fleet_persist  fleet --frontier --seed S --generations 600 --corpus <fresh>
  fleet_resume   fleet --frontier --seed S+2 --generations 150 over an
                 untimed copy of the corpus fleet_persist writes for seed S
  e17_grid       run E17
  explore_raw    explore -k 6 --no-dedup --no-por
with S rotating over N, N+1000 and N+2000. The seed only reaches the
fleet workloads; E17's grid seeds and the explorer's input are fixed by
the program.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
WORK_DIR = os.path.join(BUILD_DIR, "perfbench-work")
BIN = os.path.join(BUILD_DIR, "default", "bin", "boundedreg.exe")
LAYERS = os.path.join(BUILD_DIR, "default", "perfbench", "layers", "layers.exe")

PERSIST_GENS = 600
RESUME_GENS = 150
RESUME_SEED_OFFSET = 2
FLEET_SEEDS = 3
SEED_STRIDE = 1000
EXPLORE_K = 6
SETUP_REPS = 9
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 200
MIN_SAMPLES = 3
TRACE_PAIRS = 3
# The timing metrics are scaled to a nominal machine speed: the time a
# yardstick() reading of YARD_NOMINAL_S seconds stands for.
YARD_ITERS = 700_000
YARD_NOMINAL_S = 0.08

# Published outputs the program must keep reproducing (the behaviour
# contract in ROADMAP.md and EXPERIMENTS.md).
EXPLORE_PIN = (
    "nodes=3919287 terminals=1660672 deduped=0 pruned=0 truncated=0 peak_depth=30",
    "digest=0xeccb114d",
)
E17_PIN_CELLS = [
    ["ok (0/500)", "ok (0/500)", "6/500 BAD", "95/500 BAD"],
    ["ok (0/500)", "ok (0/500)", "4/500 BAD", "19/500 BAD"],
    ["6/500 BAD", "6/500 BAD", "10/500 BAD", "81/500 BAD"],
]
E17_PIN_WITNESS = [214, 50, 35, 6]  # events, shrunk events, deliveries, churn actions


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------- children


class Child:
    """One finished child process: wall seconds, exit code, peak RSS (its
    own rusage from wait4, in MB) and its stdout."""

    def __init__(self, wall, code, rss_mb, out):
        self.wall, self.code, self.rss_mb, self.out = wall, code, rss_mb, out


def spawn(argv, tag):
    """Run argv in WORK_DIR with stdout to a file, time it from spawn to
    exit, and take its resource usage from its own wait4 record."""
    out_path = os.path.join(WORK_DIR, f"{tag}.out")
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, cwd=WORK_DIR, stdout=out, stderr=subprocess.DEVNULL)
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    return Child(wall, p.returncode, ru.ru_maxrss / 1024.0, text)


def cli(*args):
    return [os.path.abspath(BIN), *args]


def fresh_dir(name):
    path = os.path.abspath(os.path.join(WORK_DIR, name))
    shutil.rmtree(path, ignore_errors=True)
    return path


def copy_corpus(src, name):
    dst = fresh_dir(name)
    shutil.copytree(src, dst)
    return dst


def dir_digest(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


# ------------------------------------------------------------- statistics


def median(xs):
    return statistics.median(xs)


def yardstick():
    """Seconds this process takes for a fixed integer loop that shares no
    code with the program. The host this was tuned on drifts by +-20%
    over minutes with load outside the container; over a 4-minute
    fleet_persist recording, per-child times correlated 0.83 with the
    adjacent readings, and 25-second window means of the times scaled
    by them spread +-6% where the raw means spread +-19%."""
    t0 = time.perf_counter()
    x = 0
    for i in range(YARD_ITERS):
        x = (x * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - t0


def central(xs):
    """Mean of the middle 80% of the samples: the timed value a run
    reports. Child times on the 2-vCPU host this was tuned on are
    bimodal (a fast and a slow mode ~35% apart, set by load outside the
    container), so a median jumps between the modes as their mix
    shifts, while the trimmed mean moves in proportion to it. Over
    30-sample windows of explore_raw its quartile spread was 3-5%
    against 8-12% for the median."""
    s = sorted(xs)
    k = len(s) // 10
    return statistics.fmean(s[k:len(s) - k])


def tail(xs):
    """The highest percentile with at least ten samples beyond it (the
    median when there are fewer than twenty), as (percentile, value)."""
    n = len(xs)
    q = max(50, int(100 * (1 - 10 / n))) if n >= 20 else 50
    s = sorted(xs)
    return q, s[min(n - 1, int(q / 100 * n))]


def setup_times(cmd_of):
    """Repeat the no-work command at least SETUP_REPS times and for at
    least SETUP_MIN_S seconds (capped at SETUP_MAX_REPS): the median of
    many millisecond-long start-ups is steady where a few are not."""
    walls, failed = [], 0
    t0 = time.perf_counter()
    while len(walls) + failed < SETUP_REPS or (
            time.perf_counter() - t0 < SETUP_MIN_S and len(walls) + failed < SETUP_MAX_REPS):
        c = spawn(cmd_of(), "setup")
        if c.code == 0:
            walls.append(c.wall)
        else:
            failed += 1
    return walls, failed


# --------------------------------------------------------------- workloads


class Workload:
    """A timed CLI command with its reference output. `reference` runs it
    once, untimed, during set-up and records what every sample must
    reproduce; `sample` runs one timed child and checks it; `setup_cmd`
    is the same command asked for no work, timed for setup_s."""

    units = "runs"

    def __init__(self, seed):
        self.seed = seed
        self.counts = {}


def fleet_args(seed, gens, corpus):
    return cli("fleet", "--frontier", "--seed", str(seed), "--generations",
               str(gens), "--corpus", corpus, "--jobs", "1")


RUNS_RE = re.compile(r"(\d+) generation\(s\), (\d+) runs")


def fleet_counts(report, metrics_file):
    """Exact counts with their bases, from the report and --metrics."""
    c = {}
    m = re.search(r"cache: (\d+) hit\(s\) over (\d+) lookup\(s\)", report)
    c["cache hits / lookups"] = f"{m.group(1)} / {m.group(2)}"
    with open(metrics_file) as f:
        counters = json.load(f)["counters"]
    c["signals / runs"] = f"{counters['fleet.new_signals']} / {counters['fleet.runs']}"
    m = re.search(r"corpus: (\d+) plan\(s\) \((\d+) added\)", report)
    c["plans added / corpus"] = f"{m.group(2)} / {m.group(1)}"
    replays = [int(x) for x in re.findall(r"\((\d+) shrink replays", report)]
    c["shrink replays (kept witnesses)"] = sum(replays)
    return c


class Fleet(Workload):
    """Shared by the two fleet workloads: a campaign over a corpus
    directory, checked by its path-masked report, the corpus directory's
    bytes, and a bit-for-bit replay of every published witness.

    One run rotates its samples over FLEET_SEEDS campaign seeds derived
    from --seed (N, N+1000, ...). Seeds differ in how much shrinking their
    triage does (1,380 to 4,584 replays over seeds 31-35, ~6% of the wall
    time), so a run over one seed would carry that into the run-to-run
    spread."""

    def __init__(self, seed):
        super().__init__(seed)
        self.seeds = [seed + SEED_STRIDE * j for j in range(FLEET_SEEDS)]
        self.next = 0

    def run_into(self, j, corpus, tag, extra=()):
        return spawn(fleet_args(self.campaign_seed(j), self.gens, corpus) + list(extra), tag)

    def outputs(self, child, corpus):
        return (child.out.replace(corpus, "<corpus>"), dir_digest(corpus))

    def witnesses_replay(self, corpus):
        for name in sorted(os.listdir(corpus)):
            if name.startswith("witness-"):
                r = spawn(cli("fleet", "--replay", os.path.join(corpus, name)), "replay")
                if r.code != 0 or "bit-for-bit: reproduced" not in r.out:
                    return False
        return True

    def reference(self):
        self.ref = []
        for j in range(FLEET_SEEDS):
            corpus = self.prepare(j, "ref")
            metrics = os.path.abspath(os.path.join(WORK_DIR, "ref-metrics.json"))
            child = self.run_into(j, corpus, "ref", ["--metrics", metrics])
            m = RUNS_RE.search(child.out)
            if child.code != 0 or not m:
                return False
            self.ref.append(self.outputs(child, corpus))
            for k, v in fleet_counts(child.out, metrics).items():
                self.counts[f"seed {self.campaign_seed(j)}: {k}"] = v
            self.runs = int(m.group(2))
            if (int(m.group(1)) != self.gens or self.runs != 16 * self.gens
                    or not self.witnesses_replay(corpus)):
                return False
        return True

    def sample(self):
        j = self.next % FLEET_SEEDS
        self.next += 1
        corpus = self.prepare(j, "sample")
        child = self.run_into(j, corpus, "sample")
        ok = (child.code == 0 and self.outputs(child, corpus) == self.ref[j]
              and self.witnesses_replay(corpus))
        return child, ok, self.runs


class FleetPersist(Fleet):
    gens = PERSIST_GENS

    def campaign_seed(self, j):
        return self.seeds[j]

    def prepare(self, j, tag):
        return fresh_dir(f"corpus-{tag}")

    def setup_cmd(self):
        return fleet_args(self.seeds[0], 0, self.prepare(0, "setup"))


class FleetResume(Fleet):
    gens = RESUME_GENS

    def campaign_seed(self, j):
        return self.seeds[j] + RESUME_SEED_OFFSET

    def reference(self):
        # The corpora fleet_persist writes for these seeds, made once, untimed.
        self.bases = []
        for j, seed in enumerate(self.seeds):
            self.bases.append(fresh_dir(f"corpus-base{j}"))
            if spawn(fleet_args(seed, PERSIST_GENS, self.bases[j]), "base").code != 0:
                return False
        self.setup_corpora = [self.prepare(j, f"setup{j}") for j in range(FLEET_SEEDS)]
        self.setup_next = 0
        return super().reference()

    def prepare(self, j, tag):
        return copy_corpus(self.bases[j], f"corpus-{tag}")

    def setup_cmd(self):
        # --generations 0 loads and re-executes the corpus, appending
        # nothing, so every repetition sees the same state.
        j = self.setup_next % FLEET_SEEDS
        self.setup_next += 1
        return fleet_args(self.campaign_seed(j), 0, self.setup_corpora[j])


def e17_outputs(text):
    """The grid's 12 cells and the pinned witness's numbers. The rest of
    stdout is not compared: the supervisor summary prints elapsed time."""
    cells = []
    for label in ("no churn, slack 0", "churn 1/60, slack 1", "churn 6/12, slack 0"):
        m = re.search(r"^\s*" + re.escape(label) + r"\s+(.*)$", text, re.M)
        if not m:
            return None
        cells.append(re.findall(r"ok \(\d+/\d+\)|\d+/\d+ BAD", m.group(1)))
    flat = " ".join(text.split())
    m = re.search(r"(\d+) events shrunk to (\d+) \((\d+) deliveries, (\d+) churn actions\)", flat)
    witness = [int(x) for x in m.groups()] if m else None
    seeds = re.search(r"seeds (\d+)\.\.(\d+)", flat)
    runs = (int(seeds.group(2)) - int(seeds.group(1)) + 1) * sum(len(r) for r in cells) if seeds else 0
    return cells, witness, runs


class E17(Workload):
    def cmd(self):
        return cli("run", "E17", "--jobs", "1")

    def reference(self):
        child = spawn(self.cmd(), "ref")
        out = e17_outputs(child.out)
        if child.code != 0 or out is None:
            return False
        self.ref = out
        self.runs = out[2]
        self.counts = {"grid runs": self.runs, "grid cells": sum(len(r) for r in out[0])}
        return out[0] == E17_PIN_CELLS and out[1] == E17_PIN_WITNESS

    def setup_cmd(self):
        return cli("--version")

    def sample(self):
        child = spawn(self.cmd(), "sample")
        return child, child.code == 0 and e17_outputs(child.out) == self.ref, self.runs


STATS_RE = re.compile(r"^nodes=(\d+) terminals=(\d+) .*$", re.M)
DIGEST_RE = re.compile(r"^digest=0x[0-9a-f]+$", re.M)


def explore_outputs(text):
    s, d = STATS_RE.search(text), DIGEST_RE.search(text)
    if not (s and d):
        return None
    return s.group(0), d.group(0), int(s.group(1)), int(s.group(2))


class ExploreRaw(Workload):
    units = "terminals"

    def cmd(self, *extra):
        return cli("explore", "-k", str(EXPLORE_K), "--no-dedup", "--no-por",
                   "--jobs", "1", *extra)

    def reference(self):
        child = spawn(self.cmd(), "ref")
        out = explore_outputs(child.out)
        if child.code != 0 or out is None:
            return False
        self.ref = out
        self.nodes, self.runs = out[2], out[3]
        self.counts = {"nodes": self.nodes, "terminals (complete runs)": self.runs}
        return out[:2] == EXPLORE_PIN

    def setup_cmd(self):
        ckpt = os.path.abspath(os.path.join(WORK_DIR, "setup.ckpt"))
        return self.cmd("--max-nodes", "1", "--checkpoint", ckpt)

    def sample(self):
        child = spawn(self.cmd(), "sample")
        return child, child.code == 0 and explore_outputs(child.out) == self.ref, self.runs


WORKLOADS = {
    "fleet_persist": FleetPersist,
    "fleet_resume": FleetResume,
    "e17_grid": E17,
    "explore_raw": ExploreRaw,
}


# ------------------------------------------------------------------ modes


def untraced(w, seconds):
    """End-to-end metrics: the workload's CLI command timed as a child
    process, over and over for `seconds`, each child between two
    yardstick readings."""
    if not w.reference():
        print("reference run failed its checks")
        return False, 1, 1, None
    ys = [yardstick() for _ in range(3)]
    setup, setup_failed = setup_times(w.setup_cmd)
    ys += [yardstick() for _ in range(3)]
    setup_speed = YARD_NOMINAL_S / median(ys)
    walls, norm, speeds, rss = [], [], [], []
    attempted, failed = 0, setup_failed
    y_prev = yardstick()
    deadline = time.perf_counter() + seconds
    while attempted < MIN_SAMPLES or time.perf_counter() < deadline:
        child, ok, units = w.sample()
        y_next = yardstick()
        speed = YARD_NOMINAL_S / ((y_prev + y_next) / 2)
        y_prev = y_next
        attempted += 1
        if not ok:
            failed += 1
            continue
        walls.append(child.wall)
        norm.append(child.wall * speed)
        speeds.append(speed)
        rss.append(child.rss_mb)
    if not walls or not setup:
        return False, attempted, failed, None
    n, tries = len(walls), attempted + len(setup) + setup_failed
    wall = central(norm)
    q, wall_tail = tail(walls)
    metrics = {
        "wall_s": (wall, "s"),
        "runs_per_s": (w.runs / wall, "1/s"),
        "setup_s": (median(setup) * setup_speed, "s"),
        "peak_rss_mb": (median(rss), "MB"),
    }
    print(f"samples: {n} timed child process(es), closed loop, 1 client, --jobs 1")
    print(f"machine speed (yardstick {YARD_NOMINAL_S} s / measured): median "
          f"{median(speeds):.3f}, range {min(speeds):.3f}-{max(speeds):.3f}")
    print(f"wall_s: {wall:.4f} s at nominal speed (mean of the middle 80%); as measured: "
          f"mean of middle 80% {central(walls):.4f} s, median {median(walls):.4f} s, "
          f"p{q} {wall_tail:.4f} s (n={n})")
    print(f"runs_per_s: {w.runs / wall:.1f} 1/s at nominal speed ({w.runs} {w.units} per child)")
    if isinstance(w, ExploreRaw):
        print(f"nodes_per_s: {w.nodes / wall:.1f} 1/s at nominal speed ({w.nodes} nodes per child)")
    print(f"setup_s: {metrics['setup_s'][0]:.5f} s at nominal speed; median as measured "
          f"{median(setup):.5f} s (n={len(setup)})")
    print(f"peak_rss_mb: median {metrics['peak_rss_mb'][0]:.1f} MB, max {max(rss):.1f} MB (n={n})")
    print(f"fail_share: {failed}/{tries} = {failed / tries:.4f}")
    for k, v in w.counts.items():
        print(f"count {k}: {v}")
    return failed == 0, tries, failed, metrics


def mask_witness_path(report):
    return re.sub(r"; [^;()]*(witness-[0-9a-f]+\.json)\)", r"; <corpus>/\1)", report)


def traced(name, seed):
    """Per-layer metrics: the in-process layer runner, plus the CLI's own
    --trace cost on fleet_persist."""
    checks = []
    layers_dir = fresh_dir("layers")
    os.makedirs(layers_dir)
    out_path = os.path.join(WORK_DIR, "layers.out")
    with open(out_path, "wb") as out:
        code = subprocess.call(
            [os.path.abspath(LAYERS), "--workload", name, "--seed", str(seed),
             "--persist-gens", str(PERSIST_GENS), "--resume-gens", str(RESUME_GENS),
             "--k", str(EXPLORE_K), "--dir", layers_dir],
            cwd=WORK_DIR, stdout=out)
    if code != 0:
        print("layer runner failed")
        return False, 1, 1, None
    with open(out_path) as f:
        result = json.loads(f.read().strip().splitlines()[-1])
    facts = result["facts"]
    e = facts["explore"]
    checks.append(("explore stats", EXPLORE_PIN[0].startswith(
        f"nodes={e['nodes']} terminals={e['terminals']} ") and f"digest={e['digest']}" == EXPLORE_PIN[1]))
    checks.append(("e17 grid", [[f"ok (0/500)" if v == 0 else f"{v}/500 BAD" for v in row]
                                for row in facts["e17"]["cells"]] == E17_PIN_CELLS))
    checks.append(("e17 witness", facts["e17"]["witness"] == E17_PIN_WITNESS))

    # The traced-CLI row, and the CLI side of the fleet cross-checks.
    persist = FleetPersist(seed)
    untraced_walls, traced_walls, trace_sizes = [], [], set()
    for i in range(TRACE_PAIRS):
        corpus = persist.prepare(0, "plain")
        plain = persist.run_into(0, corpus, "plain")
        untraced_walls.append(plain.wall)
        trace_file = os.path.abspath(os.path.join(WORK_DIR, "fleet.trace.jsonl"))
        t = persist.run_into(0, persist.prepare(0, "traced"), "traced",
                             ["--trace", trace_file])
        traced_walls.append(t.wall)
        trace_sizes.add(os.path.getsize(trace_file))
        os.remove(trace_file)
        checks.append((f"cli fleet run {i}", plain.code == 0 and t.code == 0))
    checks.append(("trace bytes repeat", len(trace_sizes) == 1))
    cli_report = plain.out.split("\n", 2)[2].strip()
    checks.append(("fleet_persist report", mask_witness_path(cli_report)
                   == mask_witness_path(facts["fleet_persist"]["report"])))
    checks.append(("fleet_persist corpus bytes", os.path.getsize(os.path.join(corpus, "corpus.jsonl"))
                   == facts["fleet_persist"]["corpus_bytes"]))
    checks.append(("fleet witnesses replay", persist.witnesses_replay(corpus)))
    resume = FleetResume(seed)
    resume.bases = [corpus]
    r = resume.run_into(0, resume.prepare(0, "resume"), "resume")
    checks.append(("fleet_resume report", r.code == 0
                   and mask_witness_path(r.out.split("\n", 2)[2].strip())
                   == mask_witness_path(facts["fleet_resume"]["report"].strip())))

    metrics = {k: v for k, v in result["metrics"].items()}
    metrics["obs.trace_ratio"] = median(traced_walls) / median(untraced_walls)
    metrics["obs.trace_bytes"] = float(trace_sizes.pop()) if trace_sizes else 0.0
    failed = sum(not ok for _, ok in checks)
    for label, ok in checks:
        print(f"check {label}: {'ok' if ok else 'MISMATCH'}")
    print(f"spans: {result['spans']} (name, start, end, parent), kept in "
          f"{os.path.join(BUILD_DIR, f'spans-{name}.jsonl')}")
    for k, v in metrics.items():
        print(f"{k}: {v:.6g} {UNITS.get(k, '')}")
    return failed == 0, len(checks), failed, {k: (v, UNITS[k]) for k, v in metrics.items()}


UNITS = {
    "explore.ns_per_node": "ns", "explore.words_per_node": "words",
    "replay.static.ns_per_run": "ns", "replay.static.words_per_run": "words",
    "replay.churn.ns_per_run": "ns",
    "linearize.ns_per_check": "ns", "linearize.checks": "count",
    "shrink.s": "s", "shrink.replays": "count", "shrink.ns_per_replay": "ns",
    "mutate.ns_per_mutant": "ns", "faults.ns_per_compile": "ns",
    "coverage.ns_per_signature": "ns", "fleet.signal_ratio": "ratio",
    "fleet.cache_hit_ratio": "ratio",
    "persist.write_s": "s", "persist.load_s": "s", "persist.us_per_entry_loaded": "us",
    "persist.corpus_bytes": "bytes", "persist.entries_added": "count",
    "obs.trace_ratio": "ratio", "obs.trace_bytes": "bytes",
    "gc.minor_words": "words", "gc.promoted_words": "words", "gc.major_words": "words",
    "gc.major_collections": "count",
    "unattributed_share": "share", "trace_overhead": "share",
}


def build(trace):
    targets = ["./bin/boundedreg.exe"] + (["./perfbench/layers/layers.exe"] if trace else [])
    # No shared dune cache: the benchmark writes only inside the checkout.
    code = subprocess.call(["dune", "build", "--root", ".", "--profile", "perfbench",
                            "--build-dir", BUILD_DIR, "--cache", "disabled", *targets],
                           stdout=sys.stderr)
    if code != 0:
        die("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0:
        die("--seed must be non-negative")
    for needed in ("dune-project", "bin/boundedreg.ml", "lib"):
        if not os.path.exists(needed):
            die(f"run from the root of a boundedreg source checkout ({needed} is missing)")
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(os.path.join(WORK_DIR, "tmp"))
    os.environ["TMPDIR"] = os.path.abspath(os.path.join(WORK_DIR, "tmp"))
    build(a.trace)
    print(f"workload {a.workload} seed {a.seed} trace {a.trace}")
    try:
        if a.trace:
            correct, attempted, failed, metrics = traced(a.workload, a.seed)
        else:
            correct, attempted, failed, metrics = untraced(WORKLOADS[a.workload](a.seed),
                                                           a.seconds)
    finally:
        if a.trace:
            # keep the span file, drop the corpora
            spans = os.path.join(WORK_DIR, "layers", "spans.jsonl")
            keep = os.path.join(BUILD_DIR, f"spans-{a.workload}.jsonl")
            if os.path.exists(spans):
                shutil.move(spans, keep)
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    if metrics is None:
        die("no measurement completed")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
