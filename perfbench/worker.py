"""Run kchord CLI commands in fresh processes that start with cold caches.

Started by run.py with ``src`` on PYTHONPATH.  The process imports
kchord (and with it numpy), prints the monotonic time at which it is
ready, and then serves requests read one JSON line at a time from
stdin.  Each request is run in a child forked from this process, which
has computed nothing, so no command sees an earlier command's
``lru_cache`` entries.  The child writes the command's stdout to the
requested file and a JSON record (exit code, seconds, calibration
seconds, peak RSS, spans) to the requested meta file; the parent answers
with the child's exit status.  With ``--setup-only`` the process exits
once it is ready.

The child also times a fixed piece of pure-Python work
(``calibration_burst``): five bursts right before the command, one every
0.1 s while it runs (from a SIGALRM handler, untraced runs only), and
five right after it.  The median burst is the machine's speed during the
command, taken on the CPU and in the process that ran it; run.py scales
the command's seconds by it.  The command's seconds leave out the time
of the bursts inside it.
"""

import json
import os
import resource
import signal
import sys
import time

import kchord.cli  # noqa: F401  (the import is what set-up time measures)

READY = time.monotonic()

CALIBRATION_BURSTS = 5  # before the command, and as many after it
CALIBRATION_INTERVAL_S = 0.1  # one more burst this often while it runs
CALIBRATION_ITERATIONS = 10_000  # about 1.2 ms a burst on the reference machine (run.py)


def calibration_burst() -> float:
    start = time.perf_counter()
    total, seen = 0, {}
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i % 7
        seen[i & 255] = total
    return time.perf_counter() - start


def run_command(request: dict) -> None:
    tracer = None
    meta = {"code": None, "error": None, "untraced": []}
    if request["trace"]:
        import spans

        tracer, meta["untraced"] = spans.install()
    bursts = [calibration_burst() for _ in range(CALIBRATION_BURSTS)]
    during: list[float] = []
    signal.signal(signal.SIGALRM, lambda *_: during.append(calibration_burst()))
    # Bursts inside the command would land in its spans, so a traced run has none.
    interval = 0 if tracer else CALIBRATION_INTERVAL_S
    out = open(request["out"], "w", encoding="utf-8", newline="")
    sys.stdout = out
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, interval, interval)
    try:
        meta["code"] = kchord.cli.main(request["argv"])
    except Exception as exc:  # a crash is this command's result, not the worker's
        meta["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        out.close()
    meta["seconds"] = time.perf_counter() - start - sum(during)
    bursts += during + [calibration_burst() for _ in range(CALIBRATION_BURSTS)]
    meta["calibration_s"] = sorted(bursts)[len(bursts) // 2]
    meta["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    meta["spans"] = tracer.spans if tracer else None
    with open(request["meta"], "w", encoding="utf-8") as handle:
        json.dump(meta, handle)


def main() -> None:
    print(json.dumps({"ready": READY}), flush=True)
    if "--setup-only" in sys.argv:
        return
    for line in sys.stdin:
        request = json.loads(line)
        pid = os.fork()
        if pid == 0:
            # The child must end here whatever happens, never return into this loop.
            code = 0
            try:
                run_command(request)
            except BaseException:
                code = 70
            os._exit(code)
        _, status = os.waitpid(pid, 0)
        print(json.dumps({"status": os.waitstatus_to_exitcode(status)}), flush=True)


if __name__ == "__main__":
    main()
