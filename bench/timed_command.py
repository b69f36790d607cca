"""Run one command in this fresh process; record its time and peak memory.

    PYTHONPATH=src python3 bench/timed_command.py RESULT_FILE glvq.cli \
        dequantize model.glvq --out w.f32

Imports the module (``glvq.cli`` or ``build_archive``), then calls its
``main`` with the remaining arguments.  Writes to RESULT_FILE, as JSON,
the seconds that call took and this process's peak resident set.  Exits
with the command's exit code.

Interpreter start and imports are left out of the time: on a shared host
their cost drifts by a tenth from minute to minute, more than the
commands themselves do.  The peak is this process's own ``VmHWM``, not
the parent's ``os.wait4`` figure: Linux folds the peak RSS of the
process that forked a child into the child's ``ru_maxrss``, so a child
of the benchmark's process would read at least its 100 MB, or 880 MB
on decode_large.
"""

import importlib
import json
import sys
import time


def peak_rss_mb():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv) -> int:
    result_file, module_name, *command = argv
    module = importlib.import_module(module_name)
    start = time.perf_counter()
    code = module.main(command)
    seconds = time.perf_counter() - start
    with open(result_file, "w") as f:
        json.dump({"seconds": seconds, "peak_rss_mb": peak_rss_mb()}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
