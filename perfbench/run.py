#!/usr/bin/env python3
"""Build the perfbench Go program from source and run one benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload kadd-er --seed 1 --seconds 45 --trace 0

Every argument is passed to the program (see perfbench/main.go). The
build, its Go caches and the traced runs' span files all stay under
.bench_build/ in the repository root; the build is incremental, so only
the first run in a checkout compiles the standard library. The program's
standard output is passed through unchanged, its last line being the
result; the exit code is the program's, or 1 if the build fails.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    binary = os.path.join(build, "perfbench", "perfbench")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        # The user config dir holds the go env file and telemetry.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    try:
        built = subprocess.run(
            ["go", "build", "-o", binary, "."], cwd=here, env=env,
            stdout=sys.stderr, timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
