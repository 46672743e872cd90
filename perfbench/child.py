"""One fresh-process invocation of the genkahler CLI.

Usage: python3 child.py SPEC.json

SPEC holds ``argv`` (the CLI arguments), ``result`` (where to write the
measurements), ``trace`` (wrap the layer boundaries first), ``spans`` (where
a traced run writes its spans) and ``setup_only`` (import and exit).  The parent records the monotonic time just before
spawning; ``ready`` below is the same system-wide clock read once
``genkahler.cli`` is imported, so ``ready - spawn`` is the set-up time a user
pays before the command starts working.
"""

import json
import resource
import sys
import time


def library_env() -> dict:
    """Versions of the numerical stack the CLI actually imported."""
    import numpy
    import scipy

    env = {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 2 has no dict mode
        env["blas"] = None
    return env


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)

    import genkahler
    import genkahler.cli as cli

    ready = time.monotonic()
    out = {"ready": ready, "package_file": genkahler.__file__}
    if not spec["setup_only"]:
        tracer = None
        if spec["trace"]:
            from tracer import Tracer  # this script's directory is sys.path[0]

            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        code = cli.main(spec["argv"])
        wall = time.perf_counter() - t0
        out.update({"exit_code": code, "wall_s": wall})
        if tracer is not None:
            out["layers"] = tracer.summary()
            out["missing"] = tracer.missing
            with open(spec["spans"], "w", encoding="utf-8") as fh:
                json.dump(tracer.spans(), fh)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["env"] = library_env()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
