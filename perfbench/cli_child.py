"""`holoinv` CLI call with spans on, for the traced runs of the benchmark.

    python3 perfbench/cli_child.py SPANS.json invariant LINK.json [flags]

Prints what `holoinv` prints and exits with its code.  Writes to SPANS.json
the time `import holoinv.cli` took and the spans of the call.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main() -> int:
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    t = time.perf_counter()
    import holoinv.cli
    import_s = time.perf_counter() - t

    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.on = True
    code = holoinv.cli.main(sys.argv[2:])
    tracer.on = False
    Path(sys.argv[1]).write_text(json.dumps(
        {"import_s": import_s, "spans": spans.span_rows(tracer.spans)}))
    return code


if __name__ == "__main__":
    sys.exit(main())
