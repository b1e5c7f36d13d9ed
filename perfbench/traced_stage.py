"""Runs one nifa CLI command in-process, with span tracing, and saves the spans.

    PYTHONPATH=src python3 perfbench/traced_stage.py SPANS_JSON RUN_ID fit --input ...

Calls `nifa.cli.main(argv)` inside a `cli.<command>` span after wrapping the
program's public functions (see spans.py). When the command ran the sampler,
each chain `sampler.run_chain` returned is also checked to round-trip exactly
through `save_chain` and `load_chain`, and its `block_seconds` are kept. That
check and the writing of the spans come after `main_end`, the clock reading at
which the command returned; the caller ends the stage's wall time there.
Exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from spans import Tracer


def round_trip_ok(chain, scratch: Path) -> bool:
    """load_chain(save_chain(chain)) reproduces every array exactly."""
    from nifa.runio import load_chain, save_chain

    save_chain(scratch, chain)
    back = load_chain(scratch)

    def arrays(c):
        yield c.diagnostics.log_posterior_trace
        yield np.asarray(c.diagnostics.block_seconds)
        yield np.array([c.diagnostics.mala_acceptance_rate])
        yield from (c.anchor.coordinates, c.anchor.residual_variances)
        for s in c.samples:
            yield from (s.loadings, s.latent_locations, s.residual_variances, s.local_scales,
                        np.array([s.global_scale]), s.assignment.k_of_h)
            for g in s.splines:
                yield np.concatenate([[g.intercept], g.slopes])

    if len(back) != len(chain) or back.config != chain.config:
        return False
    return all(a.shape == b.shape and np.array_equal(a, b)
               for a, b in zip(arrays(chain), arrays(back), strict=True))


def main() -> int:
    spans_path, run_id, *argv = sys.argv[1:]
    import nifa.cli

    tracer = Tracer(run_id)
    tracer.keep.add("sampler.run_chain")
    tracer.install()
    try:
        with tracer.span(f"cli.{argv[0]}"):
            code = nifa.cli.main(argv)
    finally:
        tracer.restore()
    main_end = time.perf_counter()
    chains = tracer.returned.pop("sampler.run_chain", [])
    record = tracer.to_json()
    record["main_end"] = main_end
    record["block_seconds"] = [np.asarray(c.diagnostics.block_seconds).tolist() for c in chains]
    scratch = Path(spans_path).with_suffix(".roundtrip")
    record["round_trip_ok"] = [round_trip_ok(c, scratch / str(i)) for i, c in enumerate(chains)]
    Path(spans_path).write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
