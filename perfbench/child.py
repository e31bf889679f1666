"""Child processes of the benchmark: set-up probe, CLI run, frame stream.

    child.py setup [--calibration C --model M]
        Print, as JSON, the seconds a fresh process takes to import
        groundcam.cli and load the calibration and model it will use: raw and
        in reference seconds (see speed.py).
    child.py cli --speed S [--spans OUT] -- ARGS...
        Run groundcam.cli.main(ARGS) and exit with its code. With --spans,
        install the timing wrappers first and write the spans to OUT.
    child.py stream --calibration C --model M --detections D --per-frame N
                    --out O --latencies L --speed S [--spans S]
        Load once, then feed the detections frame by frame through ingest,
        localize_batch (camera frame) and localization_line. Write the lines to
        O and each frame's latency to L (.npy, two rows: raw seconds and
        reference seconds).

Every mode samples the core's speed (speed.py) while it runs; cli and stream
write the samples to S. Runs with the repository's src/ on PYTHONPATH and
imports only the standard library before it starts timing.
"""

from __future__ import annotations

import argparse
import sys
import time

import speed


def _setup(args) -> int:
    meter = speed.Meter()
    meter.start()
    busy = meter.busy_s
    start = time.perf_counter()
    import groundcam.cli  # noqa: F401
    from groundcam import files

    if args.calibration:
        files.load_calibration(args.calibration)
    if args.model:
        files.load_model(args.model)
    raw = time.perf_counter() - start
    busy = meter.busy_s - busy
    meter.stop()
    print(f'{{"raw_s": {raw!r}, "ref_s": {(raw - busy) * meter.scale()!r}}}')
    return 0


def _cli(args) -> int:
    meter = speed.Meter()
    meter.start()
    try:
        start = time.perf_counter()
        import groundcam.cli

        imported = time.perf_counter()
        main = groundcam.cli.main
        if args.spans:
            from tracing import Tracer

            tracer = Tracer()
            tracer.record("cli.import", start, imported)
            tracer.install()
            main = tracer.timed(main, "cli.main")
        code = main(args.argv)
        if args.spans:
            tracer.save(args.spans)
        return code
    finally:
        meter.stop()
        meter.save(args.speed)


def _stream(args) -> int:
    meter = speed.Meter()
    meter.start()
    start = time.perf_counter()
    import groundcam.cli  # noqa: F401
    from groundcam import files, pipeline

    imported = time.perf_counter()
    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer()
        tracer.record("cli.import", start, imported)
        tracer.install()
    k, pose = files.load_calibration(args.calibration)
    regressor = files.load_model(args.model)
    with open(args.detections) as f:
        lines = f.read().splitlines()
    n = args.per_frame
    frames = [lines[i:i + n] for i in range(0, len(lines), n)]

    import numpy as np

    # The frame loop probes the core itself, between frames, so no probe
    # lands inside a frame's latency.
    meter.stop()
    camera = pipeline.FrameConvention.CAMERA
    latencies = np.empty(len(frames))
    last_probe = np.empty(len(frames), dtype=np.int64)
    out: list[str] = []
    clock = time.perf_counter
    probes = meter.durations
    next_probe = clock() + speed.INTERVAL_S
    for index, frame in enumerate(frames):
        t0 = clock()
        ingest = pipeline.ingest_detections(frame, min_score=0.5)
        results = pipeline.localize_batch(
            list(ingest.detections), regressor, k, pose, camera
        )
        rows = [files.localization_line(r) for r in results]
        t1 = clock()
        latencies[index] = t1 - t0
        last_probe[index] = len(probes) - 1
        out.extend(rows)
        if t1 >= next_probe:
            meter.probe()
            next_probe = clock() + speed.INTERVAL_S
    meter.probe()
    # Each frame is scaled by the mean speed of the probes on either side.
    inverse = 1.0 / np.array(probes)
    scaled = latencies * speed.REF_JOB_S * (inverse[last_probe] + inverse[last_probe + 1]) / 2
    with open(args.out, "w") as f:
        f.write("".join(row + "\n" for row in out))
    np.save(args.latencies, np.vstack([latencies, scaled]))
    if tracer is not None:
        tracer.save(args.spans)
    meter.save(args.speed)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--calibration")
    p.add_argument("--model")
    p.set_defaults(run=_setup)
    p = sub.add_parser("cli")
    p.add_argument("--speed", required=True)
    p.add_argument("--spans")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p.set_defaults(run=_cli)
    p = sub.add_parser("stream")
    for name in ("--calibration", "--model", "--detections", "--out", "--latencies", "--speed"):
        p.add_argument(name, required=True)
    p.add_argument("--per-frame", type=int, required=True)
    p.add_argument("--spans")
    p.set_defaults(run=_stream)
    args = parser.parse_args()
    if getattr(args, "argv", None) and args.argv[0] == "--":
        args.argv = args.argv[1:]
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
