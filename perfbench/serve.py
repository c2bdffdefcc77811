"""Run the forecast service for the benchmark until stdin closes.

    python3 perfbench/serve.py --registry REGISTRY [--trace-out SPANS.json]

Binds an ephemeral port on 127.0.0.1 and prints ``port <n>`` once it is
serving. With ``--trace-out`` the layer wrappers of ``tracing.install`` are
installed in this process, and its spans are written there on shutdown.
"""

from __future__ import annotations

import argparse
import sys
import threading

import checkout


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--registry", required=True)
    ap.add_argument("--trace-out")
    args = ap.parse_args()
    checkout.use_checkout_src()

    tracer = None
    if args.trace_out:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    from oeeforecast.service import load_registry, serve

    server = serve(load_registry(args.registry), port=0)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        print(f"port {server.server_address[1]}", flush=True)
        sys.stdin.read()  # the benchmark closes our stdin to stop the service
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
    if tracer is not None:
        tracer.write(args.trace_out)


if __name__ == "__main__":
    main()
