"""What a cached answer of the service waits for.

    python3 perfbench/latency_probe.py [--requests N]

Starts the service in this process over the three stand-ins, twice: as it
ships, and with Nagle's algorithm switched off on each accepted connection
(``disable_nagle_algorithm``, i.e. TCP_NODELAY). Each time it fills the
cache of h2 with one request, then times N cached forecast requests on one
keep-alive connection and prints their median and the median time the
handler spent in ``do_GET``. The handler writes the headers and the body of
an answer in two sends; if the body waits for the client's delayed ACK of
the headers, the median drops to about the handler time without Nagle.
"""

from __future__ import annotations

import argparse
import http.client
import shutil
import statistics
import tempfile
import threading
import time
from pathlib import Path

import checkout

PATH = "/equipment/h2/forecast?horizon=4"


def _medians(nodelay: bool, registry: Path, requests: int) -> tuple[float, float]:
    """(median latency, median do_GET time) of cached requests, in ms."""
    from oeeforecast import service

    handler = service._Handler
    do_get = handler.do_GET
    handler_ms = []

    def timed_do_get(self):
        t0 = time.perf_counter()
        do_get(self)
        handler_ms.append((time.perf_counter() - t0) * 1e3)

    handler.do_GET = timed_do_get
    handler.disable_nagle_algorithm = nodelay
    server = service.serve(service.load_registry(registry), port=0)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    latency_ms = []
    try:
        conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=120)
        try:
            for i in range(requests + 1):  # the first request fills the cache
                t0 = time.perf_counter()
                conn.request("GET", PATH)
                resp = conn.getresponse()
                body = resp.read()
                if resp.status != 200:
                    raise RuntimeError(f"{PATH}: status {resp.status}: {body[:200]!r}")
                if i:
                    latency_ms.append((time.perf_counter() - t0) * 1e3)
        finally:
            conn.close()
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
        handler.do_GET = do_get
        del handler.disable_nagle_algorithm
    return statistics.median(latency_ms), statistics.median(handler_ms[1:])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--requests", type=int, default=50)
    args = ap.parse_args()
    checkout.use_checkout_src()
    import workloads

    checkout.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="probe-", dir=checkout.OUT))
    try:
        workloads.write_service_inputs(workdir)
        for nodelay in (False, True):
            latency, in_handler = _medians(nodelay, workdir / "registry.conf", args.requests)
            print(f"TCP_NODELAY {'on ' if nodelay else 'off'}: {args.requests} cached requests, "
                  f"median latency {latency:.2f} ms, median do_GET {in_handler:.2f} ms")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
