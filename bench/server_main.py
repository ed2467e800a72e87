"""The system under test, as a child process.

``python3 -m bench.server_main SPEC.json`` loads the generated corpus, builds
the default ``RetrievalEngine`` behind the default threaded
``RetrievalServer`` (``binary.1`` codec), serves sixteen warm-up searches
through a real loopback connection, prints ``READY <port>`` and then serves
until its stdin closes.  Tying its life to stdin means the child exits when
the load generator does, whatever way that happens.
"""

from __future__ import annotations

import json
import os
import sys


def main(spec_path: str) -> None:
    import numpy as np

    from repro.database.collection import FeatureCollection
    from repro.database.engine import RetrievalEngine
    from repro.database.segments import LiveCollection
    from repro.serving import RetrievalServer, ServerConfig, ServingClient

    with open(spec_path) as handle:
        spec = json.load(handle)
    with np.load(spec["inputs"], allow_pickle=False) as data:
        corpus = data["corpus"]
        labels = data["labels"].tolist() if "labels" in data else None
    if spec["live"]:
        collection = LiveCollection(corpus)
    else:
        collection = FeatureCollection(corpus, labels=labels)
    server = RetrievalServer(RetrievalEngine(collection), ServerConfig(**spec["server_config"]))
    host, port = server.start()
    try:
        with ServingClient(host, port) as client:
            for row in corpus[:16]:
                client.search(row, spec["k"])
        print(f"READY {port}", flush=True)
        sys.stdin.read()
    finally:
        server.close()


if __name__ == "__main__":
    # BLAS/OpenMP read these once at load time: pin before NumPy is imported.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    main(sys.argv[1])
