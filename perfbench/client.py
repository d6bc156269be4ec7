"""One client process of a benchmark run, started by workloads.Bench.

    python3 perfbench/client.py FD '[workload, seed, [client, ...], clients in all, server]'

FD is this process's end of a socket pair to the benchmark; the messages on
it are those of workloads.client_main. `server` is [[Bob host, port],
[Charlie host, port]] on tcp and null otherwise.
"""

import json
import sys
from multiprocessing.connection import Connection

from _paths import use_checkout_src

use_checkout_src()

import workloads  # noqa: E402


def main():
    fd = int(sys.argv[1])
    name, seed, clients, of, server = json.loads(sys.argv[2])
    addresses = tuple(tuple(a) for a in server) if server else None
    with Connection(fd) as conn:
        workloads.client_main(conn, name, seed, tuple(clients), of, addresses)


if __name__ == "__main__":
    main()
