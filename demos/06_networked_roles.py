"""The networked deployment: three role endpoints over TCP loopback.

Starts a third-party (Charlie) server and a Bob server in this process, then
drives Alice's side over real sockets. The result is byte-identical to the
in-process run with the same seed. In production each server runs as its own
process: see `modhash serve --help`.
"""

import numpy as np

from modhash import ProtocolKind, ProtocolParams, drive_local, run_over_tcp
from modhash.transport import BobServer, CharlieServer

# A fixed seed, so that the TCP run can be checked against the in-process
# one. A real session passes none, and Alice draws fresh key material.
seed = bytes.fromhex("44" * 32)
params = ProtocolParams.from_dimensions(k=8, m=64)

rng = np.random.default_rng(6)
x1 = rng.normal(size=24)
x2 = x1 + 0.5

with CharlieServer() as charlie:
    charlie.start()
    print(f"charlie listening on {charlie.address[0]}:{charlie.address[1]}")
    with BobServer(x2, charlie_address=charlie.address) as bob:
        bob.start()
        print(f"bob     listening on {bob.address[0]}:{bob.address[1]}")

        result = run_over_tcp(
            ProtocolKind.FULL_KEY_3P, x1, params, seed,
            bob_address=bob.address, charlie_address=charlie.address,
        )
        bob_estimate = bob.wait_result(result.session_id)

print(f"\nalice's estimate over TCP : {result.estimate}")
print(f"bob's estimate over TCP   : {bob_estimate}")

local = drive_local(ProtocolKind.FULL_KEY_3P, x1, x2, params, seed)
print(f"in-process reference      : {local.alice_estimate}")
assert result.mean_lee == local.mean_lee
print("\nsame seed, same bytes, same exact rational -- transports are interchangeable.")
print("\nthe equivalent three-terminal deployment:")
print("  modhash serve --role charlie --listen 0.0.0.0:7000")
print("  modhash serve --role bob --listen 0.0.0.0:7001 --x2 bob.txt --charlie HOST:7000")
print("  modhash run --kind full-key --transport tcp --role alice \\")
print("      --x1 alice.txt --bob HOST:7001 --charlie HOST:7000 --k 8 --m 64")
