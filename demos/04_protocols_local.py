"""All three distance protocols, in process, on the same inputs.

Every protocol routes the same key material and inputs differently but ends
at the identical exact mean Lee distance. The obfuscated variant pulls the
third party's view towards the k/4 plateau, but does not pin it there: his
mean still follows the distance.
"""

import numpy as np

from modhash import ProtocolKind, ProtocolParams, drive_local

seed = bytes.fromhex("22" * 32)
params = ProtocolParams.from_dimensions(k=8, m=64)  # padding defaults to 10*M

rng = np.random.default_rng(4)
x1 = rng.normal(size=32)
direction = rng.normal(size=32)
x2 = x1 + 0.8 * direction / np.linalg.norm(direction)

print(f"inputs: 32-dim vectors at distance {np.linalg.norm(x1 - x2):.3f}\n")

for kind in ProtocolKind:
    run = drive_local(kind, x1, x2, params, seed)
    charlie = "n/a (no third party)"
    if run.charlie_observed is not None:
        charlie = f"{float(run.charlie_observed):.4f}"
    print(f"{kind.name:18s} mean_lee = {run.mean_lee} = {float(run.mean_lee):.4f}")
    print(f"{'':18s} alice -> {run.alice_estimate}, bob -> {run.bob_estimate}, third party saw {charlie}")

run = drive_local(ProtocolKind.FULL_KEY_3P, x1, x2, params, seed)
print("\nmessage transcript (full-key kind):")
for entry in run.transcript:
    print(f"  {entry.sender.name:7s} -> {entry.recipient.name:7s} {len(entry.data):6d} bytes")
print("\nnote: the pads pull the obfuscated kind's third-party view towards k/4 = 2,")
print("but it still moves with the true distance; the data owners de-mix it exactly.")
