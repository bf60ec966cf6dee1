#!/usr/bin/env python3
"""Transport enhancement versus illumination bandwidth.

Compares the two realizations of the same decoherence strength: averaging
coherent runs over a tophat spectrum (explicit sink) and pure dephasing of
the most-detuned guide in a master equation (effective trapping rate).
"""

import argparse

import numpy as np

from enaqt import enaqt4_network, sweep_bandwidth


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-bandwidth", type=float, default=95.0, help="nm")
    ap.add_argument("--step", type=float, default=5.0, help="nm")
    ap.add_argument("--z", type=float, default=15.0, help="cm")
    ap.add_argument("--nodes", type=int, default=41)
    ap.add_argument("--out", default="bandwidth_sweep.csv")
    args = ap.parse_args()

    net = enaqt4_network()
    bws = np.arange(0.0, args.max_bandwidth + 1e-9, args.step)
    result = sweep_bandwidth(net, bws, args.z, nodes=args.nodes)
    result.write_csv(args.out)

    last_ens = result.column("enaqt_ensemble")[-1]
    last_lind = result.column("enaqt_lindblad")[-1]
    ref = result.metadata["measured_reference"]
    print(f"wrote {args.out}")
    print(f"enhancement at {bws[-1]:.0f} nm: ensemble {100 * last_ens:.2f} %, "
          f"dephasing model {100 * last_lind:.2f} % "
          f"(bench reference {ref['enaqt_percent']} +- "
          f"{ref['enaqt_uncertainty_percent']} % at {ref['bandwidth_nm']:.0f} nm)")


if __name__ == "__main__":
    main()
