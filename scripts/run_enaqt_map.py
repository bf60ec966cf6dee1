#!/usr/bin/env python3
"""Efficiency and enhancement over propagation length and dephasing rate.

The default grid covers the experimentally accessible corner (z to 15 cm,
gamma to 0.02 /cm); --extended pushes to z = 500 cm and gamma = 0.5 /cm,
where the efficiency approaches 1.
"""

import argparse

import numpy as np

from enaqt import enaqt4_network, enaqt_map


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--extended", action="store_true")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    if args.extended:
        zs = np.arange(0.0, 500.0 + 1e-9, 5.0)
        gammas = np.arange(0.0, 0.5 + 1e-9, 0.025)
        out = args.out or "enaqt_map_extended.csv"
    else:
        zs = np.arange(0.0, 15.0 + 1e-9, 0.1)
        gammas = np.arange(0.0, 0.02 + 1e-9, 0.001)
        out = args.out or "enaqt_map.csv"

    result = enaqt_map(enaqt4_network(), zs, gammas)
    result.write_csv(out)

    eta = result.column("efficiency").reshape(gammas.size, zs.size)
    print(f"wrote {out}; efficiency at (z={zs[-1]:.0f} cm, "
          f"gamma={gammas[-1]:.3f} /cm) = {eta[-1, -1]:.4f}")


if __name__ == "__main__":
    main()
