#!/usr/bin/env python3
"""Coherent transport efficiency across the tuning window.

The efficiency dips where the end-site detuning matches the chain coupling;
everywhere else the dark mode picks up amplitude on the target guide and
the sink collects more light.
"""

import argparse
import dataclasses

from enaqt import (enaqt4_network, required_sink_length, sweep_wavelength,
                   wavelength_grid)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min", type=float, default=745.0, help="nm")
    ap.add_argument("--max", type=float, default=840.0, help="nm")
    ap.add_argument("--step", type=float, default=0.5, help="nm")
    ap.add_argument("--z", type=float, default=15.0, help="cm")
    ap.add_argument("--out", default="wavelength_sweep.csv")
    args = ap.parse_args()

    net = enaqt4_network()
    # size the sink for the reddest wavelength so nothing reflects back
    n_sink = required_sink_length(net, args.z, max_wavelength_nm=args.max)
    if n_sink > net.sink.n_sink:
        net = dataclasses.replace(
            net, sink=dataclasses.replace(net.sink, n_sink=n_sink))

    lams = wavelength_grid(net.dispersion.lambda0_nm, args.min, args.max, args.step)
    result = sweep_wavelength(net, lams, args.z)
    result.write_csv(args.out)

    etas = result.column("efficiency")
    k = etas.argmin()
    print(f"wrote {args.out}; minimum efficiency {etas[k]:.4f} at {lams[k]:.1f} nm")


if __name__ == "__main__":
    main()
