"""Run converge_ground over the truncation calibration grid and summarise it.

    python tools/calibrate_truncation.py [--tol T] [--widths K] [--margin C] [--rise] [--list]

The grid is omega_a in {0.25, 1, 4, 9} x 12 atom counts from 10 to 140 (odd
and even) x 15 couplings x = gamma/gamma_c from 0.3 to 2.5 (both sides of the
separatrix) x both parities, 1440 sectors at the default cap and at tolerance
T (default 1e-8).  converge_ground solves each sector once, in the window
truncation_seed draws for T.  The tool prints how many sectors are accepted,
how many raise at the cap (the seed lies above the cap, and the capped
window is empty or fails the truncation test) and how many raise otherwise
(a failed eigensolve, or a window below the cap that fails the test); for
each window edge the largest estimate / (T |E|) over the accepted sectors
(the truncation test accepts up to 1 / TRUNCATION_SAFETY); the sum of
the accepted dimensions; and, over the accepted shift-invert sectors, the
band solves ARPACK made in all and the median and largest distance E0 -
sigma of the ground energy above the shift.  It exits 1 if any sector
raises otherwise.

--widths and --margin replace solver.WINDOW_WIDTHS and WINDOW_MARGIN for the
run, to pick them.  --rise also solves every accepted windowed sector without
its box (same lambda_max) and prints the largest relative energy rise the box
causes.  --list prints one line per sector (verdict, lambda_max, box,
dimension, energy), to compare two sets of constants sector by sector.  The
run takes about ten seconds on one core.
"""
from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

OMEGAS = (0.25, 1.0, 4.0, 9.0)
ATOMS = (10, 15, 20, 27, 34, 45, 56, 67, 80, 99, 120, 140)
RATIOS = (0.3, 0.6, 0.9, 0.98, 1.0, 1.02, 1.05, 1.1, 1.2, 1.35, 1.5, 1.7, 1.95, 2.2, 2.5)
PARITIES = ("even", "odd")
EDGES = ("lambda", "nu_lo", "ne_lo", "ne_hi")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tol", type=float, default=1e-8)
    parser.add_argument("--widths", type=float, default=None)
    parser.add_argument("--margin", type=float, default=None)
    parser.add_argument("--rise", action="store_true")
    parser.add_argument("--list", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from dickelab import solver
    from dickelab.errors import ConvergenceError
    from dickelab.model import ModelParams, build_hamiltonian, build_sector_basis

    if args.widths is not None:
        solver.WINDOW_WIDTHS = args.widths
    if args.margin is not None:
        solver.WINDOW_MARGIN = args.margin
    counts = {"accepted": 0, "cap": 0, "error": 0}
    worst = dict.fromkeys(EDGES, 0.0)
    dim_sum, rise = 0, 0.0
    band_solves, distances = 0, []
    start = time.perf_counter()
    for omega_a in OMEGAS:
        for n_atoms in ATOMS:
            for x in RATIOS:
                for parity in PARITIES:
                    p = ModelParams.from_ratio(omega_a, x, n_atoms)
                    try:
                        res = solver.converge_ground(p, parity, tol=args.tol)
                    except ConvergenceError as exc:
                        capped = exc.diagnostics["lambda_seed"] > solver.DEFAULT_LAMBDA_CAP
                        truncated = exc.best is not None or exc.diagnostics["dim"] == 0
                        verdict = "cap" if capped and truncated else "error"
                        counts[verdict] += 1
                        if args.list:
                            print(f"{omega_a:g} {n_atoms} {x:g} {parity} {verdict}")
                        continue
                    verdict = "accepted"
                    counts[verdict] += 1
                    dim_sum += res.basis.size
                    band_solves += res.band_solves
                    if res.shift is not None:
                        distances.append(res.eigenvalues[0] - res.shift)
                    energy = abs(res.eigenvalues[0])
                    leaks = solver.edge_leaks(p, res.basis, res.eigenvalues[0],
                                              res.eigenvectors[:, 0])
                    for edge in EDGES:
                        if edge in leaks:
                            worst[edge] = max(worst[edge], leaks[edge] / (args.tol * energy))
                    if args.rise:
                        full = build_sector_basis(p, res.lambda_max, parity)
                        if full.size > res.basis.size:
                            e_full = solver.lowest_eigenpairs(
                                build_hamiltonian(p, full)).eigenvalues[0]
                            rise = max(rise, (res.eigenvalues[0] - e_full) / abs(e_full))
                    if args.list:
                        b = res.basis
                        print(f"{omega_a:g} {n_atoms} {x:g} {parity} {verdict} "
                              f"lambda={res.lambda_max} box=({b.nu_lo},{b.ne_lo},{b.ne_hi}) "
                              f"dim={b.size} E={float(res.eigenvalues[0])!r}")
    total = sum(counts.values())
    print(f"sectors {total} at tol {args.tol:g}: accepted {counts['accepted']}, raised at the "
          f"cap {counts['cap']}, raised otherwise {counts['error']}")
    print(f"window K={solver.WINDOW_WIDTHS:g} C={solver.WINDOW_MARGIN:g}; largest "
          f"estimate/(tol|E|) per edge (accepted up to {1 / solver.TRUNCATION_SAFETY:g}): "
          + ", ".join(f"{edge} {worst[edge]:.3g}" for edge in EDGES))
    print(f"dimension sum {dim_sum}" + (f"; largest energy rise from the box {rise:.3g}"
                                         if args.rise else "")
          + f"; {time.perf_counter() - start:.0f} s")
    print(f"shift-invert sectors {len(distances)}: band solves {band_solves}; E0 - sigma "
          f"median {statistics.median(distances) if distances else 0.0:.3g}, largest "
          f"{max(distances, default=0.0):.3g}")
    return 0 if counts["error"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
