"""Run converge_ground over the truncation calibration grid and summarise it.

    python tools/calibrate_truncation.py [--tol T] [--widths K] [--margin C] [--rise] [--list]

The grid is omega_a in {0.25, 1, 4, 9} x 12 atom counts from 10 to 140 (odd
and even) x 15 couplings x = gamma/gamma_c from 0.3 to 2.5 (both sides of the
separatrix) x both parities, 1440 sectors at tolerance T (default 1e-8).
converge_ground solves each sector once, in the window truncation_seed
draws for T.  The tool prints how many sectors are accepted and how many
raise (a window whose band exceeds solver.BAND_BUDGET, a failed eigensolve
or a window that fails the truncation test); for each window edge the
largest estimate / (T |E|) over the accepted sectors (the truncation test
accepts up to 1 / TRUNCATION_SAFETY); the sum of the accepted dimensions;
and, over the accepted shift-invert sectors, the band solves ARPACK made in
all, the median and largest distance E0 - sigma of the ground energy above
the shift, how many of them factored the Schur complement of the odd-nu
states (above solver.SCHUR_CUTOFF states), and how many are proven to be
the window's ground state.  The proof is one more solver._factor, at E0 - r
- T |E0| with r the residual: it succeeds only if no eigenvalue lies below
that, and some eigenvalue lies within r of E0, so E0 is the ground energy
to within r + T |E0|.  It exits 1 if any sector raises or any proof fails
(and, with --rise, if any box rise exceeds T |E|).

--widths and --margin replace solver.WINDOW_WIDTHS and WINDOW_MARGIN for the
run, to pick them.  --rise also solves every accepted windowed sector without
its box (same lambda_max) and prints the largest relative energy rise the box
causes, also as a fraction of T; it exits 1 if any box raises its sector's
energy by more than T |E|.  --list prints one line per sector (verdict,
lambda_max, box, dimension, energy), to compare two sets of constants
sector by sector.  The run takes about 7 s on one core at T = 1e-8 (the
proofs about 1 s of it) and 11-12 s at 1e-10 and 1e-12; --rise adds 5-10 s.
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
    accepted = raised = 0
    worst = dict.fromkeys(EDGES, 0.0)
    dim_sum, rise = 0, 0.0
    band_solves, distances, schur, proven = 0, [], 0, 0
    start = time.perf_counter()
    for omega_a in OMEGAS:
        for n_atoms in ATOMS:
            for x in RATIOS:
                for parity in PARITIES:
                    p = ModelParams.from_ratio(omega_a, x, n_atoms)
                    try:
                        res = solver.converge_ground(p, parity, tol=args.tol)
                    except ConvergenceError:
                        raised += 1
                        if args.list:
                            print(f"{omega_a:g} {n_atoms} {x:g} {parity} error")
                        continue
                    accepted += 1
                    dim_sum += res.basis.size
                    band_solves += res.band_solves
                    schur += res.schur
                    energy = abs(res.eigenvalues[0])
                    if res.shift is not None:
                        distances.append(res.eigenvalues[0] - res.shift)
                        H = build_hamiltonian(p, res.basis).matrix
                        below = res.eigenvalues[0] - res.residuals[0] - args.tol * energy
                        try:
                            solver._factor(H, res.basis, below)
                        except RuntimeError:
                            pass
                        else:
                            proven += 1
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
                        print(f"{omega_a:g} {n_atoms} {x:g} {parity} accepted "
                              f"lambda={res.lambda_max} box=({b.nu_lo},{b.ne_lo},{b.ne_hi}) "
                              f"dim={b.size} E={float(res.eigenvalues[0])!r}")
    print(f"sectors {accepted + raised} at tol {args.tol:g}: accepted {accepted}, "
          f"raised {raised}")
    print(f"window K={solver.WINDOW_WIDTHS:g} C={solver.WINDOW_MARGIN:g}; largest "
          f"estimate/(tol|E|) per edge (accepted up to {1 / solver.TRUNCATION_SAFETY:g}): "
          + ", ".join(f"{edge} {worst[edge]:.3g}" for edge in EDGES))
    print(f"dimension sum {dim_sum}" + (f"; largest energy rise from the box {rise:.3g} "
                                         f"({rise / args.tol:.3g} tol)" if args.rise else "")
          + f"; {time.perf_counter() - start:.0f} s")
    print(f"shift-invert sectors {len(distances)}: band solves {band_solves}; E0 - sigma "
          f"median {statistics.median(distances) if distances else 0.0:.3g}, largest "
          f"{max(distances, default=0.0):.3g}")
    print(f"Schur complement factored in {schur} of {len(distances)} shift-invert sectors "
          f"(above {solver.SCHUR_CUTOFF} states)")
    print(f"proven {proven} of {len(distances)} shift-invert ground energies: the band "
          f"factors at E0 - residual - tol |E0|")
    return 0 if raised == 0 and proven == len(distances) and rise <= args.tol else 1


if __name__ == "__main__":
    sys.exit(main())
