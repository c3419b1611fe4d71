"""Round trip: atomic measure -> truncated moments -> recovered measure.

A random measure supported on a small product grid is synthesized, its
moments are truncated at the minimal usable degree, and the full pipeline
takes the moments back to atoms. The printout walks through every stage
artifact: the detected recurrences, the PSD verdicts, and the residual of
the recovered measure against the input data.
"""

import numpy as np

from momentrec import sample_instance, solve_full


def main() -> None:
    rng = np.random.default_rng(7)
    instance = sample_instance(rng, dim=2)
    measure = instance.measure

    print("ground truth")
    for point, weight in zip(measure.points, measure.weights):
        print(f"  atom {tuple(round(x, 4) for x in point)}  weight {weight:.4f}")
    print(f"  tau = {instance.tau}, moments to degree {instance.moments.max_degree}")

    report = solve_full(instance.moments)
    print(f"\nstatus: {report.status}")
    print("per-variable recurrences (monic, lowest coefficient first):")
    for axis, poly in enumerate(report.system.polys):
        printable = tuple(round(c, 6) for c in poly.coeffs)
        print(f"  variable {axis}: {printable}")
    for record in report.psd_records:
        # large matrices report a certified lower bound instead of eigvalsh's value
        label = "certified lower bound on min eigenvalue" if record.certified else "min eigenvalue"
        print(
            f"M({record.order}): {label} {record.min_eigenvalue:+.3e}, "
            f"rank {record.rank}, psd={record.is_psd}"
        )

    print("\nrecovered")
    for point, weight in zip(report.measure.points, report.measure.weights):
        print(f"  atom {tuple(round(x, 4) for x in point)}  weight {weight:.4f}")
    print(f"expansion residual: {report.expansion_residual:.3e}")
    print(f"moment residual:    {report.moment_residual:.3e}")


if __name__ == "__main__":
    main()
