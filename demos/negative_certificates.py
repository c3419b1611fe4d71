"""Structured refusals: what the pipeline reports when no measure exists.

Not every recursive moment sequence comes from a nonnegative atomic
measure. Three failure shapes are shown: an indefinite moment matrix with
its eigenvalue witness, a signed expansion whose negative coefficient is
carried into the report detail, and a sequence whose atoms would need
imaginary coordinates.
"""

from momentrec import TruncatedSequence, iter_basis, solve_full


def show(title: str, report) -> None:
    print(title)
    print(f"  status: {report.status}")
    for record in report.psd_records:
        # a failing matrix always quotes eigvalsh's smallest eigenvalue
        label = "certified lower bound on min eigenvalue" if record.certified else "min eigenvalue"
        print(f"  M({record.order}): {label} {record.min_eigenvalue:+.4f}, psd={record.is_psd}")
    print(f"  detail: {report.detail}\n")


def main() -> None:
    signed = TruncatedSequence(
        1, 4, {(k,): v for k, v in enumerate([0.0, -1.0, -1.0, -1.0, -1.0])}
    )
    show("difference of two unit masses at 0 and 1", solve_full(signed))

    values = {
        idx: float(3 ** idx[0] * (2 ** idx[1] - 1)) for idx in iter_basis(2, 6)
    }
    product = TruncatedSequence(2, 6, values)
    show("signed product sequence 3^n (2^v - 1)", solve_full(product))

    rotating = TruncatedSequence(
        1, 4, {(k,): v for k, v in enumerate([2.0, 0.0, -2.0, 0.0, 2.0])}
    )
    show("alternating sequence with imaginary roots", solve_full(rotating))


if __name__ == "__main__":
    main()
