"""How far is a distribution from its own negation?

The dissimilarity family indexes one number by a sharpness level alpha.
Level 0 is the most sensitive; every further level damps the l1 distance
by another factor of two inside a logarithm, so the profile decays
roughly geometrically.  The second half of the script ties this to the
convergence picture: iterating negation walks toward uniform, and the
dissimilarity-to-iterate curve wiggles on the way because odd and even
iterates sit on opposite sides of the target.
"""

import argparse

from neglab import converge_traces, make_dist, negation_dissimilarity, negation_profiles


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=int, default=6, help="alpha levels to show")
    args = ap.parse_args()

    p = make_dist([1 / 3, 1 / 6, 1 / 6, 1 / 3])

    print("Dissimilarity between p and negate(p), by level:")
    for a in range(args.levels):
        res = negation_dissimilarity(p, a)
        bar = "#" * max(1, round(60 * res.value))
        print(f"  alpha={a:<2} value={res.value:.9f}  {bar}")
    print(f"  (the pair's l1 distance stays fixed at {negation_dissimilarity(p, 0).l1:.6f})")

    # one profile holds both audits: the properties over the levels, and the
    # iterates compared at the lowest level, alpha = 0
    profile = negation_profiles([p], list(range(args.levels)), depth=5).row(0)
    props = profile.properties
    print(f"\nproperty certificate holds: {props.holds}")
    observed = {c.name: c.holds for c in props.detail}
    print(f"  non-increasing in alpha: {observed['value_non_increasing_in_alpha']}")
    print(f"  non-decreasing in alpha: {observed['value_non_decreasing_in_alpha']} (recorded, not asserted)")

    print("\nDissimilarity from p to its first few negation iterates:")
    report = profile.iterated
    for k, res in enumerate(report.results, start=1):
        print(f"  k={k}: {res.value:.9f}")
    print(f"  monotone non-decreasing in k: {report.non_decreasing}")
    print("  (odd iterates overshoot past uniform, so the curve wiggles)")

    trace = converge_traces([p], tolerance=1e-9).row(0)
    print(f"\nconverge_traces: {trace.steps} steps to within 1e-9 of uniform")
    print("  max-distance per step:", " ".join(f"{d:.1e}" for d in trace.distances[:6]), "...")


if __name__ == "__main__":
    main()
