"""Checks of the program's outputs against reference values and required properties.

Each check_* function takes a parsed report (or call summary) and the
reference values the benchmark computed, and returns a list of failure
messages; an empty list means every check held.
"""
from __future__ import annotations

import math

# stated tolerances
P2_AGREEMENT = 1e-6      # lambda_1(2) against the 5-point value, quadratic norms
LAMBDA2_PER_H = 1.5      # |lambda_2(2) / 5-point lambda_2 - 1| <= LAMBDA2_PER_H * h
EXACT = 1e-12            # rho_F, rho_2F and recomputed report fields
KAPPA = 1e-9             # Wulff-shape area against its closed form
QUOTIENT_SLACK = 1e-9    # lambda_1(p) <= R_p(distance field) * (1 + slack)
IDENTITY_TOL = 0.05      # |sup_rayleigh * rho_F - 1|
EIKONAL_MIN = 0.95


class Failures(list):
    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.append(what)

    def close(self, what: str, got: float, want: float, rel: float = 0.0, abs_: float = 0.0) -> None:
        ok = math.isfinite(got) and abs(got - want) <= max(abs_, rel * abs(want))
        self.expect(ok, f"{what}: got {got!r}, want {want!r} (rel {rel:g}, abs {abs_:g})")

    def increasing(self, what: str, values) -> None:
        self.expect(all(b > a for a, b in zip(values, values[1:])),
                    f"{what} not strictly increasing: {list(values)}")

    def decreasing(self, what: str, values) -> None:
        self.expect(all(b < a for a, b in zip(values, values[1:])),
                    f"{what} not strictly decreasing: {list(values)}")


def _flags(out: Failures, report: dict, rc: int) -> None:
    """The exit code, the pass flags, and every flag recomputed from its two sides."""
    for c in report["checks"]:
        if c["kind"] == "ge":
            again = c["left"] >= c["right"] * (1.0 - c["tolerance"])
        else:
            again = c["left"] <= c["right"] + c["tolerance"]
        out.expect(again == c["passed"], f"check {c['name']} flag does not follow from its sides")
        out.expect(c["passed"], f"check {c['name']} failed: left {c['left']!r}, right {c['right']!r}")
    out.expect(report["passed"] == all(c["passed"] for c in report["checks"]), "report pass flag")
    out.expect(rc == (0 if report["passed"] else 1), f"exit code {rc} against pass flag {report['passed']}")


def _p2_quadratic(out: Failures, what: str, lam: float, ref: float | None) -> None:
    if ref is not None:
        out.close(f"{what} lambda_1(2) against the 5-point value", lam, ref, rel=P2_AGREEMENT)


def _rectangle(out: Failures, lam2: float, ref: dict | None) -> None:
    """ref: exact 5-point value on the rectangle lattice, the continuum value and the O(h^2) bound."""
    if ref is None:
        return
    out.close("5-point reference against the exact lattice value", ref["five_point"], ref["lattice"], rel=1e-9)
    deficit = 1.0 - lam2 / ref["analytic"]
    out.expect(-1e-9 <= deficit <= ref["bound"] * (1.0 + 1e-6),
               f"lambda_1(2) {lam2!r} against pi^2 (a1/L1^2 + a2/L2^2) = {ref['analytic']!r}: "
               f"relative deficit {deficit:.3e} outside [0, {ref['bound']:.3e}]")


def _below_quotient(out: Failures, what: str, p: float, lam: float, quotient: float) -> None:
    out.expect(lam <= quotient * (1.0 + QUOTIENT_SLACK),
               f"{what} lambda_1({p:g}) = {lam!r} above the distance-field quotient {quotient!r}")


def check_faber_krahn(report: dict, rc: int, ref: dict) -> list:
    """ref: kappa, measure (None unless exact), lam1_5pt, lam1_wulff_5pt, rectangle, quotient, quotient_wulff."""
    out = Failures()
    _flags(out, report, rc)
    recs = report["records"]
    for r in recs:
        p = r["p"]
        out.close(f"kappa at p={p:g}", r["kappa"], ref["kappa"], rel=KAPPA)
        if ref["measure"] is not None:
            out.close("measure against the rectangle lattice", r["measure"], ref["measure"], rel=EXACT)
        out.close(f"left at p={p:g}", r["left"], r["measure"] ** (p / 2) * r["lambda1"], rel=EXACT)
        out.close(f"right at p={p:g}", r["right"], r["measure_wulff"] ** (p / 2) * r["lambda1_wulff"], rel=EXACT)
        out.expect(r["left"] >= r["right"] * (1.0 - report["inputs"]["tolerance"]),
                   f"Faber-Krahn inequality at p={p:g}: {r['left']!r} < {r['right']!r}")
        _below_quotient(out, "domain", p, r["lambda1"], ref["quotient"][p])
        _below_quotient(out, "Wulff shape", p, r["lambda1_wulff"], ref["quotient_wulff"][p])
        if p == 2.0:
            _p2_quadratic(out, "domain", r["lambda1"], ref["lam1_5pt"])
            _p2_quadratic(out, "Wulff shape", r["lambda1_wulff"], ref["lam1_wulff_5pt"])
            _rectangle(out, r["lambda1"], ref["rectangle"])
    out.increasing("p * lambda_1(p)^(1/p)", [r["p"] * r["lambda1"] ** (1.0 / r["p"]) for r in recs])
    return out


def check_hks(report: dict, rc: int, ref: dict) -> list:
    """ref: kappa, h, lam2_5pt, lam1_ref_5pt, lambda1 (p -> lambda_1 of the same domain)."""
    out = Failures()
    _flags(out, report, rc)
    for r in report["records"]:
        p = r["p"]
        area = r["measure"]
        out.close(f"reference radius at p={p:g}", r["radius_ref"], math.sqrt(0.5 * area / ref["kappa"]), rel=KAPPA)
        scaled = r["lambda1_ref_raster"] * (0.5 * r["measure_ref"] / (0.5 * area)) ** (p / 2)
        out.close(f"lambda2_ref at p={p:g}", r["lambda2_ref"], scaled, rel=EXACT)
        out.expect(r["lambda2"] >= r["lambda2_ref"] * (1.0 - report["inputs"]["tolerance"]),
                   f"Hong-Krahn-Szego inequality at p={p:g}: {r['lambda2']!r} < {r['lambda2_ref']!r}")
        out.expect(r["lambda2"] >= ref["lambda1"][p] * (1.0 - QUOTIENT_SLACK),
                   f"lambda_2({p:g}) = {r['lambda2']!r} below lambda_1 = {ref['lambda1'][p]!r}")
        if p == 2.0:
            _lambda2_near_five_point(out, r["lambda2"], ref["lam2_5pt"], ref["h"])
            _p2_quadratic(out, "reference shape", r["lambda1_ref_raster"], ref["lam1_ref_5pt"])
    return out


def _lambda2_near_five_point(out: Failures, lam2: float, ref: float | None, h: float) -> None:
    if ref is not None:
        out.close("lambda_2(2) against the 5-point value", lam2, ref, rel=LAMBDA2_PER_H * h)


def check_lambda2(report: dict, rc: int, ref: dict) -> list:
    """ref: h, lam_5pt = (lambda_1, lambda_2) of the 5-point matrix.

    Every bipartition candidate is documented as a certified upper bound of
    the discrete lambda_2, so the reported value may not fall below the
    5-point one.
    """
    out = Failures()
    _flags(out, report, rc)
    lam1, lam2 = ref["lam_5pt"]
    for r in report["records"]:
        _lambda2_near_five_point(out, r["lambda2"], lam2, ref["h"])
        out.expect(r["lambda2"] >= lam1, f"lambda_2 {r['lambda2']!r} below the 5-point lambda_1 {lam1!r}")
        out.expect(max(r["lambda1_part1"], r["lambda1_part2"]) == r["lambda2"], "lambda_2 is not the larger part value")
        out.expect(r["lambda2"] >= lam2 * (1.0 - 1e-9),
                   f"upper bound: reported lambda_2 {r['lambda2']!r} is below the 5-point "
                   f"lambda_2 {lam2!r} ({r['lambda2'] / lam2 - 1.0:+.2%})")
    return out


def check_p_limit(report: dict, rc: int, ref: dict) -> list:
    """ref: h, rho_f, rho_2f, quotient (p -> R_p), lam_5pt, rectangle."""
    out = Failures()
    _flags(out, report, rc)
    recs = report["records"]
    for r in recs:
        p = r["p"]
        out.close("rho_F against brute force", r["rho_f"], ref["rho_f"], abs_=EXACT)
        out.close("rho_2F against brute force", r["rho_2f"], ref["rho_2f"], abs_=EXACT)
        out.expect(r["lambda2"] >= r["lambda1"], f"lambda_2({p:g}) {r['lambda2']!r} < lambda_1 {r['lambda1']!r}")
        out.close(f"gap1 at p={p:g}", r["gap1"], abs(r["lambda1"] ** (1 / p) * r["rho_f"] - 1.0), abs_=EXACT)
        out.close(f"gap2 at p={p:g}", r["gap2"], abs(r["lambda2"] ** (1 / p) * r["rho_2f"] - 1.0), abs_=EXACT)
        out.close(f"p * lambda_1^(1/p) at p={p:g}", r["monotone_diagnostic"], p * r["lambda1"] ** (1 / p), rel=EXACT)
        _below_quotient(out, "domain", p, r["lambda1"], ref["quotient"][p])
        if p == 2.0:
            _p2_quadratic(out, "domain", r["lambda1"], ref["lam_5pt"][0])
            _lambda2_near_five_point(out, r["lambda2"], ref["lam_5pt"][1], ref["h"])
            _rectangle(out, r["lambda1"], ref["rectangle"])
    out.increasing("p * lambda_1(p)^(1/p)", [r["monotone_diagnostic"] for r in recs])
    out.decreasing("gap1", [r["gap1"] for r in recs])
    out.decreasing("gap2", [r["gap2"] for r in recs])
    return out


def check_distance(report: dict, rc: int, ref: dict) -> list:
    """ref: rho_f and rho_2f by brute force, d at the reported argmax node."""
    out = Failures()
    _flags(out, report, rc)
    r = report["records"][0]
    out.close("rho_F against brute force", r["rho_f"], ref["rho_f"], abs_=EXACT)
    out.close("rho_F against the distance at its argmax node", r["rho_f"], ref["d_argmax"], abs_=EXACT)
    out.close("rho_2F against brute force", r["rho_2f"], ref["rho_2f"], abs_=EXACT)
    out.close("identity", r["identity"], r["sup_rayleigh"] * r["rho_f"], rel=EXACT)
    out.expect(abs(r["identity"] - 1.0) <= IDENTITY_TOL,
               f"sup_rayleigh * rho_F = {r['identity']!r}, not within {IDENTITY_TOL} of 1")
    out.expect(r["eikonal_bulk_fraction"] >= EIKONAL_MIN,
               f"eikonal bulk fraction {r['eikonal_bulk_fraction']!r} < {EIKONAL_MIN}")
    return out


def check_geometry_call(summary: dict, ref: dict) -> list:
    """Direct distance_transform / two_wulff_radius / eikonal_bulk_fraction calls on one grid and norm.

    ref: d_sample (brute force at the seeded sample nodes, in order), rho_2f
    (brute force over the nodes that can hold a packing ball), pair_value
    (min(d1, d2, F_polar(c1 - c2)/2) at the returned centers, brute-force d).
    """
    out = Failures()
    for i, (got, want) in enumerate(zip(summary["d_sample"], ref["d_sample"])):
        out.close(f"distance at sample node {i}", got, want, rel=EXACT, abs_=EXACT)
    out.expect(summary["rho_f"] == max(summary["d_sample"] + [summary["rho_f"]]), "a sampled distance exceeds rho_F")
    out.close("rho_F against the distance at its argmax node", summary["rho_f"], ref["d_argmax"], abs_=EXACT)
    out.close("rho_2F against brute force", summary["rho_2f"], ref["rho_2f"], abs_=EXACT)
    out.expect(ref["pair_value"] >= summary["rho_2f"] - EXACT,
               f"the returned centers hold balls of radius {ref['pair_value']!r} < rho_2F {summary['rho_2f']!r}")
    out.expect(summary["rho_2f"] <= summary["rho_f"], "rho_2F exceeds rho_F")
    out.expect(summary["eikonal"] >= EIKONAL_MIN, f"eikonal bulk fraction {summary['eikonal']!r} < {EIKONAL_MIN}")
    return out
