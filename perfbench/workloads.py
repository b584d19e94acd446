"""Workloads of the orbitdensity benchmark and the checks on their output.

Each workload is one or more ``orbit-density`` command lines, built from the
seed; one repetition of a workload runs each of them once, in order.
Its output is checked against oracles that do not use the code under
test: integer formulas for case and ball counts, exact fractions for the
density inequalities, and the closed form ``(alpha - 1) / 12`` of the
PSL(2, Z) density product.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction

IDENTITY_RESIDUAL_TOL = 1e-10
DENSITY_PRODUCT_RTOL = 1e-4
FLOAT_RTOL = 1e-12
RHO = "0.5+0.8660254037844386i"


@dataclass(frozen=True)
class Command:
    """One CLI command line of a workload, with the checks on its output."""

    label: str
    kind: str  # "scan" or "density"
    size: dict  # measured size
    smoke: dict  # size for the benchmark's own tests

    def argv(self, seed: int, smoke: bool = False) -> list[str]:
        """The CLI arguments of one run; the same seed gives the same inputs."""
        size = self.smoke if smoke else self.size
        if self.kind == "scan":
            return [
                "finite-scan",
                "--n-max", str(size["n_max"]),
                "--windows", str(size["windows"]),
                "--seed", str(seed),
                "--format", "csv",
            ]
        z = generic_point(seed) if size["stab_order"] == 1 else RHO
        # points go in as --z=VALUE: a leading '-' after a bare --z is read as a flag
        argv = [
            "bergman-density",
            "--lattice", "psl2z",
            "--alpha", str(size["alpha"]),
            f"--z={z}",
            "--ball", str(size["ball"]),
            "--probes", "40",
        ]
        if "refine_steps" in size:
            argv += ["--refine-steps", str(size["refine_steps"]), "--refine-delta", str(size["refine_delta"])]
        return argv

    def check(self, stdout: str, stderr: str, smoke: bool = False) -> tuple[list[str], dict]:
        """Failed checks (empty when the output is right) and facts for the report."""
        size = self.smoke if smoke else self.size
        if self.kind == "scan":
            return check_scan(stdout, stderr, size)
        return check_density(stdout, size)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[Command, ...]


SCAN = Command("scan", "scan", {"n_max": 7, "windows": 6}, {"n_max": 3, "windows": 2})
GENERIC = Command(
    "generic",
    "density",
    {"alpha": 2, "ball": 13, "stab_order": 1},
    {"alpha": 2, "ball": 6, "stab_order": 1},
)
ELLIPTIC = Command(
    "elliptic",
    "density",
    {"alpha": 3, "ball": 17, "refine_steps": 5, "refine_delta": 1.5, "stab_order": 3},
    {"alpha": 3, "ball": 6, "refine_steps": 5, "refine_delta": 1.5, "stab_order": 3},
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scan-exact",
            "about a thousand tiny exact cases: per-case Python overhead and ~13 small "
            "eigensolves each in finite_gabor/frames/linalg; no Bergman code runs",
            (SCAN,),
        ),
        Workload(
            "density",
            "a generic point (whole ball as transversal, Gram-bound) then rho (order-3 "
            "stabiliser, cosets, S-relation, five truncations); finite_gabor is unused",
            (GENERIC, ELLIPTIC),
        ),
    )
}


def generic_point(seed: int) -> str:
    """A point of the standard fundamental domain with |x| <= 0.4 and |z| >= 1.2,
    away from i and rho, so its stabiliser in PSL(2, Z) is trivial."""
    rng = random.Random(seed)
    x = rng.uniform(-0.4, 0.4)
    y = math.sqrt(1.44 - x * x) + rng.uniform(0.0, 0.6)
    return f"{x!r}+{y!r}i"


def subgroup_count(n: int) -> int:
    """Number of subgroups of Z_n x Z_n: the sum of gcd(a, b) over divisors a, b of n."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return sum(math.gcd(a, b) for a in divisors for b in divisors)


def expected_cases(n_max: int, windows: int) -> int:
    """Cases of ``finite-scan``: per subgroup, the random windows plus the n basis
    vectors, the constant vector and one indicator per divisor 2 <= d < n."""
    return sum(
        subgroup_count(n) * (windows + n + 1 + sum(1 for d in range(2, n) if n % d == 0))
        for n in range(2, n_max + 1)
    )


@functools.cache
def psl2z_ball_count(radius: float) -> int:
    """Elements of PSL(2, Z) with Frobenius norm at most ``radius``, counted on
    integer matrices with ad - bc = 1 and halved for the sign."""
    bound = radius * radius + 1e-9
    r = math.isqrt(int(bound))
    count = 0
    for a in range(-r, r + 1):
        for b in range(-r, r + 1):
            for c in range(-r, r + 1):
                rest = bound - (a * a + b * b + c * c)
                if rest < 0:
                    continue
                if a != 0:
                    d, remainder = divmod(1 + b * c, a)
                    count += remainder == 0 and d * d <= rest
                elif b * c == -1:
                    count += 2 * math.isqrt(int(rest)) + 1
    return count // 2


def _summary_lines(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        if line.startswith("# ") and " = " in line:
            key, _, value = line[2:].partition(" = ")
            out[key] = value
    return out


def _close(value: float, expected: float, rtol: float = FLOAT_RTOL) -> bool:
    return abs(value - expected) <= rtol * abs(expected)


def check_scan(stdout: str, stderr: str, size: dict) -> tuple[list[str], dict]:
    failures = []
    summary = _summary_lines(stderr)
    expected = expected_cases(size["n_max"], size["windows"])
    rows = list(csv.DictReader(io.StringIO(stdout)))
    if summary.get("violations") != "0":
        failures.append(f"violations = {summary.get('violations')!r}, expected 0")
    if summary.get("total_cases") != str(expected):
        failures.append(f"total_cases = {summary.get('total_cases')!r}, expected {expected}")
    if len(rows) != expected:
        failures.append(f"{len(rows)} CSV rows, expected {expected}")
    bad = []
    for row in rows:
        try:
            n, order, stab = int(row["n"]), int(row["subgroup_order"]), int(row["stab_order"])
            density, bound = Fraction(n, order), Fraction(1, stab)
            ok = (
                float(row["max_identity_residual"]) <= IDENTITY_RESIDUAL_TOL
                and int(row["lambda_size"]) * stab == order
                and _close(float(row["vol_times_d"]), float(density))
                and _close(float(row["bound"]), float(bound))
                and (row["is_frame"] != "true" or density <= bound)
                and (row["is_riesz"] != "true" or density >= bound)
            )
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            ok = False
        if not ok:
            bad.append(row)
    if bad:
        failures.append(f"{len(bad)} rows fail the residual, coset or density checks, first {bad[0]}")
    return failures, {"total_cases": len(rows)}


def parse_human(text: str) -> list[dict]:
    """Records of the CLI's human format: '[kind]' then 'key = value' lines."""
    records = []
    for line in text.splitlines():
        if line.startswith("[") and line.endswith("]"):
            records.append({"type": line[1:-1]})
        elif " = " in line and records:
            key, _, value = line.partition(" = ")
            records[-1][key] = value
    return records


def check_density(stdout: str, size: dict) -> tuple[list[str], dict]:
    failures = []
    records = parse_human(stdout)
    steps = [r for r in records if r["type"] == "frame_report"]
    summaries = [r for r in records if r["type"] == "summary"]
    if len(steps) != size.get("refine_steps", 3) or len(summaries) != 1:
        return [f"{len(steps)} frame reports and {len(summaries)} summaries"], {}
    summary = summaries[0]
    expected_product = (size["alpha"] - 1) / 12
    try:
        product = float(summary["density_product"])
        if abs(product - expected_product) > DENSITY_PRODUCT_RTOL * expected_product:
            failures.append(f"density_product {product!r}, closed form {expected_product!r}")
        if int(summary["stab_order"]) != size["stab_order"]:
            failures.append(f"stab_order {summary['stab_order']}, expected {size['stab_order']}")
        for step in steps:
            radius = float(step["diag_truncation_radius"])
            gamma = int(step["diag_gamma_count"])
            if step["diag_ball_certified"] != "true":
                failures.append(f"ball not certified at radius {radius}")
            if gamma != psl2z_ball_count(radius):
                failures.append(f"gamma_count {gamma} at radius {radius}, oracle {psl2z_ball_count(radius)}")
            if size["stab_order"] == 1 and int(step["diag_lambda_count"]) != gamma:
                failures.append(f"lambda_count {step['diag_lambda_count']} != gamma_count {gamma}")
            if float(step["diag_s_relation_residual"]) > IDENTITY_RESIDUAL_TOL:
                failures.append(f"s_relation_residual {step['diag_s_relation_residual']} at radius {radius}")
    except (KeyError, ValueError) as exc:
        failures.append(f"malformed report: {exc!r}")
    # recorded, not a failure: no workload sits at a critical alpha
    facts = {"verdict_consistency": summary.get("verdict_consistency")}
    return failures, facts
