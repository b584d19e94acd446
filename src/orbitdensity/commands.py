"""The bodies of the command-line commands and the config, lattice and
point parsers, imported by :func:`orbitdensity.cli.main` once the
arguments parse. Each command takes the parsed arguments, the config
file's values (its lattice block included) and the emitter."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import EXIT_OK, EXIT_VIOLATION, UsageError

if TYPE_CHECKING:
    from argparse import Namespace

    from .cli import Emitter
    from .fuchsian import LatticeSpec

# configuration keys of the lattice block, accepted by every command
LATTICE_KEYS = {"lattice.name", "lattice.generators", "lattice.covolume", "lattice.integral"}


def parse_point(text: str) -> complex:
    """Parse '1.5+0.5i', '2i', 'i' into a point of the upper half-plane."""
    from .hyperbolic import check_point

    cleaned = text.strip().replace("I", "i").replace("i", "j")
    try:
        z = complex(cleaned)
    except ValueError as exc:
        raise UsageError(f"cannot parse point {text!r}") from exc
    if not z.imag > 0.0:
        raise UsageError(f"point {text!r} is not in the open upper half-plane")
    return check_point(z)


def load_config(path: str) -> dict:
    values = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key = value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in values:
                raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = value.strip()
    return values


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise UsageError(f"cannot parse boolean {text!r}")


def _parse_float(text: str, key: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise UsageError(f"{key}: cannot parse number {text.strip()!r}") from exc


def lattice_from_config(name: str, config: dict) -> LatticeSpec:
    from . import fuchsian

    if config.get("lattice.name") == "psl2z":
        raise UsageError("lattice.name 'psl2z' is reserved for the built-in modular group")
    if name == "psl2z":
        return fuchsian.psl2z()
    if config.get("lattice.name") != name:
        raise UsageError(f"unknown lattice {name!r}; configure a lattice block or use psl2z")
    gens_text = config.get("lattice.generators")
    if not gens_text:
        raise UsageError("lattice block needs lattice.generators (row-major 4-tuples, ';'-separated)")
    generators = []
    for chunk in gens_text.split(";"):
        entries = [_parse_float(v, "lattice.generators") for v in chunk.split(",")]
        if len(entries) != 4:
            raise UsageError(f"generator needs 4 entries, got {chunk!r}")
        generators.append(entries)
    covolume = (
        _parse_float(config["lattice.covolume"], "lattice.covolume")
        if "lattice.covolume" in config
        else None
    )
    integral = _parse_bool(config["lattice.integral"]) if "lattice.integral" in config else False
    return fuchsian.LatticeSpec(
        name=name, generators=tuple(generators), covolume=covolume, is_integral=integral
    )


def cmd_finite_scan(args: Namespace, config: dict, emitter: Emitter) -> int:
    from . import finite_gabor

    if args.windows < 0 or args.seed < 0:
        raise UsageError("windows and seed must be nonnegative")
    columns, violations = finite_gabor.exhaustive_scan(args.n_max, windows_per_case=args.windows, seed=args.seed)
    emitter.table("scan_row", {c: columns[c] for c in finite_gabor.SCAN_CSV_COLUMNS})
    for violation in violations:
        emitter.record("violation", violation)
    emitter.summary(
        {
            "n_max": args.n_max,
            "windows_per_case": args.windows,
            "seed": args.seed,
            "total_cases": len(columns["n"]) + len(violations),
            "violations": len(violations),
        }
    )
    return EXIT_VIOLATION if violations else EXIT_OK


def cmd_formal_degree(args: Namespace, config: dict, emitter: Emitter) -> int:
    from . import bergman

    degree = bergman.formal_degree_closed_form(args.alpha, args.haar_scale)
    emitter.record("formal_degree", {"alpha": args.alpha, "haar_scale": args.haar_scale, "formal_degree": degree})
    emitter.summary({"formal_degree": degree})
    return EXIT_OK


def cmd_ball(args: Namespace, config: dict, emitter: Emitter) -> int:
    from . import fuchsian
    from .hyperbolic import frobenius_sq

    spec = lattice_from_config(args.lattice, config)
    ball = fuchsian.ball_enumerate(spec, args.norm)
    a, b, c, d = ball.elements.T.tolist()
    norms = list(map(math.sqrt, frobenius_sq(ball.elements).tolist()))
    emitter.table("element", {"a": a, "b": b, "c": c, "d": d, "frobenius_norm": norms})
    emitter.summary(
        {
            "lattice": spec.name,
            "norm_bound": args.norm,
            "size": len(ball.elements),
            "closure_certified": ball.closure_certified,
        }
    )
    return EXIT_OK


def cmd_stabilizer(args: Namespace, config: dict, emitter: Emitter) -> int:
    import numpy as np

    from . import bergman, fuchsian
    from .hyperbolic import act

    z = parse_point(args.z)
    # a bad weight fails before the ball is enumerated
    alpha = bergman.check_weight(args.alpha)
    spec = lattice_from_config(args.lattice, config)
    ball = fuchsian.ball_enumerate(spec, args.ball)
    # raises OracleInconsistencyError unless the overlaps match the points' distances
    members, phases = bergman.projective_stabilizer_kernel(
        ball, z, alpha, act(ball.elements, z), tol=args.tol
    )
    emitter.record(
        "stabilizer",
        {
            "lattice": spec.name,
            "z": f"{z.real}+{z.imag}i",
            "ball_norm": args.ball,
            "ball_size": len(ball.elements),
            "order": len(members),
            "members": " ".join(
                f"({a:.12g},{b:.12g};{c:.12g},{d:.12g})"
                for a, b, c, d in ball.elements[members].tolist()
            ),
            "max_phase_modulus_error": float(np.max(np.abs(np.abs(phases) - 1.0))),
        },
    )
    emitter.summary({"order": len(members)})
    return EXIT_OK


def cmd_bergman_density(args: Namespace, config: dict, emitter: Emitter) -> int:
    from . import bergman

    z = parse_point(args.z)
    spec = lattice_from_config(args.lattice, config)
    options = {name: getattr(args, name) for name in ("probes", "refine_steps", "refine_delta", "haar_scale")}
    # an option left unset takes density_analysis's default
    reports = bergman.density_analysis(
        spec, z, args.alpha, args.ball, **{name: v for name, v in options.items() if v is not None}
    )

    for report in reports:
        emitter.record("frame_report", report.to_flat_dict())
    final = reports[-1]
    emitter.summary(
        {
            "lattice": spec.name,
            "alpha": args.alpha,
            "z": f"{z.real}+{z.imag}i",
            "stab_order": final.stab_order,
            "covolume": final.covolume,
            "formal_degree": final.formal_degree,
            "density_product": final.density_product,
            "density_bound": final.density_bound,
            "verdict_i_applicable": final.verdict_i_applicable,
            "verdict_i_pass": final.verdict_i_pass,
            "verdict_ii_applicable": final.verdict_ii_applicable,
            "verdict_ii_pass": final.verdict_ii_pass,
            "verdict_consistency": "pass" if final.consistent else "flagged",
            "note": "numerical mode analyses finite truncations; decisions are trend-based, not proofs",
        }
    )
    return EXIT_OK
