"""The bodies of the command-line commands, their settings and parsers,
imported by :func:`orbitdensity.cli.main` once the arguments parse."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import EXIT_OK, EXIT_VIOLATION, UsageError

if TYPE_CHECKING:
    from .cli import Emitter
    from .fuchsian import LatticeSpec
    from .hyperbolic import UpperHalfPoint

# configuration keys of the lattice block, accepted by every command
_LATTICE_KEYS = {"lattice.name", "lattice.generators", "lattice.covolume", "lattice.integral"}


def parse_point(text: str) -> UpperHalfPoint:
    """Parse '1.5+0.5i', '2i', 'i' into an upper half-plane point."""
    from .hyperbolic import UpperHalfPoint

    cleaned = text.strip().replace("I", "i").replace("i", "j")
    try:
        z = complex(cleaned)
    except ValueError as exc:
        raise UsageError(f"cannot parse point {text!r}") from exc
    if not z.imag > 0.0:
        raise UsageError(f"point {text!r} is not in the open upper half-plane")
    return UpperHalfPoint(z.real, z.imag)


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
    from .hyperbolic import MoebiusMap

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
        generators.append(MoebiusMap(*entries))
    covolume = (
        _parse_float(config["lattice.covolume"], "lattice.covolume")
        if "lattice.covolume" in config
        else None
    )
    integral = _parse_bool(config["lattice.integral"]) if "lattice.integral" in config else False
    return fuchsian.LatticeSpec(
        name=name, generators=tuple(generators), covolume=covolume, is_integral=integral
    )


class Settings:
    """Merged view of flags, config file, and defaults."""

    def __init__(self, args, config: dict):
        self.args = args
        self.config = config
        # a config key names a parameter of the command's own flags
        allowed = (set(vars(args)) - {"command", "config"}) | _LATTICE_KEYS
        unknown = set(config) - allowed
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")

    def get(self, name: str, default, parse=None):
        value = getattr(self.args, name, None)
        if value is not None:
            return value
        if name in self.config:
            raw = self.config[name]
            if parse is None:
                return raw
            try:
                return parse(raw)
            except ValueError as exc:
                raise UsageError(f"config key {name}: cannot parse {raw!r}") from exc
        return default


def cmd_finite_scan(settings: Settings, emitter: Emitter) -> int:
    n_max = settings.get("n_max", None, int)
    if n_max is None:
        raise UsageError("finite-scan requires --n-max")
    from . import finite_gabor

    windows = settings.get("windows", 50, int)
    seed = settings.get("seed", 0, int)
    if windows < 0 or seed < 0:
        raise UsageError("windows and seed must be nonnegative")
    report = finite_gabor.exhaustive_scan(n_max, windows_per_case=windows, seed=seed)
    for row in report.rows:
        emitter.record("scan_row", {c: row[c] for c in finite_gabor.SCAN_CSV_COLUMNS})
    for violation in report.violations:
        emitter.record("violation", violation)
    emitter.summary(report.summary())
    return EXIT_VIOLATION if report.violations else EXIT_OK


def cmd_formal_degree(settings: Settings, emitter: Emitter) -> int:
    from . import bergman

    alpha = settings.get("alpha", None, float)
    if alpha is None:
        raise UsageError("formal-degree requires --alpha")
    haar_scale = settings.get("haar_scale", 1.0, float)
    degree = bergman.formal_degree_closed_form(bergman.Weight(alpha), haar_scale)
    emitter.record("formal_degree", {"alpha": alpha, "haar_scale": haar_scale, "formal_degree": degree})
    emitter.summary({"formal_degree": degree})
    return EXIT_OK


def cmd_ball(settings: Settings, emitter: Emitter) -> int:
    from . import fuchsian
    from .hyperbolic import frobenius_sq

    norm = settings.get("norm", None, float)
    if norm is None:
        raise UsageError("ball requires --norm")
    spec = lattice_from_config(settings.get("lattice", "psl2z"), settings.config)
    ball = fuchsian.ball_enumerate(spec, norm)
    for (a, b, c, d), norm_sq in zip(ball.elements.tolist(), frobenius_sq(ball.elements).tolist()):
        emitter.record("element", {"a": a, "b": b, "c": c, "d": d, "frobenius_norm": math.sqrt(norm_sq)})
    emitter.summary(
        {
            "lattice": spec.name,
            "norm_bound": norm,
            "size": len(ball.elements),
            "closure_certified": ball.closure_certified,
        }
    )
    return EXIT_OK


def cmd_stabilizer(settings: Settings, emitter: Emitter) -> int:
    import numpy as np

    from . import bergman, fuchsian

    z_text = settings.get("z", None)
    ball_norm = settings.get("ball", None, float)
    if z_text is None or ball_norm is None:
        raise UsageError("stabilizer requires --z and --ball")
    z = parse_point(z_text)
    # a bad weight fails before the ball is enumerated
    kernel = bergman.KernelOrbit.plain([z], bergman.Weight(settings.get("alpha", 2.0, float)))
    tol = settings.get("tol", 1e-4, float)
    spec = lattice_from_config(settings.get("lattice", "psl2z"), settings.config)
    ball = fuchsian.ball_enumerate(spec, ball_norm)
    # raises OracleInconsistencyError unless the overlaps match the points' distances
    members, phases = bergman.projective_stabilizer_kernel(
        ball, kernel, bergman.orbit_system(ball.elements, kernel), tol=tol
    )
    emitter.record(
        "stabilizer",
        {
            "lattice": spec.name,
            "z": f"{z.x}+{z.y}i",
            "ball_norm": ball_norm,
            "ball_size": len(ball.elements),
            "order": len(members),
            "order_kernel": len(members),
            "members": " ".join(
                f"({a:.12g},{b:.12g};{c:.12g},{d:.12g})"
                for a, b, c, d in ball.elements[members].tolist()
            ),
            "max_phase_modulus_error": float(np.max(np.abs(np.abs(phases) - 1.0))),
        },
    )
    emitter.summary({"order": len(members)})
    return EXIT_OK


# keyword options of bergman.density_analysis, with the parser of a config value
_DENSITY_OPTIONS = {
    "probes": int, "probe_radius": float, "refine_steps": int, "refine_delta": float,
    "frame_floor": float, "riesz_floor": float, "haar_scale": float,
}


def cmd_bergman_density(settings: Settings, emitter: Emitter) -> int:
    from . import bergman

    alpha = settings.get("alpha", None, float)
    if alpha is None:
        raise UsageError("bergman-density requires --alpha")
    z_text = settings.get("z", None)
    if z_text is None:
        raise UsageError("bergman-density requires --z")
    z = parse_point(z_text)
    ball_norm = settings.get("ball", None, float)
    if ball_norm is None:
        raise UsageError("bergman-density requires --ball")
    spec = lattice_from_config(settings.get("lattice", "psl2z"), settings.config)
    options = {name: settings.get(name, None, parse) for name, parse in _DENSITY_OPTIONS.items()}
    # an option left unset takes density_analysis's default
    reports = bergman.density_analysis(
        spec, z, alpha, ball_norm, **{name: v for name, v in options.items() if v is not None}
    )

    for report in reports:
        emitter.record("frame_report", report.to_flat_dict())
    final = reports[-1]
    emitter.summary(
        {
            "lattice": spec.name,
            "alpha": alpha,
            "z": f"{z.x}+{z.y}i",
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
