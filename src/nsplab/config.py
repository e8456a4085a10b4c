"""Line-oriented experiment configuration.

Grammar: ``[section]`` headers followed by ``key = value`` lines; ``#``
starts a comment; blank lines ignored.  Values are kept verbatim so a
config round-trips losslessly.  Decay queries live in sections named
``decay.<label>``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field as dc_field

import numpy as np

from .spectral import Grid
from .steady import DOPING_PRESETS, DopingProfile, doping_from_name
from .semigroup import LinearDecayQuery
from .thermo import FluidParams, GammaLaw
from .evolution import (PerturbationState, random_smooth_state,
                        single_mode_state, zero_state)

__all__ = ["ExperimentConfig", "ConfigError"]


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    sections: dict = dc_field(default_factory=dict)

    # -- parsing ---------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "ExperimentConfig":
        sections: dict[str, dict[str, str]] = {}
        current = None
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                name = line[1:-1].strip()
                if not name:
                    raise ConfigError(f"line {lineno}: empty section name")
                if name in sections:
                    raise ConfigError(f"line {lineno}: duplicate section {name!r}")
                current = sections.setdefault(name, {})
            elif "=" in line:
                if current is None:
                    raise ConfigError(f"line {lineno}: key outside any section")
                key, value = (part.strip() for part in line.split("=", 1))
                if key in current:
                    raise ConfigError(f"line {lineno}: duplicate key {key!r}")
                current[key] = value
            else:
                raise ConfigError(f"line {lineno}: cannot parse {raw!r}")
        return cls(sections=sections)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.parse(fh.read())

    def render(self) -> str:
        lines = []
        for name, body in self.sections.items():
            lines.append(f"[{name}]")
            for key, value in body.items():
                lines.append(f"{key} = {value}")
            lines.append("")
        return "\n".join(lines)

    def to_file(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.render())

    # -- typed access ----------------------------------------------------

    def get(self, section, key, cast=str, default=None, required=False):
        body = self.sections.get(section, {})
        if key not in body:
            if required:
                raise ConfigError(f"missing {section}.{key}")
            return default
        raw = body[key]
        try:
            if cast is bool:
                if raw.lower() in ("1", "true", "yes", "on"):
                    return True
                if raw.lower() in ("0", "false", "no", "off"):
                    return False
                raise ValueError(raw)
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc

    def has(self, section):
        return section in self.sections

    # -- builders --------------------------------------------------------

    def build_grid(self) -> Grid:
        return Grid(dim=self.get("grid", "dim", int, 3),
                    n=self.get("grid", "n", int, required=True),
                    length=self.get("grid", "length", float, 2.0 * np.pi))

    def build_fluid(self, doping: DopingProfile) -> FluidParams:
        """Fluid parameters around the doping's steady state: the reference
        density is the mean doping, the only value `solve_steady` accepts."""
        return FluidParams(
            law=GammaLaw(self.get("fluid", "gamma", float, 2.0)),
            mu=self.get("fluid", "mu", float, 1.0),
            mu_prime=self.get("fluid", "mu_prime", float, 0.0),
            rho_bar=doping.b_bar)

    def build_doping(self, grid: Grid) -> DopingProfile:
        preset = self.get("doping", "preset", str, "flat")
        if preset not in DOPING_PRESETS:
            raise ConfigError(f"unknown doping preset {preset!r}; "
                              f"choose from {sorted(DOPING_PRESETS)}")
        takes = inspect.signature(DOPING_PRESETS[preset]).parameters
        params = {}
        for key, cast in (("amplitude", float), ("center", float),
                          ("sigma", float), ("base", float), ("value", float),
                          ("mode", int)):
            v = self.get("doping", key, cast)
            if v is None:
                continue
            if key not in takes:
                raise ConfigError(
                    f"doping preset {preset!r} takes no key {key!r}")
            params[key] = v
        return doping_from_name(grid, preset, **params)

    def build_initial(self, grid: Grid) -> PerturbationState:
        preset = self.get("initial", "preset", str, "zero")
        amp = self.get("initial", "amplitude", float, 1e-3)
        if preset == "zero":
            return zero_state(grid)
        if preset == "mode":
            return single_mode_state(grid, mode=self.get("initial", "mode", int, 1),
                                     amplitude=amp)
        if preset == "random-smooth":
            return random_smooth_state(
                grid, seed=self.get("initial", "seed", int, 0),
                amplitude=amp, band=self.get("initial", "band", int, 3))
        raise ConfigError(f"unknown initial preset {preset!r}")

    def decay_queries(self):
        out = []
        for name in self.sections:
            if not name.startswith("decay."):
                continue
            label = name.split(".", 1)[1]
            q_raw = self.get(name, "q", str, "2")
            q = np.inf if q_raw in ("inf", "Inf") else float(q_raw)
            out.append((label, LinearDecayQuery(
                ell=self.get(name, "ell", float, 0.0),
                p=self.get(name, "p", float, 1.0),
                q=q,
                component=self.get(name, "component", str, "velocity"),
                parts=self.get(name, "parts", str, "both"))))
        return out
