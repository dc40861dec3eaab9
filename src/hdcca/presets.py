"""Named simulation presets: one-command reproduction paths.

Each preset freezes a SimSpec plus harness parameters.  ``kind`` selects the
output shape: ``single-run`` (one draw, histogram + spike/angle tables),
``mc`` (replicated angles at the preset strengths), ``mc-curve`` (replicated
angles swept over a grid of signal strengths), and ``theory-curve`` (no
simulation, closed-form curves only).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .simulate import SimSpec


@dataclass(frozen=True)
class Preset:
    name: str
    kind: str                 # single-run | mc | mc-curve | theory-curve
    description: str
    spec_kwargs: dict = field(default_factory=dict)
    replications: int = 1
    rho_grid: tuple[float, ...] = ()


def _default_rho_grid(n=25):
    # squared strengths spanning both sides of typical detection cutoffs
    return tuple(float(v) for v in np.linspace(0.05, 0.95, n))


PRESETS: dict[str, Preset] = {
    p.name: p
    for p in [
        Preset(
            name="fig1",
            kind="single-run",
            description="histogram with one spike: K=1000, M=1500, S=8000, r^2=0.49",
            spec_kwargs=dict(K=1000, M=1500, S=8000, signal_strengths=(0.7,)),
        ),
        Preset(
            name="fig2",
            kind="theory-curve",
            description="spike location and angles as functions of signal strength",
            spec_kwargs=dict(K=1000, M=1500, S=8000),
        ),
        Preset(
            name="fig4-uniform",
            kind="single-run",
            description="uniform noise, one signal at full scale",
            spec_kwargs=dict(
                K=1000, M=1500, S=8000, signal_strengths=(0.7,), noise_law="uniform"
            ),
        ),
        Preset(
            name="fig4-t3",
            kind="single-run",
            description="heavy-tailed t(3) noise, one signal at full scale",
            spec_kwargs=dict(
                K=1000,
                M=1500,
                S=8000,
                signal_strengths=(0.7,),
                noise_law="student_t",
                noise_df=3.0,
            ),
        ),
        Preset(
            name="fig5",
            kind="mc-curve",
            description="single-draw angle curves over strengths: K=500, M=2500, S=8000",
            spec_kwargs=dict(K=500, M=2500, S=8000),
            replications=1,
            rho_grid=_default_rho_grid(),
        ),
        Preset(
            name="fig7",
            kind="single-run",
            description="three signals r=0.95/0.75/0.7 at full scale",
            spec_kwargs=dict(
                K=1000, M=1500, S=8000, signal_strengths=(0.95, 0.75, 0.7)
            ),
        ),
        Preset(
            name="fig8",
            kind="mc-curve",
            description="small dimensions, wide bands: K=5, M=25, S=80",
            spec_kwargs=dict(K=5, M=25, S=80),
            replications=1000,
            rho_grid=_default_rho_grid(),
        ),
        Preset(
            name="fig9",
            kind="mc-curve",
            description="intermediate dimensions: K=50, M=250, S=800",
            spec_kwargs=dict(K=50, M=250, S=800),
            replications=200,
            rho_grid=_default_rho_grid(),
        ),
        Preset(
            name="desk",
            kind="mc",
            description="desk-scale check: K=200, M=300, S=1600, r^2=0.49, 50 reps",
            spec_kwargs=dict(K=200, M=300, S=1600, signal_strengths=(0.7,)),
            replications=50,
        ),
    ]
}


def build_spec(preset: Preset, seed: int | None = None) -> SimSpec:
    kwargs = dict(preset.spec_kwargs)
    if seed is not None:
        kwargs["seed"] = seed
    return SimSpec(**kwargs)
