"""Regenerate reference_m2.json, the sentinel second moments of analytic_sweep.

Each reference is ``moment_m2_quad4`` with 128 Gauss-Legendre nodes per axis;
the script refuses to write a value that moves by more than 1e-8 relative
between 96 and 128 nodes.  Takes a few minutes on two cores:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from contris import analytic, cli, quadrature, sysmodel  # noqa: E402
from contris.sysmodel import CorrelationKind  # noqa: E402

# (kind, kappa, area m2, aspect): both models, square and 20:1, weak and
# strong correlation (kappa = 0.05 puts the 2F1 argument near 1).  The 20:1
# points keep kappa small: at kappa = 0.5 the long side spans 14 correlation
# periods and the tensor rule has not converged to 1e-8 at 128 nodes.
SENTINELS = (
    ("sinc", 0.3, 0.1, 1.0),
    ("jakes", 1.0, 0.1, 1.0),
    ("jakes", 0.1, 0.1, 20.0),
    ("sinc", 0.05, 0.1, 20.0),
)
NODES = (96, 128)
AGREEMENT = 1e-8


def main() -> int:
    wavelength = cli.default_system().correlation.wavelength_m
    points = []
    for kind, kappa, area, aspect in SENTINELS:
        width = math.sqrt(aspect * area)
        geom = sysmodel.SurfaceGeometry(width, area / width)
        model = sysmodel.IsotropicCorrelation(CorrelationKind(kind), kappa, wavelength)
        coarse, fine = (analytic.moment_m2_quad4(
            geom, model, 1.0, quadrature.QuadratureSpec(nodes_4d=n)) for n in NODES)
        if abs(coarse - fine) > AGREEMENT * fine:
            print(f"{kind} kappa={kappa}: quad4 not converged "
                  f"({coarse!r} vs {fine!r})", file=sys.stderr)
            return 1
        points.append({"kind": kind, "kappa": kappa, "width_m": geom.width_m,
                       "height_m": geom.height_m, "wavelength_m": wavelength,
                       "beta_ur": 1.0, "m2_ref": fine, "nodes_4d": NODES[-1]})
        print(points[-1])
    (HERE / "reference_m2.json").write_text(json.dumps({"points": points}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
