"""Built-in catalog of named problems, runnable by id from the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    title: str
    task: str  # certify | localize | index | trace
    source: str
    kwargs: dict = field(default_factory=dict)
    exit: int = field(kw_only=True)  # the CLI exit code the entry's task returns


_ENTRIES = [
    CatalogEntry(
        "miranda-const-1d",
        "constant map 0.5 on [0,1]: compressive face conditions hold",
        "certify",
        "dim 1\nmap g1 = 0.5\ndomain rect [0,1]\n",
        exit=0,
    ),
    CatalogEntry(
        "miranda-linear-2d",
        "linear map with one expansive and one compressive coordinate",
        "certify",
        "dim 2\nmap g1 = 2*x1 - 0.5\nmap g2 = 0.25 + 0.5*x2\n"
        "domain rect [0,1] [0,1]\n",
        exit=0,
    ),
    CatalogEntry(
        "miranda-translation",
        "translation x+1 on [0,1]: no fixed point, conditions refuted",
        "certify",
        "dim 1\nmap g1 = x1 + 1\ndomain rect [0,1]\n",
        exit=1,
    ),
    CatalogEntry(
        "cylinder-constant-compressive",
        "constant cylinder map onto the middle of the cylinder",
        "certify",
        "dim 2\nmap g1 = 0.5\nmap g2 = 0.5\ndomain cylinder [0,1] base [0,1]\n",
        {"form": "compressive"},
        exit=0,
    ),
    CatalogEntry(
        "cylinder-linear-expansive",
        "linear cylinder map, expansive in the height coordinate",
        "certify",
        "dim 2\nmap g1 = 2*x1 - 0.5\nmap g2 = 0.25 + 0.5*x2\n"
        "domain cylinder [0,1] base [0,1]\n",
        {"form": "expansive"},
        exit=0,
    ),
    CatalogEntry(
        "cylinder-translation",
        "height translation on the cylinder: refuted in either form",
        "certify",
        "dim 2\nmap g1 = x1 + 1\nmap g2 = x2\ndomain cylinder [0,1] base [0,1]\n",
        exit=1,
    ),
    CatalogEntry(
        "cone-quadratic-expansive",
        "T(x) = (x1+x2) x on the shell 0.5 <= x1+x2 <= 2 of the orthant",
        "certify",
        "dim 2\nmap g1 = (x1 + x2)*x1\nmap g2 = (x1 + x2)*x2\n"
        "domain coneshell l=sum a=0.5 b=2\n",
        {"form": "expansive"},
        exit=0,
    ),
    CatalogEntry(
        "cone-constant-compressive",
        "constant cone map onto a point of level 1.5 in the shell [1, 2]",
        "certify",
        "dim 2\nmap g1 = 0.75\nmap g2 = 0.75\ndomain coneshell l=sum a=1 b=2\n",
        {"form": "compressive"},
        exit=0,
    ),
    CatalogEntry(
        "cone-scaling",
        "tripling map on the shell [1, 2]: no shell fixed point",
        "certify",
        "dim 2\nmap g1 = 3*x1\nmap g2 = 3*x2\ndomain coneshell l=sum a=1 b=2\n",
        exit=1,
    ),
    CatalogEntry(
        "holes-two",
        "ball of radius 4 with two holes; boundary conditions hold, index -1",
        "certify",
        "dim 2\nmap g1 = 2*tanh(x1)\nmap g2 = 0\n"
        "domain holedball R=4 hole (2,0,0.5) hole (-2,0,0.5)\n",
        exit=0,
    ),
    CatalogEntry(
        "holes-single",
        "single hole with the constant map onto its centre: refused",
        "certify",
        "dim 2\nmap g1 = 0\nmap g2 = 0\ndomain holedball R=4 hole (0,0,0.5)\n",
        exit=4,
    ),
    CatalogEntry(
        "holes-bad-constant",
        "constant map into hole 0 violates hole 1's boundary condition",
        "certify",
        "dim 2\nmap g1 = 2\nmap g2 = 0\n"
        "domain holedball R=4 hole (2,0,0.5) hole (-2,0,0.5)\n",
        exit=1,
    ),
    CatalogEntry(
        "annulus-rotation",
        "rotation by 90 degrees on a planar annulus: domain refused",
        "certify",
        "dim 2\nmap g1 = -x2\nmap g2 = x1\ndomain annulus r1=1 r2=2\n",
        exit=4,
    ),
    CatalogEntry(
        "rotation-shell",
        "rotation by 90 degrees leaves the orthant: shell certificate refuted",
        "certify",
        "dim 2\nmap g1 = -x2\nmap g2 = x1\ndomain coneshell l=euclid a=1 b=2\n",
        exit=1,
    ),
    CatalogEntry(
        "rotation-rect-offset",
        "rotation on a rectangle away from the origin: refuted",
        "certify",
        "dim 2\nmap g1 = -x2\nmap g2 = x1\ndomain rect [1,2] [1,2]\n",
        exit=1,
    ),
    CatalogEntry(
        "rotation-rect-origin",
        "rotation on a rectangle around the origin: equality case, abstain",
        "certify",
        "dim 2\nmap g1 = -x2\nmap g2 = x1\ndomain rect [-1,1] [-1,1]\n",
        exit=2,
    ),
    CatalogEntry(
        "localize-cos",
        "cos(x) on [0,1]: one proven enclosure around 0.739085...",
        "localize",
        "dim 1\nmap g1 = cos(x1)\ndomain rect [0,1]\n",
        {"tol": 1e-8},
        exit=0,
    ),
    CatalogEntry(
        "localize-linear-2d",
        "linear 2d map: one proven enclosure around (0.5, 0.5)",
        "localize",
        "dim 2\nmap g1 = 2*x1 - 0.5\nmap g2 = 0.25 + 0.5*x2\n"
        "domain rect [0,1] [0,1]\n",
        {"tol": 1e-8},
        exit=0,
    ),
    CatalogEntry(
        "localize-translation",
        "translation x+1: every sub-box pruned",
        "localize",
        "dim 1\nmap g1 = x1 + 1\ndomain rect [0,1]\n",
        {"tol": 1e-4},
        exit=1,
    ),
    CatalogEntry(
        "index-constant-inside",
        "constant map into the rectangle: index 1",
        "index",
        "dim 2\nmap g1 = 0.25\nmap g2 = 0.25\ndomain rect [0,1] [0,1]\n",
        exit=0,
    ),
    CatalogEntry(
        "index-constant-outside",
        "constant map outside the rectangle: index 0",
        "index",
        "dim 2\nmap g1 = 5\nmap g2 = 5\ndomain rect [0,1] [0,1]\n",
        exit=0,
    ),
    CatalogEntry(
        "index-squaring",
        "Id - f equals the complex squaring field: index 2",
        "index",
        "dim 2\nmap g1 = x1 - (x1^2 - x2^2)\nmap g2 = x2 - 2*x1*x2\n"
        "domain rect [-1,1] [-1,1]\n",
        exit=0,
    ),
    CatalogEntry(
        "index-contraction",
        "halving map: index 1",
        "index",
        "dim 2\nmap g1 = 0.5*x1\nmap g2 = 0.5*x2\ndomain rect [-1,1] [-1,1]\n",
        exit=0,
    ),
    CatalogEntry(
        "index-identity",
        "identity map: boundary field vanishes, abstain",
        "index",
        "dim 1\nmap g1 = x1\ndomain rect [0,1]\n",
        exit=2,
    ),
    CatalogEntry(
        "index-holes",
        "holed-ball index via the certificate plus winding cross-check",
        "index",
        "dim 2\nmap g1 = 2*tanh(x1)\nmap g2 = 0\n"
        "domain holedball R=4 hole (2,0,0.5) hole (-2,0,0.5)\n",
        exit=0,
    ),
    CatalogEntry(
        "trace-linear",
        "family (x + t)/2: fixed-point branch x = t across [0,1]",
        "trace",
        "dim 1\nparam t\nmap g1 = (x1 + t)/2\ndomain rect [-1,2]\n",
        {"grid": 16, "tol": 1e-3},
        exit=0,
    ),
    CatalogEntry(
        "trace-constant",
        "family psi(t, x) = t: branch x = t",
        "trace",
        "dim 1\nparam t\nmap g1 = t\ndomain rect [-1,2]\n",
        {"grid": 16, "tol": 1e-3},
        exit=0,
    ),
    CatalogEntry(
        "trace-translation",
        "family x + 1: every parameter cell empty",
        "trace",
        "dim 1\nparam t\nmap g1 = x1 + 1\ndomain rect [-1,2]\n",
        {"grid": 8, "tol": 1e-3},
        exit=1,
    ),
]

CATALOG = {e.id: e for e in _ENTRIES}


def get(entry_id: str) -> CatalogEntry:
    try:
        return CATALOG[entry_id]
    except KeyError:
        known = ", ".join(sorted(CATALOG))
        raise KeyError(f"no catalog entry {entry_id!r}; known ids: {known}") from None
