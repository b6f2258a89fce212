"""weilgap: Rademacher presentations of Gamma0(p), character-pretending
multiplier systems, and numerical verification of twisted functional
equations for completed L-series.

The API lives in the submodules (``from weilgap.presentation import
build_presentation``); importing the package alone loads none of them."""

__version__ = "0.1.0"
