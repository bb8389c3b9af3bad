"""Puzzle toolkit for the three temporal-rift minigames.

Modules cover grid/directed graph oracles, tile-region geometry, the
step-limit tile puzzle, the crystal-bond routing puzzle, the clock puzzle,
plain-text instance formats, and a command line front end.
"""

__all__ = [
    "graphs",
    "geometry",
    "tile_trial",
    "crystal_bonds",
    "hands_of_time",
    "instance_io",
    "cli",
]

__version__ = "0.1.0"
