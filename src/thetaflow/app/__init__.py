"""Presets, file emission and the command-line front end; import names
from the submodules ``presets``, ``emit`` and ``cli``."""
