"""``python -m affmech``: the command-line front end."""

from .cli import entry

entry()
