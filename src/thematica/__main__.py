"""Run the command-line interface from a source checkout: ``python -m thematica``."""

from .cli import entry_point

if __name__ == "__main__":
    entry_point()
