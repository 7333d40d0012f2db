"""Command-line front end as a module: `python -m netrank ...`."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
