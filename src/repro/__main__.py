"""``python -m repro`` entry point."""

from repro.cli import run

if __name__ == "__main__":
    run()
