"""``python -m repro.cli``: the ``repro`` console script."""

from repro.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
