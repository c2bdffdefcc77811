"""``python -m oeeforecast``: the command line of ``oeeforecast.cli``."""

from .cli import main

if __name__ == "__main__":
    main()
