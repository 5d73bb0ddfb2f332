"""`python -m mesorate`: the mesorate command line."""

from .cli import main

main()
